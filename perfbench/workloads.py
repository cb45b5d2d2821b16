"""The benchmark's workloads: three LTE cells, each a seeded series of runs.

A workload run with ``--seed n`` simulates independent cells whose
RunSpec seeds are derived from ``n`` (:func:`cell_seed`).  The first
``SUBRUNS`` cells always run and the model metrics pool exactly those,
so they are exact for a given seed and still steady across seeds (one
10-UE cell's channel draw alone moves its spectral efficiency by 20%).

This module holds plain data only and imports nothing from the program,
so ``run.py`` can validate arguments without loading the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cells every workload run simulates; the model metrics pool these.
SUBRUNS = 8
#: Cells one workload run may draw from its seed.
MAX_CELLS = 1000
#: Simulated arrival window of each cell; the session's default 2 s drain
#: follows, so one cell is at least 4000 TTIs = 400 ten-TTI steps.
DURATION_S = 2.0
#: TTIs per ``SimulationSession.step`` call: one 10 ms control interval.
STEP_TTIS = 10
#: Every workload is an LTE 20 MHz (100 RB) cell under OutRAN over PF.
RAT = "lte"
SCHEDULER = "outran"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_ues: int
    load: float
    #: RunSpec.workload ("poisson" or "incast").
    traffic: str = "poisson"
    #: SimConfig overrides, as RunSpec takes them.
    overrides: tuple = ()
    #: Attach the per-flow FCT tracer (a SimulationSession.from_config kwarg).
    flow_trace: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lte-saturated",
            why=(
                "10 UEs, Poisson LTE flows at load 2.0, RLC UM 128-SDU "
                "drop-tail, Cubic: the paper's Fig. 13 surge, where "
                "per-packet TCP and RLC work dominates"
            ),
            num_ues=10,
            load=2.0,
        ),
        Workload(
            name="lte-wide-cell",
            why=(
                "100 UEs, Poisson at load 0.6, same stack: per-TTI x per-UE "
                "work (eNB BSR loop, PHY refresh, UE x RB scheduling) "
                "outweighs per-packet work"
            ),
            num_ues=100,
            load=0.6,
        ),
        Workload(
            name="lte-incast-am",
            why=(
                "16 UEs, incast fan-in at load 0.8, RLC AM, BLER 0.1, DCTCP "
                "with ECN step marking at K=30, flow tracing on: ECN marks, "
                "ARQ/HARQ and RTOs instead of drops"
            ),
            num_ues=16,
            load=0.8,
            traffic="incast",
            overrides=(
                ("rlc_mode", "am"),
                ("radio_bler", 0.1),
                ("cc", "dctcp"),
                ("aqm", "red"),
                ("ecn_min_sdus", 30),
                ("ecn_max_sdus", 30),
            ),
            flow_trace=True,
        ),
    )
}


def cell_seed(seed: int, index: int) -> int:
    """RunSpec seed of cell ``index`` of a run: distinct for every (seed, index)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative: {seed}")
    if not 0 <= index < MAX_CELLS:
        raise ValueError(f"cell index must be in [0, {MAX_CELLS}): {index}")
    return MAX_CELLS * seed + index
