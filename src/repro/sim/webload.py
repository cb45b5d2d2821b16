"""Webpage-load driver: PLT measurement over the cell simulation.

Models the testbed experiment of section 6.1: one UE loads a webpage
(sub-flows fetched in dependency waves) while every UE -- including the
browsing one -- receives heavy background web-search traffic.  The Page
Load Time is the network completion of the last wave plus the page's
client-side render time, mirroring the W3C Navigation-Timing definition
the paper measures (loadEventEnd - navigationStart).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.cell import CellSimulation
from repro.traffic.generator import FlowSpec
from repro.traffic.webpage import Webpage, page_flow_sizes, page_waves

#: Flow ids for page sub-flows start here to stay clear of background ids.
PAGE_FLOW_ID_BASE = 1_000_000
#: Client-side parse/execute gap between dependency waves.
DEFAULT_PARSE_DELAY_US = 80_000


class PageLoadSession:
    """One page load on one UE inside a running simulation."""

    def __init__(
        self,
        sim: CellSimulation,
        page: Webpage,
        ue_index: int,
        start_us: int,
        rng: np.random.Generator,
        flow_id_base: int,
        parse_delay_us: int = DEFAULT_PARSE_DELAY_US,
    ) -> None:
        self.sim = sim
        self.page = page
        self.ue_index = ue_index
        self.start_us = start_us
        self.parse_delay_us = parse_delay_us
        sizes = page_flow_sizes(page, rng)
        self._waves = page_waves(page, sizes)
        self._next_flow_id = flow_id_base
        self._pending = 0
        self._wave_index = 0
        self.network_done_us: Optional[int] = None
        sim.engine.schedule_at(start_us, self._launch_next_wave)

    @property
    def complete(self) -> bool:
        return self.network_done_us is not None

    @property
    def plt_ms(self) -> float:
        """Page load time: network completion + render (NaN if unfinished)."""
        if self.network_done_us is None:
            return float("nan")
        network_ms = (self.network_done_us - self.start_us) / 1e3
        return network_ms + self.page.render_ms

    def _launch_next_wave(self) -> None:
        sizes = self._waves[self._wave_index]
        self._wave_index += 1
        self._pending = len(sizes)
        now = self.sim.engine.now_us
        for size in sizes:
            spec = FlowSpec(
                flow_id=self._next_flow_id,
                ue_index=self.ue_index,
                size_bytes=size,
                start_us=now,
                qos_short=size < 10_000,
            )
            self._next_flow_id += 1
            self.sim.start_flow(spec, on_complete=self._on_subflow_done)

    def _on_subflow_done(self, now_us: int) -> None:
        self._pending -= 1
        if self._pending > 0:
            return
        if self._wave_index < len(self._waves):
            self.sim.engine.schedule_in(self.parse_delay_us, self._launch_next_wave)
        else:
            self.network_done_us = now_us


#: Flow id of the persistent bulk transfer on the browsing UE.
BULK_FLOW_ID = 900_000


def measure_plt(
    scheduler: str,
    page: Webpage,
    num_loads: int = 3,
    interval_s: float = 8.0,
    num_ues: int = 4,
    background_load: float = 0.6,
    browsing_ue_bulk: bool = True,
    seed: int = 0,
    config_overrides: Optional[dict] = None,
) -> list[float]:
    """Load ``page`` repeatedly under background traffic; return PLTs (ms).

    Reproduces the section 6.1 testbed workload: every UE receives
    Poisson web-search background flows at ``background_load``, and --
    because the paper's UEs each run a bulky file transfer alongside the
    browser -- the browsing UE additionally carries one persistent bulk
    download for the whole run (``browsing_ue_bulk``).  That bulk flow is
    exactly the Figure 1 contention: under FIFO RLC the page's short
    sub-flows queue behind it; OutRAN's per-UE MLFQ lets them jump ahead.
    UE 0 loads the page every ``interval_s`` seconds.
    """
    from repro.sim.config import SimConfig, TrafficSpec

    overrides = dict(config_overrides or {})
    cfg = SimConfig.lte_default(
        num_ues=num_ues,
        seed=seed,
        **overrides,
    ).with_overrides(
        traffic=TrafficSpec(distribution="websearch", load=background_load)
    )
    duration_s = num_loads * interval_s
    sim = CellSimulation(cfg, scheduler=scheduler)
    if browsing_ue_bulk:
        # Sized to stay active the entire run even if it got the whole
        # cell to itself.
        bulk_bytes = int(sim.capacity_bps() / 8 * (duration_s + 6.0))
        bulk = FlowSpec(
            flow_id=BULK_FLOW_ID, ue_index=0, size_bytes=bulk_bytes, start_us=0
        )
        sim.engine.schedule_at(0, sim.start_flow, bulk)
    rng = np.random.default_rng(seed + 77)
    sessions = []
    for i in range(num_loads):
        sessions.append(
            PageLoadSession(
                sim,
                page,
                ue_index=0,
                start_us=int((0.5 + i * interval_s) * 1e6),
                rng=rng,
                flow_id_base=PAGE_FLOW_ID_BASE + i * 10_000,
            )
        )
    sim.run(duration_s=duration_s, drain_s=4.0)
    return [s.plt_ms for s in sessions if s.complete]
