"""One benchmark process: a setup probe or a workload run.

``run.py`` starts this file in a fresh single-threaded Python process and
reads the JSON object it prints as its last stdout line.

``setup``  imports the program, builds cell 0 and starts its session,
           then reports how long each part took.
``run``    simulates the workload's cells.  With ``--trace 0`` cells
           0, 1, 2, ... are driven in 10-TTI ``step()`` calls with one
           ``checkpoint()`` -> ``resume()`` round trip at the midpoint,
           after an uninterrupted warm-up run of cell 0, until
           ``--seconds`` is used up (at least the first ``--subruns``
           cells); host metrics are timed with nothing wrapped.  With
           ``--trace 1`` the first ``--subruns`` cells run uninterrupted
           under :class:`layers.LayerTimer`, after a cell with the
           program's own phase profiler on and one plain checkpointed
           cell that anchors the fingerprint and the tracing overhead.

The program is reached only through ``RunSpec``, ``SimulationSession``
and ``result_fingerprint``.  Every cell is checked: its fingerprint must
match every other run of the same spec, and its counters must conserve.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter_ns, process_time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostspeed import PROBE_SAMPLES, sample, speed_factor  # noqa: E402
from layers import ENTRY_POINTS, SETUP_ENTRY_POINTS, STATS_LAYER, LayerTimer  # noqa: E402
from workloads import MAX_CELLS, RAT, SCHEDULER, STEP_TTIS, WORKLOADS, cell_seed  # noqa: E402


def make_spec(workload, seed: int, index: int, duration_s: float):
    """The RunSpec of cell ``index`` of a workload run with ``--seed seed``."""
    from repro.runner.spec import RunSpec

    return RunSpec(
        rat=RAT,
        scheduler=SCHEDULER,
        load=workload.load,
        seed=cell_seed(seed, index),
        num_ues=workload.num_ues,
        duration_s=duration_s,
        workload=workload.traffic,
        overrides=workload.overrides,
    )


def open_session(spec, workload, profiler=False):
    from repro.sim.session import SimulationSession

    kwargs = {"flow_trace": True} if workload.flow_trace else {}
    if profiler:
        kwargs["profiler"] = True
    return SimulationSession.from_config(
        spec.to_config(), spec.scheduler, duration_s=spec.duration_s, **kwargs
    )


# -- setup probe -----------------------------------------------------------


def setup_probe(args) -> dict:
    """CPU seconds from process start to ``session.start()`` returning.

    ``process_time`` counts from the interpreter's own start.  Host-speed
    samples are taken on both sides of the timed interval (see hostspeed);
    the first block's CPU is left out of it.
    """
    c_calibrate = process_time()
    sample_cpu_s = sum(sample() for _ in range(PROBE_SAMPLES))
    c_import = process_time()
    import repro.runner.spec  # noqa: F401
    import repro.sim.session  # noqa: F401

    c_build = process_time()
    timer = LayerTimer(SETUP_ENTRY_POINTS).install() if args.trace else None
    workload = WORKLOADS[args.workload]
    spec = make_spec(workload, args.seed, 0, args.duration)
    session = open_session(spec, workload)
    session.start()
    c_started = process_time()
    sample_cpu_s += sum(sample() for _ in range(PROBE_SAMPLES))
    speed = speed_factor(sample_cpu_s, 2 * PROBE_SAMPLES)
    # The traffic span is wall time, like every span of the layer timer.
    traffic_s = timer.self_ns[0] / 1e9 if timer is not None else 0.0
    return {
        "setup_s": speed * (c_started - (c_import - c_calibrate)),
        "import_s": speed * (c_build - c_import),
        "build_s": speed * (c_started - c_build - traffic_s),
        "traffic_s": speed * traffic_s,
    }


# -- one cell --------------------------------------------------------------


class RunFailed(Exception):
    """A cell broke a correctness check."""


def simulate(spec, workload, checkpoint_path=None, timer=None, profiler=False) -> dict:
    """Drive one cell to the end; return its timings, counters and result.

    Timings are CPU time of this process (``process_time``: time the host
    gave to other tenants does not count) in reference seconds (see
    :mod:`hostspeed`): a host-speed sample is taken after every step,
    outside the step's timing.

    ``profiler=True`` switches on the program's own phase profiler; its
    report lands in the telemetry part of the fingerprint, so such a cell
    is never compared with plain ones.
    """
    from repro.sim.session import SimulationSession, result_fingerprint

    tti_us = spec.to_config().tti_us
    session = open_session(spec, workload, profiler)
    if timer is not None:
        # OutRAN's own RB-reselection counters (read back as telemetry).
        session.sim.scheduler.collect_stats = True
        at_open = timer.snapshot()
    session.start()
    total_steps = math.ceil((session.end_us - session.now_us) / (STEP_TTIS * tti_us))
    midpoint = total_steps // 2
    step_ns: list[int] = []
    step_cpu_s: list[float] = []
    sample_cpu_s = 0.0
    checkpoint = None
    before = timer.snapshot() if timer is not None else None
    # Start every timed section from a collected heap, so the garbage
    # earlier cells left behind does not decide when the collector runs.
    gc.collect()
    while not session.done:
        if checkpoint_path is not None and len(step_ns) == midpoint:
            gc.collect()
            c0 = process_time()
            info = session.checkpoint(checkpoint_path)
            c1 = process_time()
            session = SimulationSession.resume(checkpoint_path)
            c2 = process_time()
            os.remove(checkpoint_path)
            checkpoint = {"bytes": info["bytes"], "checkpoint_s": c1 - c0, "resume_s": c2 - c1}
        c0 = process_time()
        t0 = perf_counter_ns()
        session.step(n_ttis=STEP_TTIS)
        step_ns.append(perf_counter_ns() - t0)
        step_cpu_s.append(process_time() - c0)
        sample_cpu_s += sample()
    after = timer.snapshot() if timer is not None else None
    speed = speed_factor(sample_cpu_s, len(step_ns))
    if checkpoint is not None:
        checkpoint["checkpoint_s"] *= speed
        checkpoint["resume_s"] *= speed
    progress = session.progress()
    counters = session.snapshot(telemetry=True)["telemetry"]["counters"]
    result = session.finish()
    out = {
        "spec_seed": spec.seed,
        "fingerprint": result_fingerprint(result),
        "ttis": progress["ttis_run"],
        "speed": speed,
        "cpu_s": speed * sum(step_cpu_s),
        "step_ms": [speed * 1e3 * c for c in step_cpu_s],
        "checkpoint": checkpoint,
        "events": progress["events_processed"],
        "pending": progress["queue_depth"],
        "counters": counters,
        "fct_ms": [(r.size_bytes, r.fct_ms) for r in result.records],
        "flows_started": result.completed_flows + result.censored_flows,
        "se": result.se_series().tolist(),
        "fairness": result.fairness_series().tolist(),
    }
    if profiler:
        out["profile"] = result.telemetry["profile"]
    if timer is not None:
        out["layers"] = {
            "calls": [a - b for a, b in zip(after["calls"], before["calls"])],
            "self_s": [
                speed * (a - b) / 1e9 for a, b in zip(after["self_ns"], before["self_ns"])
            ],
            # Setup schedules the flow arrivals, so count from before start().
            "schedules": timer.fn_calls_between(at_open, after, "EventEngine.schedule_at"),
            "acks": timer.fn_calls_between(before, after, "TcpFlow.on_ack"),
            "grants": timer.fn_calls_between(before, after, "XNodeB._serve_ue"),
            "cqi_updates": timer.fn_calls_between(before, after, "ChannelModel.update_all"),
            # Spans are wall time (a CPU clock per call would cost more
            # than most entry points), so their loop is too.
            "loop_s": speed * sum(step_ns) / 1e9,
        }
    check_cell(out, result, expected_ttis=round(session.end_us / tti_us))
    return out


def check_cell(out: dict, result, expected_ttis: int) -> None:
    """Conservation checks on one finished cell."""
    c = out["counters"]
    problems = []
    if out["ttis"] != expected_ttis:
        problems.append(f"ran {out['ttis']} TTIs, expected {expected_ttis}")
    if c["sim.flows_completed"] > c["sim.flows_started"]:
        problems.append("more flows completed than started")
    if result.completed_flows != c["sim.flows_completed"]:
        problems.append("FCT records disagree with the completion counter")
    if c["rlc.rx.sdus_delivered"] > c["rlc.tx.sdus_sent"]:
        problems.append("RLC delivered more SDUs than it sent")
    if c["pdcp.sdus_delivered"] > c["pdcp.sns_allocated"]:
        problems.append("PDCP delivered more SDUs than it numbered")
    if any(r.end_us < r.start_us for r in result.records):
        problems.append("an FCT record ends before it starts")
    if not out["fct_ms"]:
        problems.append("no flow completed")
    if problems:
        raise RunFailed(f"seed {out['spec_seed']}: " + "; ".join(problems))


class Cells:
    """Runs cells, tallies attempts and failures, cross-checks fingerprints."""

    def __init__(self, workload, tmp_dir: str) -> None:
        self.workload = workload
        self.tmp_dir = tmp_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._fingerprints: dict[int, str] = {}

    def run(self, spec, checkpoint: bool, timer=None, profiler=False):
        self.attempted += 1
        path = (
            os.path.join(self.tmp_dir, f"cell-{spec.seed}.ckpt") if checkpoint else None
        )
        try:
            out = simulate(spec, self.workload, path, timer, profiler)
            if profiler:
                return out
            known = self._fingerprints.setdefault(spec.seed, out["fingerprint"])
            if known != out["fingerprint"]:
                raise RunFailed(
                    f"seed {spec.seed}: fingerprint {out['fingerprint'][:12]} "
                    f"differs from an earlier run's {known[:12]}"
                )
        except Exception as exc:  # a failed cell is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        return out


# -- metrics -----------------------------------------------------------------


def model_metrics(cells: list) -> dict:
    """The paper's metrics, pooled over the given cells."""
    import numpy as np

    fcts = [f for c in cells for f in c["fct_ms"]]
    short = [ms for size, ms in fcts if size <= 10_000]
    fairness = [v for c in cells for v in c["fairness"]]
    se = [v for c in cells for v in c["se"]]
    started = sum(c["flows_started"] for c in cells)
    return {
        "fct_short_p50_ms": float(np.percentile(short, 50)),
        "fct_short_mean_ms": statistics.fmean(short),
        "fct_short_p95_ms": float(np.percentile(short, 95)),
        "fct_all_mean_ms": statistics.fmean(ms for _, ms in fcts),
        "spectral_eff_bps_hz": statistics.fmean(se),
        "jain_fairness": statistics.fmean(fairness),
        "flows_completed_pct": 100.0 * len(fcts) / started,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(cells: Cells, timed: list, model_cells: list) -> dict:
    import numpy as np

    steps = [ms for c in timed for ms in c["step_ms"]]
    model = model_metrics(model_cells)
    return {
        "ttis_per_cpu_s": sum(c["ttis"] for c in timed) / sum(c["cpu_s"] for c in timed),
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_p95": float(np.percentile(steps, 95)),
        "peak_rss_mb": peak_rss_mb(),
        "checkpoint_ms": statistics.median(
            1e3 * (c["checkpoint"]["checkpoint_s"] + c["checkpoint"]["resume_s"])
            for c in timed
        ),
        "checkpoint_kb": statistics.median(c["checkpoint"]["bytes"] / 1024 for c in timed),
        "runs_ok_pct": 100.0 * (cells.attempted - cells.failed) / cells.attempted,
        "fct_short_p50_ms": model["fct_short_p50_ms"],
        "jain_fairness": model["jain_fairness"],
        "flows_completed_pct": model["flows_completed_pct"],
    }


def pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def per_layer(plain: dict, profiled: dict, layered: list) -> dict:
    layers = tuple(ENTRY_POINTS)
    calls = [sum(c["layers"]["calls"][i] for c in layered) for i in range(len(layers))]
    self_s = [sum(c["layers"]["self_s"][i] for c in layered) for i in range(len(layers))]
    stats_idx = layers.index(STATS_LAYER)
    loop_s = sum(c["layers"]["loop_s"] for c in layered) - self_s[stats_idx]
    counters: dict = {}
    for c in layered:
        for name, value in c["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def total(key):
        return sum(c[key] for c in layered)

    def layer_sum(key):
        return sum(c["layers"][key] for c in layered)

    ttis = total("ttis")
    events = total("events")
    schedules = layer_sum("schedules")
    arrivals = counters["pdcp.flow_table.packets_observed"]
    out = {}
    for i, name in enumerate(layers):
        if name == STATS_LAYER:
            continue
        out[f"{name}.calls"] = calls[i]
        out[f"{name}.self_s"] = self_s[i]
        out[f"{name}.self_pct"] = pct(self_s[i], loop_s)
    layer_idx = {name: i for i, name in enumerate(layers)}
    out.update(
        {
            "engine.events": events,
            "engine.events_per_tti": events / ttis,
            "engine.cancelled_pct": pct(schedules - events - total("pending"), schedules),
            "tcp.acks": layer_sum("acks"),
            "tcp.segments": counters["tcp.packets_sent"],
            "tcp.retx_pct": pct(counters["tcp.retransmits"], counters["tcp.packets_sent"]),
            "tcp.rto_firings": counters["tcp.rto_firings"],
            "cc.ece_acks": counters["tcp.ecn_ce_acks"],
            "pdcp.sdus": counters["pdcp.sns_allocated"],
            "pdcp.decipher_fail_pct": pct(
                counters["pdcp.decipher_failures"], counters["pdcp.sns_allocated"]
            ),
            "core.flow_observations": arrivals,
            "core.mlfq_demotions": counters["mlfq.demotions"],
            "core.rb_reselect_pct": pct(
                counters.get("mac.epsilon.rb_reselections", 0),
                counters.get("mac.epsilon.rb_assignments", 0),
            ),
            "rlc.pdus_built": counters["rlc.tx.pdus_built"],
            "rlc.sdu_drop_pct": pct(counters["rlc.tx.sdus_dropped"], arrivals),
            "rlc.sdu_mark_pct": pct(counters["rlc.tx.sdus_marked"], arrivals),
            "rlc.am_retx": counters["rlc.am.retx_transmissions"],
            "mac.us_per_tti": 1e6 * self_s[layer_idx["mac"]] / ttis,
            "mac.rb_assignments": counters.get("mac.epsilon.rb_assignments", 0),
            "mac.harq_retx_pct": pct(
                counters.get("mac.harq.retransmissions", 0), layer_sum("grants")
            ),
            "phy.us_per_update": 1e6 * self_s[layer_idx["phy"]] / max(layer_sum("cqi_updates"), 1),
            "flowtrace.flows_decomposed": counters.get("flowtrace.flows_decomposed", 0),
            "session.checkpoint_s": plain["checkpoint"]["checkpoint_s"],
            "session.resume_s": plain["checkpoint"]["resume_s"],
            "other_pct": 100.0 - sum(
                out[f"{n}.self_pct"] for n in layers if n != STATS_LAYER
            ),
        }
    )
    profile = profiled["profile"]
    out["profiler.other_pct"] = pct(profile["other_s"], profile["total_s"])
    # Same cell, same work: layer-timed vs plain CPU of the stepped loop.
    first = layered[0]
    out["trace_overhead_pct"] = pct(first["cpu_s"] - plain["cpu_s"], plain["cpu_s"])
    model = model_metrics(layered)
    for name in ("fct_short_mean_ms", "fct_short_p95_ms", "fct_all_mean_ms", "spectral_eff_bps_hz"):
        out[f"model.{name}"] = model[name]
    return out


# -- workload run --------------------------------------------------------------


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]

    def spec(index):
        return make_spec(workload, args.seed, index, args.duration)

    cells = Cells(workload, args.tmp_dir)
    report: dict = {}
    if not args.trace:
        # Warm-up: the uninterrupted reference every checkpointed run of
        # the same spec must reproduce.
        cells.run(spec(0), checkpoint=False)
        timed = []
        t0 = time.monotonic()
        while len(timed) < MAX_CELLS:
            timed.append(cells.run(spec(len(timed)), checkpoint=True))
            # Stop before the next cell would overrun --seconds.
            projected = (time.monotonic() - t0) * (len(timed) + 1) / len(timed)
            if len(timed) >= args.subruns and projected > args.seconds:
                break
        model_cells = [c for c in timed[: args.subruns] if c is not None]
        timed = [c for c in timed if c is not None]
        if model_cells:
            report["metrics"] = end_to_end(cells, timed, model_cells)
            report["cells"] = len(timed)
            report["step_samples"] = sum(len(c["step_ms"]) for c in timed)
            report["speed"] = statistics.median(c["speed"] for c in timed)
    else:
        # What the program's built-in phase profiler leaves unattributed;
        # this cell also warms the process up for the plain one.
        profiled = cells.run(spec(0), checkpoint=False, profiler=True)
        plain = cells.run(spec(0), checkpoint=True)
        timer = LayerTimer().install()
        try:
            layered = [
                cells.run(spec(i), checkpoint=False, timer=timer) for i in range(args.subruns)
            ]
        finally:
            timer.uninstall()
        report["missing_entry_points"] = timer.missing
        layered = [c for c in layered if c is not None]
        if plain is not None and profiled is not None and layered:
            report["metrics"] = per_layer(plain, profiled, layered)
    report.update(attempted=cells.attempted, failed=cells.failed, errors=cells.errors)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--subruns", type=int, required=True)
    parser.add_argument("--duration", type=float, required=True)
    parser.add_argument("--tmp-dir", default=".")
    args = parser.parse_args(argv)
    report = setup_probe(args) if args.mode == "setup" else run_workload(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
