"""Repository benchmark: simulator speed, setup, step latency and model metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lte-saturated --seed 1 --seconds 30 --trace 0

One run of a workload starts ``--probes`` setup probes and then one
workload process, each a fresh single-threaded Python interpreter running
``perfbench/worker.py``.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` prints the per-layer metrics of a
layer-timed run.  Every metric is printed by name, with its unit and
direction; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit status is non-zero, and no result is printed, when the program
cannot be run at all (for instance a checkout without ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DURATION_S, SUBRUNS, WORKLOADS  # noqa: E402

#: A workload run must end within 180 s; children share what is left of this.
DEADLINE_S = 170.0
#: Fresh processes timed from spawn to ``session.start()`` returning.
SETUP_PROBES = 3


class BenchmarkError(RuntimeError):
    """The program could not be run; no result is printed."""


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One thread: numpy's BLAS pools would otherwise spread over the host.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list, deadline: float) -> dict:
    """Run ``worker.py`` to completion and parse its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a benchmark process")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        raise BenchmarkError(f"benchmark process timed out: {' '.join(argv[:3])}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"benchmark process failed with exit code {proc.returncode}: {' '.join(argv[:3])}"
        )
    return json.loads(lines[-1])


def measure(args, tmp_dir: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--subruns", str(args.subruns),
        "--duration", str(args.duration),
    ]
    probes = [run_child(["setup", *common], deadline) for _ in range(args.probes)]
    report = run_child(
        ["run", *common, "--seconds", str(args.seconds), "--tmp-dir", tmp_dir],
        deadline,
    )
    metrics = dict(report.get("metrics") or {})
    if not metrics:
        raise BenchmarkError("no cell of the workload completed: " + "; ".join(report["errors"]))
    if args.trace:
        for key in ("import_s", "build_s", "traffic_s"):
            metrics[f"setup.{key}"] = statistics.median(p[key] for p in probes)
    else:
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    return report, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Size knobs for the benchmark's own tests; a measured run keeps the defaults.
    parser.add_argument("--subruns", type=int, default=SUBRUNS)
    parser.add_argument("--duration", type=float, default=DURATION_S)
    parser.add_argument("--probes", type=int, default=SETUP_PROBES)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.subruns < 1 or args.probes < 1:
        parser.error("need --seed >= 0, --seconds > 0, --subruns >= 1, --probes >= 1")

    try:
        manifest = load_manifest()
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
            raise BenchmarkError(f"no program to benchmark: {ROOT}/src/repro is missing")
        scratch = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        tmp_dir = tempfile.mkdtemp(dir=scratch)
        try:
            report, metrics = measure(args, tmp_dir)
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if not args.trace:
        print(
            f"  {report['cells']} timed cells, {report['step_samples']} step samples, "
            f"host speed factor {report['speed']:.3f} (times are in reference seconds)"
        )
    for name in report.get("missing_entry_points", []):
        print(f"  entry point not found (not timed): {name}")
    for error in report["errors"]:
        print(f"  FAILED: {error}")
    for m in wanted:
        arrow = "lower is better" if m["better"] == "lower" else "higher is better"
        print(f"  {m['name']:<32} {metrics[m['name']]:>14.6g} {m['unit']:<8} ({arrow})")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
