"""Self-tests of the benchmark: manifest, output contract, timer identity.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import worker  # noqa: E402
from layers import ENTRY_POINTS, LayerTimer  # noqa: E402
from workloads import MAX_CELLS, WORKLOADS, cell_seed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Not the default seed of any documented command; short cells keep it quick.
SECOND_SEED = 7
TINY = ["--seconds", "1", "--subruns", "1", "--duration", "0.3", "--probes", "1"]


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_manifest_shape():
    doc = manifest()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_cell_seeds_are_distinct_per_seed():
    first = {cell_seed(1, i) for i in range(MAX_CELLS)}
    second = {cell_seed(2, i) for i in range(MAX_CELLS)}
    assert len(first) == MAX_CELLS and not first & second
    with pytest.raises(ValueError):
        cell_seed(1, MAX_CELLS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit_and_direction(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", str(SECOND_SEED), "--trace", str(trace), *TINY
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = manifest()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    text = "\n".join(lines[:-1])
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        assert re.search(
            rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+"
            rf"\({m['better']} is better\)$",
            text,
            re.MULTILINE,
        ), m["name"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        shares = sum(v for k, v in metrics.items() if k.endswith(".self_pct"))
        assert shares + metrics["other_pct"] == pytest.approx(100.0)
        assert metrics["other_pct"] >= 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_timing_leaves_fingerprint_identical(workload, tmp_path):
    w = WORKLOADS[workload]
    spec = worker.make_spec(w, SECOND_SEED, 0, 0.2)
    plain = worker.simulate(spec, w, checkpoint_path=str(tmp_path / "c.ckpt"))
    timer = LayerTimer().install()
    try:
        timed = worker.simulate(spec, w, timer=timer)
    finally:
        timer.uninstall()
    assert timed["fingerprint"] == plain["fingerprint"]
    assert timer.missing == []
    assert sum(timed["layers"]["calls"]) > 0


def test_host_speed_sample_never_triggers_the_collector():
    # The collector's cost grows with the program's heap; a sample that
    # allocated containers would time the program instead of the host.
    hostspeed.sample()  # the first call may cache interpreter state
    gc.collect()
    before = gc.get_count()[0]
    samples = [hostspeed.sample() for _ in range(100)]
    # 100 samples run 30000 loop iterations; a few counts are the test's own.
    assert gc.get_count()[0] - before < 10
    assert min(samples) > 0


def test_uninstall_restores_every_entry_point():
    import importlib

    def originals():
        out = {}
        for entries in ENTRY_POINTS.values():
            for module_name, owner, names in entries:
                obj = getattr(importlib.import_module(module_name), owner)
                if names is None:
                    out[owner] = obj
                else:
                    for name, value in vars(obj).items():
                        out[f"{owner}.{name}"] = value
        return out

    before = originals()
    timer = LayerTimer().install()
    assert originals() != before
    timer.uninstall()
    assert originals() == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = run_bench(
        "--workload", "lte-saturated", "--seed", "1", "--seconds", "1", cwd=str(tmp_path)
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
