"""Tests for the webpage-load driver (PLT measurement)."""

import math

import numpy as np
import pytest

from repro import CellSimulation, SimConfig
from repro.sim.webload import PAGE_FLOW_ID_BASE, PageLoadSession, measure_plt
from repro.traffic import (
    PHASE_FLOW_ID_STRIDE,
    LoadPhase,
    NonStationaryLoad,
)
from repro.traffic.generator import FlowSpec
from repro.traffic.webpage import PAGES_BY_NAME, Webpage


class TestWebloadDeprecationShim:
    def test_unknown_attribute_still_raises(self):
        import repro.sim.webload as webload

        with pytest.raises(AttributeError):
            webload.no_such_name


def make_sim(num_ues=2, seed=3):
    cfg = SimConfig.lte_default(num_ues=num_ues, seed=seed)
    return CellSimulation(cfg, scheduler="outran", flows=[])


class TestPageLoadSession:
    def test_unloaded_page_completes(self):
        sim = make_sim()
        page = PAGES_BY_NAME["wikipedia.org"]
        session = PageLoadSession(
            sim, page, ue_index=0, start_us=100_000,
            rng=np.random.default_rng(0), flow_id_base=PAGE_FLOW_ID_BASE,
        )
        sim.run(duration_s=6.0)
        assert session.complete
        assert session.plt_ms > page.render_ms

    def test_plt_includes_render_time(self):
        sim = make_sim()
        page = PAGES_BY_NAME["wikipedia.org"]
        session = PageLoadSession(
            sim, page, 0, 100_000, np.random.default_rng(0), PAGE_FLOW_ID_BASE
        )
        sim.run(duration_s=6.0)
        network_ms = (session.network_done_us - session.start_us) / 1e3
        assert session.plt_ms == pytest.approx(network_ms + page.render_ms)

    def test_waves_are_sequential(self):
        """No wave-2 flow may start before wave 1 finishes."""
        sim = make_sim()
        page = Webpage("t.example", page_bytes=300_000, num_flows=9, waves=3)
        session = PageLoadSession(
            sim, page, 0, 50_000, np.random.default_rng(1), PAGE_FLOW_ID_BASE
        )
        sim.run(duration_s=6.0)
        assert session.complete
        runtimes = [
            sim._runtimes[PAGE_FLOW_ID_BASE + i] for i in range(page.num_flows)
        ]
        # Flow 0 is the root; flows of later waves start strictly later.
        root_done = runtimes[0].receiver.completed_us
        for rt in runtimes[1:]:
            assert rt.start_us >= root_done

    def test_incomplete_page_reports_nan(self):
        sim = make_sim()
        page = PAGES_BY_NAME["netflix.com"]
        session = PageLoadSession(
            sim, page, 0, 100_000, np.random.default_rng(0), PAGE_FLOW_ID_BASE
        )
        sim.run(duration_s=0.15, drain_s=0.0)  # far too short
        assert not session.complete
        assert math.isnan(session.plt_ms)


class TestMeasurePlt:
    def test_returns_requested_loads(self):
        plts = measure_plt(
            "outran", PAGES_BY_NAME["wikipedia.org"],
            num_loads=2, interval_s=4.0, background_load=0.3, seed=1,
        )
        assert len(plts) == 2
        assert all(p > 0 for p in plts)

    def test_deterministic(self):
        args = dict(num_loads=1, interval_s=4.0, background_load=0.3, seed=5)
        a = measure_plt("pf", PAGES_BY_NAME["wikipedia.org"], **args)
        b = measure_plt("pf", PAGES_BY_NAME["wikipedia.org"], **args)
        assert a == b


class TestDynamicStartFlow:
    def test_duplicate_flow_id_rejected(self):
        sim = make_sim()
        spec = FlowSpec(flow_id=5, ue_index=0, size_bytes=1000, start_us=0)
        sim.engine.schedule_at(0, lambda: sim.start_flow(spec))
        sim.engine.run_until(1)
        with pytest.raises(ValueError):
            sim.start_flow(spec)

    def test_completion_hook_fires(self):
        sim = make_sim()
        done = []
        spec = FlowSpec(flow_id=5, ue_index=0, size_bytes=1000, start_us=0)
        sim.engine.schedule_at(
            1000, lambda: sim.start_flow(spec, on_complete=done.append)
        )
        sim.run(duration_s=1.0)
        assert len(done) == 1
        assert done[0] > 1000


class TestNonStationaryLoad:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            LoadPhase(duration_s=0.0, load=0.5)
        with pytest.raises(ValueError):
            LoadPhase(duration_s=1.0, load=0.0)
        with pytest.raises(ValueError):
            LoadPhase(duration_s=1.0, load=5.0)
        with pytest.raises(ValueError):
            NonStationaryLoad([])

    def test_burst_shape(self):
        schedule = NonStationaryLoad.burst(phase_s=2.0)
        assert len(schedule.phases) == 3
        assert schedule.total_duration_s == pytest.approx(6.0)
        loads = [p.load for p in schedule.phases]
        assert loads[1] > loads[0] and loads[1] > loads[2]
        assert schedule.mean_load() == pytest.approx(sum(loads) / 3)

    def test_flow_ids_disjoint_per_phase(self):
        schedule = NonStationaryLoad.burst(phase_s=1.0, seed=2)
        flows = schedule.generate(num_ues=4, capacity_bps=50e6)
        assert flows
        ids = [f.flow_id for f in flows]
        assert len(ids) == len(set(ids))
        for flow in flows:
            phase = flow.flow_id // PHASE_FLOW_ID_STRIDE - 1
            assert 0 <= phase < 3

    def test_arrivals_respect_phase_offsets(self):
        phases = [LoadPhase(1.0, 0.4), LoadPhase(1.0, 1.5)]
        schedule = NonStationaryLoad(phases, seed=5)
        flows = schedule.generate(num_ues=4, capacity_bps=50e6)
        for flow in flows:
            phase = flow.flow_id // PHASE_FLOW_ID_STRIDE - 1
            offset_us = int(phase * 1e6)
            assert offset_us <= flow.start_us < offset_us + int(1e6)
        # The overload phase offers more arrivals than the calm one.
        by_phase = [0, 0]
        for flow in flows:
            by_phase[flow.flow_id // PHASE_FLOW_ID_STRIDE - 1] += 1
        assert by_phase[1] > by_phase[0]

    def test_deterministic_for_seed(self):
        a = NonStationaryLoad.burst(seed=9).generate(3, 50e6)
        b = NonStationaryLoad.burst(seed=9).generate(3, 50e6)
        c = NonStationaryLoad.burst(seed=10).generate(3, 50e6)
        assert a == b
        assert a != c

    def test_provide_to_installs_flows(self):
        sim = make_sim()
        schedule = NonStationaryLoad.burst(phase_s=0.5, seed=1)
        flows = schedule.provide_to(sim)
        assert flows
        result = sim.run(schedule.total_duration_s)
        assert result.completed_flows > 0
