"""The xNodeB: per-TTI MAC allocation, RLC grants, air transmission.

Every TTI the :class:`XNodeB`:

1. refreshes the buffer status reports (including OutRAN's MLFQ
   priority attribute) and the oracle fields the clairvoyant baselines
   read, for the UEs whose backlog may have changed (the wake set),
2. asks the configured MAC scheduler to allocate the RB grid against the
   latest CQI-derived rate matrix,
3. converts each UE's RB share into a byte grant, lets the RLC entity
   assemble PDUs (segmentation, retransmissions, MLFQ order), and puts the
   resulting transport block "on the air" -- a delayed delivery event,
   subject to the configured transport-block error rate,
4. feeds served bits back to the scheduler (PF EWMA) and the metrics.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.mac.bsr import BufferStatusReport, empty_report
from repro.mac.harq import HarqEntity
from repro.mac.kernels import KernelWorkspace, SchedArrays
from repro.mac.qos import CqaScheduler, ExpPfScheduler, MlwdfScheduler, PssScheduler
from repro.mac.scheduler import (
    MacScheduler,
    batched_fallback_reason,
    warn_backend_fallback,
)
from repro.mac.srjf import SrjfScheduler
from repro.phy.channel import ChannelModel
from repro.phy.tbs import transport_block_bits
from repro.rlc.am import AmStatus, AmTransmitter
from repro.rlc.pdu import RlcPdu
from repro.sim.config import SimConfig
from repro.sim.engine import EventEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import SchedulingTrace
from repro.sim.ue import UeContext
from repro.telemetry.flowtrace import FlowTracer
from repro.telemetry.profiler import Profiler, coerce_profiler
from repro.telemetry.registry import TelemetryRegistry, coerce_registry


_ORACLE_TYPES = (
    SrjfScheduler,
    PssScheduler,
    CqaScheduler,
    MlwdfScheduler,
    ExpPfScheduler,
)


def _needs_oracle(scheduler: MacScheduler) -> bool:
    inner = getattr(scheduler, "legacy", scheduler)
    return isinstance(scheduler, _ORACLE_TYPES) or isinstance(inner, _ORACLE_TYPES)


class XNodeB:
    """Base station: owns the scheduler and drives the TTI loop."""

    def __init__(
        self,
        config: SimConfig,
        scheduler: MacScheduler,
        channel: ChannelModel,
        ues: Sequence[UeContext],
        engine: EventEngine,
        metrics: MetricsCollector,
        rng: np.random.Generator,
        telemetry: Optional[TelemetryRegistry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.channel = channel
        self.ues = list(ues)
        self.engine = engine
        self.metrics = metrics
        self._rng = rng
        self._rates = channel.rate_matrix_bits()
        self._cqi = channel.cqi_matrix()
        self._sched_states = [ue.sched for ue in self.ues]
        self._empty_reports = [empty_report(ue.index) for ue in self.ues]
        self._needs_oracle = _needs_oracle(scheduler)
        #: Indices of the UEs whose backlog may have changed since the
        #: last TTI's scan.  Every UE outside it has no RLC backlog, no
        #: HARQ bytes and an empty report, so the scan can skip it.
        self._wake: set[int] = set(range(len(self.ues)))
        # Vectorized backend: array-backed scheduler state + preallocated
        # kernel workspace.  While batched, SchedArrays is the source of
        # truth for EWMA/last-served (the per-UE objects go stale until
        # finalize()); the backlog scan below keeps activity, head levels
        # and the SRJF oracle mirrored incrementally.
        self._batched = (
            config.backend == "vectorized" and scheduler.batched_capable
        )
        #: Why the vectorized backend is running this scheduler on the
        #: scalar path (None when no fallback happened).  Surfaced in the
        #: telemetry snapshot and warned once per scheduler/reason.
        self.backend_fallback_reason: Optional[str] = None
        if config.backend == "vectorized" and not self._batched:
            self.backend_fallback_reason = batched_fallback_reason(scheduler)
            warn_backend_fallback(scheduler, self.backend_fallback_reason)
        #: Runtime parameter changes (Near-RT RIC controls) queued to be
        #: applied at the top of the next TTI -- the one boundary where
        #: both backends observe a change identically.
        self._pending_controls: list[Callable[[], None]] = []
        if self._batched:
            self._arrays: SchedArrays | None = SchedArrays(len(self.ues))
            self._arrays.sync_from(self._sched_states)
            self._work: KernelWorkspace | None = KernelWorkspace()
        else:
            self._arrays = None
            self._work = None
        if config.harq_enabled:
            self._harq: list[HarqEntity] | None = [
                HarqEntity(
                    np.random.default_rng(rng.integers(2**63)),
                    rtt_us=config.harq_rtt_ttis * config.tti_us,
                    max_retx=config.harq_max_retx,
                    ue_id=ue.index,
                )
                for ue in self.ues
            ]
        else:
            self._harq = None
        #: Optional flow-lifecycle tracer (attach via attach_flow_tracer()).
        self._flowtrace: FlowTracer | None = None
        qos_types = (PssScheduler, CqaScheduler, MlwdfScheduler, ExpPfScheduler)
        self._qos_oracle = config.qos_oracle or isinstance(
            getattr(scheduler, "legacy", scheduler), qos_types
        ) or isinstance(scheduler, qos_types)
        self.ttis_run = 0
        self.tbs_lost = 0
        #: Optional per-TTI scheduling trace (attach via enable_trace()).
        self.trace: SchedulingTrace | None = None
        self._tel = coerce_registry(telemetry)
        self._prof = coerce_profiler(profiler)
        self._sec_schedule = self._prof.section("schedule")
        self._sec_rlc = self._prof.section("rlc")
        self._sec_bookkeeping = self._prof.section("bookkeeping")
        # Decision-latency histogram only when telemetry is live (the two
        # perf_counter_ns stamps per TTI are skipped entirely otherwise).
        self._lat_hist = (
            self._tel.histogram("mac.tti.decision_latency_us")
            if self._tel.enabled
            else None
        )
        if self._tel.enabled and hasattr(scheduler, "collect_stats"):
            scheduler.collect_stats = True

    def enable_trace(self) -> SchedulingTrace:
        """Start recording per-TTI scheduling decisions."""
        if self.trace is None:
            self.trace = SchedulingTrace(
                len(self.ues), self.config.grid.num_rbs
            )
        return self.trace

    def attach_flow_tracer(self, tracer: FlowTracer) -> None:
        """Route MAC/HARQ flow-lifecycle events to ``tracer``."""
        self._flowtrace = tracer
        if self._harq is not None:
            for harq in self._harq:
                harq.tracer = tracer

    # -- channel ------------------------------------------------------------

    def refresh_rates(self) -> None:
        """Recompute the rate matrix after a CQI reporting instant."""
        self._rates = self.channel.rate_matrix_bits()
        if self.config.link_adaptation != "per_rb":
            self._cqi = self.channel.cqi_matrix()

    # -- ingress (packets arriving from the core network) ---------------------

    def ingress(self, ue_index: int, packet) -> None:
        """PDCP header inspection + RLC enqueue for a downlink packet."""
        ue = self.ues[ue_index]
        now = self.engine.now_us
        if self._flowtrace is not None:
            self._flowtrace.on_enb_ingress(packet, now)
        level, eager_sn = ue.pdcp.ingress(packet, now)
        sdu = ue.rlc.write_sdu(packet, level, now)
        self._wake.add(ue_index)
        # Drops are tallied from the RLC counters at harvest time.
        if sdu is not None and eager_sn is not None:
            sdu.pdcp_sn = eager_sn

    # -- the TTI loop ------------------------------------------------------------

    def request_control(self, apply: Callable[[], None]) -> None:
        """Queue a runtime parameter change for the next TTI boundary.

        Applying between TTIs (never mid-allocation) keeps the reference
        and vectorized backends byte-identical under runtime tuning: both
        see the new parameters for the first time at the same TTI.
        """
        self._pending_controls.append(apply)

    def invalidate_kernel_caches(self) -> None:
        """Re-mirror per-UE report state into the batched kernel arrays.

        Called after a runtime parameter change that can shift the per-UE
        MLFQ head levels.  Only the report-derived fields (activity, head
        level, SRJF remaining) are re-mirrored -- the EWMA/last-served
        arrays are the *source of truth* while batched and must not be
        overwritten from the stale per-UE objects.
        """
        arrays = self._arrays
        if arrays is None:
            return
        for state in self._sched_states:
            if state.active:
                arrays.set_report(state.index, state.bsr.head_level)
                arrays.set_remaining(state.index, state.remaining_flow_bytes)
            else:
                arrays.clear_report(state.index)

    def on_tti(self) -> None:
        """One scheduling interval."""
        if self._pending_controls:
            controls, self._pending_controls = self._pending_controls, []
            for apply in controls:
                apply()
            self._wake.update(range(len(self.ues)))
        now = self.engine.now_us
        self.ttis_run += 1
        arrays = self._arrays
        backlogged: list[int] = []
        for ue_index in sorted(self._wake):
            ue = self.ues[ue_index]
            harq_bytes = (
                self._harq[ue_index].pending_bytes if self._harq is not None else 0
            )
            if ue.has_backlog() or harq_bytes:
                bsr = ue.rlc.buffer_status(now)
                if harq_bytes:
                    # HARQ retransmissions outrank new data: advertise them
                    # like RLC retx backlog at the top priority.
                    bsr = BufferStatusReport(
                        ue_id=bsr.ue_id,
                        total_bytes=bsr.total_bytes,
                        head_level=0,
                        level_bytes=bsr.level_bytes,
                        hol_delay_us=bsr.hol_delay_us,
                        retx_bytes=bsr.retx_bytes + harq_bytes,
                        ctrl_bytes=bsr.ctrl_bytes,
                    )
                ue.sched.bsr = bsr
                backlogged.append(ue.index)
                if arrays is not None:
                    arrays.set_report(ue.index, bsr.head_level)
                if self._flowtrace is not None and ue.sched.backlog_since_us is None:
                    ue.sched.backlog_since_us = now
                if self._needs_oracle:
                    ue.refresh_oracle(now, self._qos_oracle)
                    if arrays is not None:
                        arrays.set_remaining(ue.index, ue.sched.remaining_flow_bytes)
            elif ue.sched.bsr.has_data:
                ue.sched.bsr = self._empty_reports[ue.index]
                ue.sched.backlog_since_us = None
                if arrays is not None:
                    arrays.clear_report(ue.index)
        # Only a UE backlogged now can be granted (and so gain HARQ or AM
        # poll-timer retx bytes); any other change arrives through
        # ingress() or _deliver_status(), which wake the UE.
        self._wake = set(backlogged)
        served_bits = np.zeros(len(self.ues))
        owner = None
        grant_bits = np.zeros(len(self.ues))
        if backlogged:
            with self._sec_schedule:
                if self._lat_hist is not None:
                    t0 = perf_counter_ns()
                    owner = self._allocate(now)
                    self._lat_hist.observe((perf_counter_ns() - t0) / 1e3)
                else:
                    owner = self._allocate(now)
            valid = owner >= 0
            if valid.any():
                rb_idx = np.nonzero(valid)[0]
                owners = owner[rb_idx]
                if self.config.link_adaptation == "per_rb":
                    grant_bits = np.bincount(
                        owners,
                        weights=self._rates[owners, rb_idx],
                        minlength=len(self.ues),
                    ).astype(float)
                    if grant_bits.shape[0] < len(self.ues):
                        grant_bits = np.pad(
                            grant_bits, (0, len(self.ues) - grant_bits.shape[0])
                        )
                else:
                    table = self.channel.cqi_table
                    re_per_rb = self.config.grid.data_re_per_rb()
                    for ue_index in np.unique(owners):
                        owned = rb_idx[owners == ue_index]
                        grant_bits[ue_index] = transport_block_bits(
                            self.config.link_adaptation,
                            self._rates[ue_index],
                            self._cqi[ue_index],
                            owned,
                            table,
                            re_per_rb,
                        )
                with self._sec_rlc:
                    for ue_index in np.nonzero(grant_bits)[0]:
                        if self._flowtrace is not None:
                            sched = self._sched_states[ue_index]
                            since = sched.backlog_since_us
                            self._flowtrace.on_mac_grant(
                                int(ue_index),
                                int(grant_bits[ue_index]),
                                now - since if since is not None else 0,
                                now,
                            )
                            sched.backlog_since_us = now
                        self._serve_ue(
                            self.ues[ue_index],
                            int(grant_bits[ue_index]) // 8,
                            served_bits,
                        )
        with self._sec_bookkeeping:
            self._record_tti(now, owner, grant_bits, served_bits, backlogged)

    def _allocate(self, now: int) -> np.ndarray:
        """Dispatch one TTI's RB allocation to the configured backend."""
        if self._batched:
            return self.scheduler.allocate_batched(
                self._rates, self._arrays, now, self._work
            )
        return self.scheduler.allocate(self._rates, self._sched_states, now)

    def finalize(self) -> None:
        """End-of-run hook: fold batched state back into the UE objects."""
        if self._arrays is not None:
            self._arrays.sync_to(self._sched_states)

    def _record_tti(
        self,
        now: int,
        owner: Optional[np.ndarray],
        grant_bits: np.ndarray,
        served_bits: np.ndarray,
        backlogged: list[int],
    ) -> None:
        """Post-allocation accounting: trace, metrics, scheduler EWMA."""
        if self.trace is not None:
            self.trace.record(
                now,
                owner if owner is not None
                else np.full(self.config.grid.num_rbs, -1, dtype=np.int64),
                grant_bits.astype(np.int64),
                np.array([ue.rlc.buffered_bytes for ue in self.ues]),
                np.array(
                    [
                        -1 if ue.sched.bsr.head_level is None else ue.sched.bsr.head_level
                        for ue in self.ues
                    ],
                    dtype=np.int8,
                ),
            )
        self.metrics.on_tti(now, served_bits, backlogged)
        if self._batched:
            self.scheduler.on_tti_end_batched(
                self._arrays, served_bits, self.config.tti_us
            )
            self._arrays.last_served_us[served_bits != 0] = now
        else:
            self.scheduler.on_tti_end(
                self._sched_states, served_bits, self.config.tti_us
            )
            for ue_index in np.nonzero(served_bits)[0]:
                self._sched_states[ue_index].last_served_us = now

    def _serve_ue(
        self, ue: UeContext, grant_bytes: int, served_bits: np.ndarray
    ) -> None:
        now = self.engine.now_us
        budget = grant_bytes
        sent_bits = 0
        # 1. HARQ retransmissions first: they outrank new data on the air.
        harq = self._harq[ue.index] if self._harq is not None else None
        if harq is not None and harq.has_pending:
            for process in harq.due_processes(now):
                if process.tb_bytes > budget:
                    break
                budget -= process.tb_bytes
                sent_bits += process.tb_bytes * 8
                if harq.attempt(process, now):
                    self.engine.schedule_in(
                        self.config.air_delay_us,
                        self._deliver_tb,
                        ue,
                        process.items,
                        False,
                    )
        # 2. New data within the leftover grant.
        if ue.is_am:
            items: list[Union[RlcPdu, AmStatus]] = ue.rlc.build_transmissions(
                budget, now
            )
        else:
            pdu = ue.rlc.build_pdu(budget, now)
            items = [pdu] if pdu is not None else []
        if items:
            tx_bytes = sum(item.wire_bytes for item in items)
            sent_bits += tx_bytes * 8
            lost = self.config.radio_bler > 0 and bool(
                self._rng.random() < self.config.radio_bler
            )
            if lost and harq is not None:
                harq.on_initial_failure(
                    items, tx_bytes, self.config.radio_bler, now
                )
            else:
                self.engine.schedule_in(
                    self.config.air_delay_us, self._deliver_tb, ue, items, lost
                )
        served_bits[ue.index] = sent_bits

    # -- the air interface -----------------------------------------------------------

    def _deliver_tb(
        self, ue: UeContext, items: list[Union[RlcPdu, AmStatus]], lost: bool
    ) -> None:
        if lost:
            self.tbs_lost += 1
            return  # UM: reassembly window cleans up; AM: status/poll recovers
        now = self.engine.now_us
        with self._sec_rlc:
            for item in items:
                if isinstance(item, RlcPdu):
                    status = ue.rlc_rx.receive_pdu(item, now)
                    if status is not None and ue.is_am:
                        self.engine.schedule_in(
                            self.config.ul_delay_us, self._deliver_status, ue, status
                        )
                # eNB->UE AmStatus control PDUs are absorbed by the UE.

    def _deliver_status(self, ue: UeContext, status: AmStatus) -> None:
        with self._sec_rlc:
            ue.rlc.receive_status(status, self.engine.now_us)
        self._wake.add(ue.index)

    # -- pickling (session checkpoints) --------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_wake"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._wake = set(range(len(self.ues)))

    # -- telemetry -------------------------------------------------------------

    def harvest_telemetry(self, reg=None) -> None:
        """Fold the MAC layer's lifetime counters into the registry.

        Called once, at the end of a run; counters accumulate when several
        cells share one registry (multi-cell runs, benchmark suites).
        Passing ``reg`` harvests into that registry instead of the
        attached one -- live mid-run scrapes use a throwaway registry so
        the end-of-run harvest still starts from zero.
        """
        if reg is None:
            reg = self._tel
        if not reg.enabled:
            return
        reg.counter("mac.ttis_run").inc(self.ttis_run)
        reg.counter("mac.tbs_lost").inc(self.tbs_lost)
        if self.backend_fallback_reason is not None:
            reg.counter("mac.backend.fallbacks").inc(1)
        if self._harq is not None:
            reg.counter("mac.harq.retransmissions").inc(
                sum(h.retransmissions for h in self._harq)
            )
            reg.counter("mac.harq.abandoned").inc(
                sum(h.abandoned for h in self._harq)
            )
            reg.gauge("mac.harq.pending_bytes").set(
                sum(h.pending_bytes for h in self._harq)
            )
        if getattr(self.scheduler, "collect_stats", False):
            reg.counter("mac.epsilon.rb_assignments").inc(
                self.scheduler.rb_assignments
            )
            reg.counter("mac.epsilon.rb_reselections").inc(
                self.scheduler.rb_reselections
            )
        if self.trace is not None:
            reg.gauge("mac.trace.ttis").set(len(self.trace))
            reg.gauge("mac.trace.memory_bytes").set(self.trace.memory_bytes())
