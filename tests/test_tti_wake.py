"""Wake-set TTI loop: the eNB rescans only UEs whose backlog can have changed.

``XNodeB.on_tti`` refreshes buffer status reports for the UEs in
``XNodeB._wake`` only.  Every UE outside the set has no RLC backlog, no
HARQ bytes and an empty report, so the full scan would leave it alone.
Three layers of checks:

* differential: the full scan (every UE woken before each TTI) is the
  oracle; the wake-set run must reproduce its result fingerprint across
  RLC mode x HARQ x BLER x backend, through RIC controls, priority
  resets and a mid-run checkpoint -> resume,
* the invariant itself, asserted before and after every TTI, together
  with the incremental ``AmTransmitter.retx_bytes`` and
  ``HarqEntity.pending_bytes`` counters against their defining sums,
* hypothesis properties driving the two counters through random
  NACK/ACK/poll-expiry/abandon and failure/attempt sequences.
"""

import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimConfig
from repro.core.mlfq import DEFAULT_THRESHOLDS
from repro.mac.harq import HarqEntity
from repro.net.packet import FiveTuple, Packet
from repro.rlc import am as am_module
from repro.rlc.am import AmStatus, AmTransmitter
from repro.rlc.pdu import RlcPdu
from repro.sim.enb import XNodeB
from repro.sim.session import SimulationSession, result_fingerprint

FT = FiveTuple(1, 2, 443, 2000)
_ON_TTI = XNodeB.on_tti


# -- oracles -----------------------------------------------------------------


def retx_sum(tx: AmTransmitter) -> int:
    """The Retx Q backlog as buffer_status() used to recompute it."""
    return sum(
        tx._unacked[sn].wire_bytes for sn in tx._retx_queue if sn in tx._unacked
    )


def harq_sum(entity: HarqEntity) -> int:
    return sum(p.tb_bytes for p in entity._pending)


def assert_counters(enb: XNodeB) -> None:
    for ue in enb.ues:
        if ue.is_am:
            assert ue.rlc.retx_bytes == retx_sum(ue.rlc)
    for entity in enb._harq or ():
        assert entity.pending_bytes == harq_sum(entity)


def assert_wake_invariant(enb: XNodeB) -> int:
    """Every UE outside the wake set is idle; returns how many were skipped."""
    skipped = 0
    for ue in enb.ues:
        if ue.index in enb._wake:
            continue
        skipped += 1
        assert not ue.has_backlog(), ue.index
        assert enb._harq is None or enb._harq[ue.index].pending_bytes == 0
        assert not ue.sched.bsr.has_data, ue.index
    return skipped


# ``functools.wraps`` keeps the name ``on_tti``: the TTI task holds a bound
# method, which a checkpoint pickles by name.


@functools.wraps(_ON_TTI)
def full_scan_on_tti(self):
    self._wake = set(range(len(self.ues)))
    _ON_TTI(self)


def checked_on_tti(skipped: list):
    """``on_tti`` asserting the invariant and counters around each TTI."""

    @functools.wraps(_ON_TTI)
    def on_tti(self):
        assert_counters(self)
        skipped.append(assert_wake_invariant(self))
        _ON_TTI(self)
        assert_counters(self)
        assert_wake_invariant(self)

    return on_tti


# -- differential: wake set vs full scan ---------------------------------------


def drive(tmp_path, scheduler="outran", **overrides) -> str:
    """A short session with a RIC control, priority resets and a resume."""
    cfg_kwargs = dict(
        num_ues=6, load=0.4, seed=13, priority_reset_period_us=60_000
    )
    cfg_kwargs.update(overrides)
    cfg = SimConfig.lte_default(**cfg_kwargs)
    session = SimulationSession.from_config(
        cfg, scheduler, duration_s=0.5, drain_s=0.4
    ).start()
    session.step(n_ttis=150)
    if session.sim.uses_mlfq:
        session.reconfigure(thresholds=[t // 2 for t in DEFAULT_THRESHOLDS])
    else:
        session.reconfigure(boost_period_us=80_000)
    session.step(n_ttis=150)
    ckpt = tmp_path / "mid.ckpt"
    session.checkpoint(ckpt)
    resumed = SimulationSession.resume(ckpt)
    assert resumed.sim.enb._wake == set(range(cfg.num_ues))
    return result_fingerprint(resumed.finish())


def assert_matches_full_scan(monkeypatch, tmp_path, scheduler="outran", **overrides):
    with monkeypatch.context() as patch:
        patch.setattr(XNodeB, "on_tti", full_scan_on_tti)
        oracle = drive(tmp_path, scheduler, **overrides)
    skipped: list = []
    with monkeypatch.context() as patch:
        patch.setattr(XNodeB, "on_tti", checked_on_tti(skipped))
        wake = drive(tmp_path, scheduler, **overrides)
    assert wake == oracle
    # The comparison is vacuous unless the wake set actually skipped UEs.
    assert sum(skipped) > 0


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("radio_bler", [0.0, 0.1])
@pytest.mark.parametrize("harq_enabled", [True, False])
@pytest.mark.parametrize("rlc_mode", ["um", "am", "tm"])
def test_wake_set_matches_full_scan(
    monkeypatch, tmp_path, rlc_mode, harq_enabled, radio_bler, backend
):
    assert_matches_full_scan(
        monkeypatch,
        tmp_path,
        rlc_mode=rlc_mode,
        harq_enabled=harq_enabled,
        radio_bler=radio_bler,
        backend=backend,
    )


@pytest.mark.parametrize(
    "scheduler, backend",
    [
        ("pf", "vectorized"),
        ("srjf", "vectorized"),
        ("mlfq_strict", "vectorized"),
        ("pss", "reference"),  # no batched path
    ],
)
def test_wake_set_matches_full_scan_other_schedulers(
    monkeypatch, tmp_path, scheduler, backend
):
    """Oracle-reading (SRJF, PSS) and MLFQ-only schedulers, lossy AM."""
    assert_matches_full_scan(
        monkeypatch, tmp_path, scheduler, rlc_mode="am", radio_bler=0.1, backend=backend
    )


def test_wake_set_is_not_pickled(tmp_path):
    cfg = SimConfig.lte_default(num_ues=3, load=0.5, seed=2, rlc_mode="am", radio_bler=0.1)
    session = SimulationSession.from_config(cfg, duration_s=0.3, drain_s=0.1).start()
    session.step(n_ttis=100)
    enb = session.sim.enb
    assert "_wake" not in enb.__getstate__()
    for ue in session.sim.ues:
        assert "retx_bytes" not in ue.rlc.__getstate__()
    for entity in enb._harq:
        assert "pending_bytes" not in entity.__getstate__()
    session.checkpoint(tmp_path / "s.ckpt")
    resumed = SimulationSession.resume(tmp_path / "s.ckpt")
    assert resumed.sim.enb._wake == {0, 1, 2}
    assert_counters(resumed.sim.enb)
    session.finish()


# -- counter oracles -------------------------------------------------------------


def make_packet(payload):
    return Packet(FT, 0, seq=0, payload_bytes=payload)


def sent_sns(items):
    return [item.sn for item in items if isinstance(item, RlcPdu) and not item.is_retx]


#: One AmTransmitter operation: (kind, a, b) with small integer arguments.
AM_OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "grant", "nack", "ack", "status", "wait"]),
        st.integers(0, 40),
        st.integers(0, 2000),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=AM_OPS, max_retx=st.integers(0, 3))
def test_am_retx_bytes_equals_sum(ops, max_retx):
    """NACK enqueue, poll-timer retx, retx pop, abandon and ACK keep the sum."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(am_module, "MAX_RETX", max_retx)
        tx = AmTransmitter(0, poll_pdu=2, t_poll_retransmit_us=3_000)
        now = 0
        for kind, a, b in ops:
            if kind == "write":
                tx.write_sdu(make_packet(100 + b), 0, now)
            elif kind == "grant":
                tx.build_transmissions(a * 60, now)
            elif kind == "wait":
                now += 1_000 * (a + 1)
            else:
                sns = list(tx._unacked)
                if kind == "nack":
                    tx.receive_status(AmStatus(ack_sn=0, nacks=tuple(sns[a % 3 :: 2])), now)
                elif kind == "ack":
                    tx.receive_status(AmStatus(ack_sn=a), now)
                else:  # cumulative ACK with NACK holes below it
                    tx.receive_status(
                        AmStatus(ack_sn=a, nacks=tuple(s for s in sns if s < a and s % 2)),
                        now,
                    )
            assert tx.retx_bytes == retx_sum(tx)
            assert tx.buffer_status(now).retx_bytes == tx.retx_bytes
        restored = pickle.loads(pickle.dumps(tx))
        assert restored.retx_bytes == tx.retx_bytes


def test_am_retx_bytes_scripted_paths():
    """Each counter update, once: NACK, poll expiry, ACK of a queued SN, abandon."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(am_module, "MAX_RETX", 1)
        tx = AmTransmitter(0, poll_pdu=1, t_poll_retransmit_us=1_000)
        for i in range(3):
            tx.write_sdu(make_packet(500), 0, 0)
            assert sent_sns(tx.build_transmissions(520, 0)) == [i]
        wire = tx._unacked[0].wire_bytes
        tx.receive_status(AmStatus(ack_sn=0, nacks=(0, 1)), 0)  # NACK
        assert tx.retx_bytes == 2 * wire == retx_sum(tx)
        tx.receive_status(AmStatus(ack_sn=2, nacks=(0,)), 0)  # ACK of queued SN 1
        assert tx.retx_bytes == wire == retx_sum(tx)
        tx.build_transmissions(wire, 500)  # retx pop of SN 0
        assert tx.retx_bytes == 0 == retx_sum(tx)  # SN 1 stays queued, stale
        tx.write_sdu(make_packet(500), 0, 1_000)
        assert sent_sns(tx.build_transmissions(520, 1_000)) == [3]  # polls
        tx.build_transmissions(0, 2_500)  # poll expiry re-queues the oldest (SN 0)
        assert tx.spurious_retx == 1
        assert tx.retx_bytes == wire == retx_sum(tx)
        tx.build_transmissions(wire, 2_500)  # second retx > MAX_RETX: abandoned
        assert tx.pdus_abandoned == 1
        assert tx.retx_bytes == 0 == retx_sum(tx)


HARQ_OPS = st.lists(
    st.tuples(st.sampled_from(["fail", "attempt", "wait"]), st.integers(1, 3000)),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=HARQ_OPS, max_retx=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_harq_pending_bytes_equals_sum(ops, max_retx, seed):
    entity = HarqEntity(
        np.random.default_rng(seed), rtt_us=8_000, max_retx=max_retx, combining_gain=0.9
    )
    now = 0
    for kind, value in ops:
        if kind == "fail":
            entity.on_initial_failure(["tb"], value, 0.6, now)
        elif kind == "attempt":
            for process in entity.due_processes(now):
                entity.attempt(process, now)
        else:
            now += value * 4
        assert entity.pending_bytes == harq_sum(entity)
    restored = pickle.loads(pickle.dumps(entity))
    assert restored.pending_bytes == entity.pending_bytes
