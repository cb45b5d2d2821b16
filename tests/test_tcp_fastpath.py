"""Differential tests for the constant-time TCP and event-engine paths.

The sender's hole repair, the receiver's SACK blocks and the sender's RTT
sampling keep their state incrementally; the engine re-arms a timer
without a cancel-and-reschedule.  Each is checked here against the plain
implementation it replaced, kept below as a reference oracle: over random
loss, reordering, ACK loss, blackouts (RTOs) and path-delay jumps (SRTT
jumps), both must produce the same transmissions in the same order, the
same SACK payloads and the same RTT samples; the engine must dispatch in
the same order with the same ``events_processed``.
"""

import pickle

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.net.packet import DEFAULT_MSS, FiveTuple, Packet
from repro.net.tcp import MAX_RTO_US, TcpFlow, TcpReceiver
from repro.sim.config import SimConfig
from repro.sim.cell import CellSimulation
from repro.sim.engine import EventEngine, Timer
from repro.sim.session import SimulationSession, result_fingerprint

FT = FiveTuple(2, 3, 443, 6543)


# -- reference oracles --------------------------------------------------------


def oracle_sack_blocks(out_of_order, limit=4):
    """Sort-and-merge of the whole out-of-order map on every call."""
    if not out_of_order:
        return ()
    merged = []
    for start, end in sorted(out_of_order.items()):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return tuple((s, e) for s, e in merged[:limit])


class OracleFlow(TcpFlow):
    """TcpFlow with the walk-every-segment repair and the scan RTT sampler."""

    def _retransmit_holes(self, budget=3):
        if self.recovery_point is None:
            return
        now = self.engine.now_us
        retry_after = int((self.srtt_us or 50_000) * 1.5)
        limit = min(self.recovery_point, self.size_bytes)
        sent = 0
        cursor = self.snd_una
        intervals = self._sacked + [[limit, limit]]
        for start, end in intervals:
            if sent >= budget or cursor >= limit:
                break
            gap_end = min(start, limit)
            seq = cursor
            while seq < gap_end and sent < budget:
                length = min(self.mss, self.size_bytes - seq)
                if length <= 0:
                    break
                last = self._retx_time.get(seq)
                if last is None or now - last > retry_after:
                    self._transmit(seq, length, is_retx=True)
                    self._retx_time[seq] = now
                    sent += 1
                seq += self.mss
            cursor = max(cursor, end)

    def _sample_rtt(self, ack_seq, now_us):
        sampled = [(seq, t) for seq, t in self._send_times.items() if seq < ack_seq]
        if not sampled:
            return
        seq, sent = max(sampled, key=lambda item: item[0])
        for key, _ in sampled:
            del self._send_times[key]
        rtt = now_us - sent
        if self.srtt_us is None:
            self.srtt_us = float(rtt)
            self.rttvar_us = rtt / 2.0
        else:
            self.rttvar_us = 0.75 * self.rttvar_us + 0.25 * abs(self.srtt_us - rtt)
            self.srtt_us = 0.875 * self.srtt_us + 0.125 * rtt
        self.rto_us = int(
            min(max(self.srtt_us + 4 * self.rttvar_us, self.min_rto_us), MAX_RTO_US)
        )
        self.cc.on_rtt_sample(rtt, now_us)


class OracleReceiver(TcpReceiver):
    def sack_blocks(self, limit=4):
        return oracle_sack_blocks(self._out_of_order, limit)


# -- a randomly hostile path ------------------------------------------------


def run_path(flow_cls, rx_cls, size, seed, loss, ack_loss, jitter_us,
             blackout, jump_at_us, jump_us):
    """Drive one flow over a path drawn from ``seed``; return its trace.

    Every random draw happens per packet in a fixed order, so two
    implementations that transmit identically see identical paths.
    """
    engine = EventEngine()
    rng = np.random.default_rng(seed)
    log = {"tx": [], "sack": [], "rtt": [], "blocks_ok": True}

    def one_way():
        base = 5_000 if engine.now_us < jump_at_us else 5_000 + jump_us
        return base + int(rng.integers(0, jitter_us + 1))

    def blacked_out():
        return blackout[0] <= engine.now_us < blackout[1]

    def route_data(packet):
        log["tx"].append((engine.now_us, packet.seq, packet.payload_bytes, packet.is_retx))
        delay = one_way()
        if rng.random() < loss or blacked_out():
            return
        engine.schedule_in(delay, deliver, packet)

    def deliver(packet):
        rx.on_data(packet, engine.now_us)
        # The incremental blocks must equal a full sort-merge at all times.
        if rx._blocks != [list(b) for b in oracle_sack_blocks(rx._out_of_order, 1 << 30)]:
            log["blocks_ok"] = False

    def route_ack(ack):
        log["sack"].append((engine.now_us, ack.ack_seq, ack.sack_blocks))
        delay = one_way()
        if rng.random() < ack_loss or blacked_out():
            return
        engine.schedule_in(delay, tx.on_ack, ack.ack_seq, ack.sack_blocks)

    rx = rx_cls(0, FT, size, send_ack=route_ack)
    tx = flow_cls(engine, 0, FT, size, route_data=route_data, initial_cwnd_segments=10)
    sample = tx.cc.on_rtt_sample

    def on_rtt_sample(rtt, now_us):
        log["rtt"].append((now_us, rtt))
        sample(rtt, now_us)

    tx.cc.on_rtt_sample = on_rtt_sample
    tx.start()
    engine.run_until(120_000_000)
    log["done"] = tx.done
    log["rtos"] = tx.rto_firings
    log["events"] = engine.events_processed
    return log


path_params = dict(
    size_segments=st.integers(1, 400),
    seed=st.integers(0, 100_000),
    loss=st.sampled_from([0.0, 0.02, 0.1, 0.25, 0.4]),
    ack_loss=st.sampled_from([0.0, 0.05, 0.3]),
    jitter_us=st.sampled_from([0, 2_000, 20_000]),
    blackout_start_ms=st.integers(0, 400),
    blackout_ms=st.sampled_from([0, 150, 900, 3_000]),
    jump_at_ms=st.integers(0, 500),
    jump_us=st.sampled_from([0, 60_000, 300_000]),
)


@settings(max_examples=60, deadline=None)
@given(**path_params)
def test_fast_paths_match_oracles(size_segments, seed, loss, ack_loss, jitter_us,
                                  blackout_start_ms, blackout_ms, jump_at_ms, jump_us):
    blackout = (blackout_start_ms * 1000, (blackout_start_ms + blackout_ms) * 1000)
    args = (size_segments * DEFAULT_MSS - (seed % DEFAULT_MSS), seed, loss,
            ack_loss, jitter_us, blackout, jump_at_ms * 1000, jump_us)
    fast = run_path(TcpFlow, TcpReceiver, *args)
    ref = run_path(OracleFlow, OracleReceiver, *args)
    assert fast["blocks_ok"]
    assert fast["tx"] == ref["tx"]
    assert fast["sack"] == ref["sack"]
    assert fast["rtt"] == ref["rtt"]
    assert fast["events"] == ref["events"]
    assert fast["done"] == ref["done"]
    assert fast["rtos"] == ref["rtos"]


def drive_sender(flow_cls, size, ops):
    """Feed a sender a scripted ACK stream; return what it transmitted.

    Ops: ("ack", advance, sack_from, sack_len) cum-ACKs ``advance``
    segments (0: a dupack) with one SACK block ``sack_from`` segments
    above the new snd_una; ("srtt", us) jumps the smoothed RTT;
    ("wait", us) advances the clock, firing a due RTO.
    """
    engine = EventEngine()
    sent = []

    def route_data(packet):
        sent.append((engine.now_us, packet.seq, packet.payload_bytes, packet.is_retx))

    flow = flow_cls(engine, 0, FT, size, route_data=route_data, initial_cwnd_segments=40)
    flow.start()
    mss = DEFAULT_MSS
    for op in ops:
        if flow.done:
            break
        if op[0] == "ack":
            _, advance, sack_from, sack_len = op
            ack = min(flow.snd_una + advance * mss, flow.max_sent)
            start = min(ack + sack_from * mss, flow.max_sent)
            end = min(start + sack_len * mss, flow.max_sent)
            flow.on_ack(ack, ((start, end),) if end > start > ack else ())
        elif op[0] == "srtt":
            flow.srtt_us = float(op[1])
        else:
            engine.run_until(engine.now_us + op[1])
    return sent, sorted(flow._retx_time.items())


sender_op = st.one_of(
    st.tuples(st.just("ack"), st.sampled_from([0, 0, 0, 1, 2]),
              st.integers(1, 30), st.integers(1, 6)),
    st.tuples(st.just("srtt"), st.sampled_from([5_000, 20_000, 80_000, 400_000])),
    st.tuples(st.just("wait"), st.sampled_from([1_000, 10_000, 40_000, 130_000])),
)


@settings(max_examples=500, deadline=None)
@given(size_segments=st.integers(1, 80), tail=st.integers(0, DEFAULT_MSS - 1),
       ops=st.lists(sender_op, max_size=80))
# Holes due for a retry but left over by the budget must be re-checked
# when used: here the SRTT jump makes the last three wait again.
@example(size_segments=60, tail=0, ops=[("ack", 0, 5, 2)] * 4 + [
    ("wait", 130_000), ("ack", 0, 5, 2), ("srtt", 400_000), ("ack", 0, 5, 2)])
def test_hole_repair_matches_oracle_under_scripted_acks(size_segments, tail, ops):
    size = size_segments * DEFAULT_MSS - tail
    assert drive_sender(TcpFlow, size, ops) == drive_sender(OracleFlow, size, ops)


def sender_in_recovery(flow_cls, size, sacked_mask, tried, lasts):
    """A sender mid-recovery, as a checkpoint would restore it.

    Segment i is SACKed when ``sacked_mask[i]``; every hole below
    segment ``tried`` (and every other SACKed one) was repaired at
    ``lasts[i]``.
    """
    engine = EventEngine()
    sent = []
    flow = flow_cls(engine, 0, FT, size, route_data=sent.append)
    mss = DEFAULT_MSS
    segments = -(-size // mss)
    flow.snd_nxt = flow.max_sent = flow.recovery_point = size
    for i in range(segments):
        if sacked_mask[i]:
            end = min((i + 1) * mss, size)
            if flow._sacked and flow._sacked[-1][1] == i * mss:
                flow._sacked[-1][1] = end
            else:
                flow._sacked.append([i * mss, end])
        if i < tried and (not sacked_mask[i] or lasts[i] % 2):
            flow._retx_time[i * mss] = lasts[i]
    flow._rebuild_retry()
    engine.run_until(max(lasts))
    return flow, sent


@settings(max_examples=300, deadline=None)
@given(
    segments=st.integers(1, 40),
    tail=st.integers(0, DEFAULT_MSS - 1),
    sacked_mask=st.lists(st.booleans(), min_size=40, max_size=40),
    tried=st.integers(0, 40),
    lasts=st.lists(st.integers(0, 300_000), min_size=40, max_size=40),
    calls=st.lists(
        st.tuples(st.integers(0, 150_000),
                  st.sampled_from([None, 5_000.0, 30_000.0, 100_000.0, 250_000.0])),
        min_size=1, max_size=12,
    ),
)
def test_hole_repair_matches_oracle_from_any_retry_state(
    segments, tail, sacked_mask, tried, lasts, calls
):
    """Any restored retry state, then repairs under SRTT moving both ways."""
    size = segments * DEFAULT_MSS - tail
    fast, fast_sent = sender_in_recovery(TcpFlow, size, sacked_mask, tried, lasts)
    ref, ref_sent = sender_in_recovery(OracleFlow, size, sacked_mask, tried, lasts)
    for advance, srtt in calls:
        for flow in (fast, ref):
            flow.engine.run_until(flow.engine.now_us + advance)
            flow.srtt_us = srtt
            flow._retransmit_holes()
        assert [(p.seq, p.payload_bytes) for p in fast_sent] == [
            (p.seq, p.payload_bytes) for p in ref_sent
        ]
    assert fast._retx_time == ref._retx_time


def test_oracle_comparison_exercises_retries_and_rtos():
    """The hostile path really drives repeated hole repair and RTOs."""
    log = run_path(TcpFlow, TcpReceiver, 300 * DEFAULT_MSS, 11, 0.1, 0.05,
                   2_000, (100_000, 1_000_000), 200_000, 300_000)
    retx = [seq for _, seq, _, is_retx in log["tx"] if is_retx]
    assert len(retx) > len(set(retx)) > 20  # some holes repaired twice
    assert log["rtos"] > 0
    assert log["done"]


def test_receiver_blocks_survive_pickling():
    rx = TcpReceiver(0, FT, 100 * DEFAULT_MSS, send_ack=list().append)
    for seq in (5, 7, 6, 9, 20):
        rx.on_data(Packet(FT, 0, seq * DEFAULT_MSS, DEFAULT_MSS), 0)
    assert "_blocks" not in rx.__getstate__()
    clone = pickle.loads(pickle.dumps(rx))
    assert clone._blocks == rx._blocks == [[5 * DEFAULT_MSS, 8 * DEFAULT_MSS],
                                           [9 * DEFAULT_MSS, 10 * DEFAULT_MSS],
                                           [20 * DEFAULT_MSS, 21 * DEFAULT_MSS]]


# -- engine: re-armable timer == cancel + schedule_at ------------------------


class RefTimer:
    """A timer re-armed by cancelling and rescheduling an event."""

    def __init__(self, engine, fn, *args):
        self.engine, self.fn, self.args, self.event = engine, fn, args, None

    def arm_in(self, delay_us):
        self.cancel()
        self.event = self.engine.schedule_in(delay_us, self._fire)

    def cancel(self):
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def _fire(self):
        self.event = None
        self.fn(*self.args)


op = st.tuples(
    st.sampled_from(["event", "arm", "arm", "cancel", "rearm_on_fire"]),
    st.integers(0, 3),  # which timer
    st.sampled_from([0, 0, 1, 5, 10, 50, 200]),  # delay
)


def run_engine_script(make_timer, batches):
    """Controller events at fixed times apply batches of random operations.

    Timers log their firings and re-arm themselves when a batch asked
    them to; plain events log theirs.  Returns (dispatch log, events).
    """
    engine = EventEngine()
    log = []
    rearm = {}

    def fire(k):
        log.append((engine.now_us, "timer", k))
        delay = rearm.pop(k, None)
        if delay is not None:
            timers[k].arm_in(delay)

    timers = [make_timer(engine, fire, k) for k in range(4)]

    def controller(i, ops):
        log.append((engine.now_us, "ctl", i))
        for j, (kind, k, delay) in enumerate(ops):
            if kind == "event":
                engine.schedule_in(delay, log.append, (engine.now_us + delay, "event", i, j))
            elif kind == "arm":
                timers[k].arm_in(delay)
            elif kind == "cancel":
                timers[k].cancel()
            else:
                rearm[k] = delay

    for i, ops in enumerate(batches):
        engine.schedule_at(i * 20, controller, i, ops)
    # Split the run so run_until's boundary handling is exercised too.
    engine.run_until(len(batches) * 10)
    engine.run()
    return log, engine.events_processed


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(op, max_size=8), min_size=1, max_size=25))
def test_timer_dispatches_like_cancel_and_reschedule(batches):
    fast = run_engine_script(Timer, batches)
    ref = run_engine_script(RefTimer, batches)
    assert fast == ref


def test_timer_rearm_later_keeps_one_heap_entry():
    engine = EventEngine()
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now_us))
    for t in range(100):
        timer.arm_at(1_000 + t)
    assert engine.pending() == 1
    engine.run()
    assert fired == [1_099]
    assert engine.events_processed == 1
    assert timer.deadline_us is None


def test_timer_survives_pickling_mid_flight():
    engine = EventEngine()
    fired = []
    timer = Timer(engine, fired.append, "rto")
    timer.arm_at(50)
    engine.run_until(10)
    timer.arm_at(80)  # later: reuses the entry queued for t=50
    clone = pickle.loads(pickle.dumps(engine))
    clone.run()
    assert clone.now_us == 80
    assert clone.events_processed == 1


# -- checkpoint in the middle of a loss recovery ------------------------------


def lossy_sim():
    cfg = SimConfig.lte_default(
        num_ues=4, load=2.0, seed=3, rlc_mode="um", radio_bler=0.1,
        rlc_capacity_sdus=32,
    )
    return CellSimulation(cfg, scheduler="outran")


def test_mid_recovery_checkpoint_resumes_identically(tmp_path):
    duration_s = 0.6
    reference = result_fingerprint(lossy_sim().run(duration_s))

    session = SimulationSession(lossy_sim(), duration_s).start()
    for _ in range(2_000):
        session.step(n_ttis=1)
        senders = [rt.sender for rt in session.sim._runtimes.values()]
        if any(
            s.recovery_point is not None
            and s._retx_time
            and s._rto_timer.deadline_us is not None
            for s in senders
        ):
            break
    else:
        raise AssertionError("no flow was mid-recovery")
    for sender in senders:
        state = sender.__getstate__()
        assert not {"_retry_heap", "_due_heap", "_frontier"} & set(state)
    path = tmp_path / "mid.ckpt"
    session.checkpoint(path)
    resumed = SimulationSession.resume(path)
    assert result_fingerprint(resumed.finish()) == reference
