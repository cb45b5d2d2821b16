"""A minimal, fast discrete-event simulation engine.

Time is kept as integer **microseconds**.  All layers of the simulator (TTI
ticks, link propagation, TCP timers, RLC timers) schedule callbacks on a
single shared :class:`EventEngine`.  Integer time avoids floating-point
drift when the TTI is 125 us (5G numerology 3) and makes event ordering
deterministic.

Events scheduled for the same timestamp fire in FIFO order of scheduling,
which gives reproducible runs for a fixed RNG seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from repro.slots import CompactSlots

US_PER_SEC = 1_000_000
US_PER_MS = 1_000


def seconds(t_us: int) -> float:
    """Convert integer microseconds into float seconds."""
    return t_us / US_PER_SEC


def microseconds(t_s: float) -> int:
    """Convert float seconds into integer microseconds (rounded)."""
    return int(round(t_s * US_PER_SEC))


class Event(CompactSlots):
    """Handle for a scheduled callback; supports O(1) cancellation.

    The heap orders ``(time_us, seq, event)`` tuples, so the handle itself
    carries no timestamp and is never compared.
    """

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable[..., Any], args: tuple):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so that the engine skips it when popped."""
        self.cancelled = True

    def __setstate__(self, state) -> None:
        if len(state) == 2 and "time_us" in state[1]:
            # A checkpoint from when events carried their own heap key:
            # park it for EventEngine.__setstate__ to rebuild its heap.
            slots = dict(state[1])
            _LEGACY_KEYS[id(self)] = (slots.pop("time_us"), slots.pop("seq"))
            state = (None, slots)
        super().__setstate__(state)


class Timer(CompactSlots):
    """A re-armable one-shot timer (a TCP retransmission timer, say).

    Re-arming behaves exactly like cancelling the pending event and
    scheduling a new one: it consumes one sequence number, so same-time
    FIFO order and ``events_processed`` are unchanged.  But it touches
    the heap only when the new deadline is earlier than the entry
    already queued.  A later deadline reuses that entry: when it pops,
    the engine silently re-queues it at ``(deadline_us, seq)``, the key
    the rescheduled event would have had.
    """

    __slots__ = (
        "_engine", "fn", "args", "deadline_us", "seq", "_queued_us", "_queued_seq",
    )

    #: A disarmed timer is recognised by ``deadline_us is None`` when its
    #: entry pops; its entries are never tombstones.
    cancelled = False

    def __init__(self, engine: "EventEngine", fn: Callable[..., Any], *args: Any):
        self._engine = engine
        self.fn = fn
        self.args = args
        #: Absolute firing time; None while disarmed.
        self.deadline_us: Optional[int] = None
        #: Sequence number reserved by the last arm.
        self.seq = -1
        #: Key of the queued heap entry (``_queued_seq`` None: none queued).
        self._queued_us = 0
        self._queued_seq: Optional[int] = None

    def arm_at(self, time_us: int) -> None:
        """(Re-)arm to fire ``fn(*args)`` at absolute time ``time_us``."""
        engine = self._engine
        if time_us < engine.now_us:
            raise ValueError(
                f"cannot schedule into the past: {time_us} < now {engine.now_us}"
            )
        seq = next(engine._seq)
        self.deadline_us = time_us
        self.seq = seq
        if self._queued_seq is None or time_us < self._queued_us:
            # The entry queued for a later deadline (if any) is orphaned;
            # _due drops it when it pops.
            heapq.heappush(engine._queue, (time_us, seq, self))
            self._queued_us = time_us
            self._queued_seq = seq

    def arm_in(self, delay_us: int) -> None:
        """(Re-)arm to fire ``delay_us`` microseconds from now."""
        if delay_us < 0:
            raise ValueError(f"negative delay: {delay_us}")
        self.arm_at(self._engine.now_us + delay_us)

    def cancel(self) -> None:
        """Disarm; the queued entry is dropped when it pops."""
        self.deadline_us = None

    def _due(self, seq: int) -> bool:
        """Whether the popped entry ``seq`` fires; re-queues a stale one."""
        if seq != self._queued_seq:
            return False  # orphaned by an earlier re-arm
        if self.deadline_us is None:
            self._queued_seq = None
            return False
        if seq == self.seq:
            self.deadline_us = self._queued_seq = None
            return True
        heapq.heappush(self._engine._queue, (self.deadline_us, self.seq, self))
        self._queued_us = self.deadline_us
        self._queued_seq = self.seq
        return False

    def _adopt(self, event: Event) -> None:
        """Take over a legacy event still being unpickled.

        ``EventEngine.__setstate__``, which knows the event's heap key,
        replaces the event's heap entry with this timer's.
        """
        _LEGACY_TIMERS[id(event)] = self


class EventEngine:
    """Binary-heap event loop with integer-microsecond timestamps.

    Heap entries are ``(time_us, seq, handle)`` tuples, compared in C: the
    unique ``seq`` breaks time ties in scheduling order, so the handle (an
    :class:`Event` or a :class:`Timer`) is never compared.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, Any]] = []
        self._seq = itertools.count()
        self.now_us: int = 0
        self._running = False
        self.events_processed: int = 0

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return seconds(self.now_us)

    def schedule_at(self, time_us: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time_us``.

        Scheduling into the past raises ``ValueError``: that is always a
        logic bug in a caller, and silently clamping it would reorder
        causally-dependent events.
        """
        if time_us < self.now_us:
            raise ValueError(
                f"cannot schedule into the past: {time_us} < now {self.now_us}"
            )
        event = Event(fn, args)
        heapq.heappush(self._queue, (time_us, next(self._seq), event))
        return event

    def schedule_in(self, delay_us: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay_us`` microseconds from now."""
        if delay_us < 0:
            raise ValueError(f"negative delay: {delay_us}")
        return self.schedule_at(self.now_us + delay_us, fn, *args)

    def run_until(self, end_us: int) -> None:
        """Process events in order until the clock reaches ``end_us``.

        The clock is left exactly at ``end_us`` even when the queue drains
        early, so back-to-back ``run_until`` calls observe monotonic time.
        """
        self._dispatch(end_us)
        if self.now_us < end_us:
            self.now_us = end_us

    def run(self) -> None:
        """Process every pending event (including ones newly scheduled)."""
        self._dispatch(math.inf)

    def _dispatch(self, end_us: float) -> None:
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        timer_cls = Timer
        while queue and self._running:
            if queue[0][0] > end_us:
                break
            time_us, seq, event = heappop(queue)
            if event.cancelled:
                continue
            if event.__class__ is timer_cls and not event._due(seq):
                continue
            self.now_us = time_us
            self.events_processed += 1
            event.fn(*event.args)
        self._running = False

    def stop(self) -> None:
        """Stop the loop after the currently executing event returns."""
        self._running = False

    def pending(self) -> int:
        """Number of heap entries, including cancelled-event tombstones
        and timer entries that will not fire (disarmed, orphaned by an
        earlier re-arm, or due to be re-queued later)."""
        return len(self._queue)

    def stats(self) -> dict:
        """Telemetry-harvest view of the loop's lifetime counters."""
        return {
            "events_processed": self.events_processed,
            "queue_depth": len(self._queue),
            "now_us": self.now_us,
        }

    def __setstate__(self, state: dict) -> None:
        queue = state["_queue"]
        if queue and isinstance(queue[0], Event):
            # A checkpoint from before tuple heap entries.  Every queued
            # event (parking its key in _LEGACY_KEYS) and every flow
            # holding one as its RTO event (Timer._adopt) is restored by
            # now: a session's simulation pickles its engine before
            # anything else that holds an event.  Same keys keep the list
            # a valid heap.
            entries = []
            for event in queue:
                time_us, seq = _LEGACY_KEYS.pop(id(event))
                timer = _LEGACY_TIMERS.pop(id(event), None)
                if timer is not None and not event.cancelled:
                    timer.deadline_us = timer._queued_us = time_us
                    timer.seq = timer._queued_seq = seq
                    event = timer
                entries.append((time_us, seq, event))
            state["_queue"] = entries
        self.__dict__.update(state)


#: Unpickling a legacy checkpoint: heap keys of its events, and timers
#: taking over some of them, by ``id()`` of the event.
#: ``EventEngine.__setstate__`` empties both.
_LEGACY_KEYS: dict[int, tuple[int, int]] = {}
_LEGACY_TIMERS: dict[int, Timer] = {}


class PeriodicTask:
    """Re-schedules a callback every ``period_us`` until cancelled.

    The callback fires first at ``start_us`` (default: one period from the
    moment the task is created).
    """

    def __init__(
        self,
        engine: EventEngine,
        period_us: int,
        fn: Callable[..., Any],
        *args: Any,
        start_us: Optional[int] = None,
    ) -> None:
        if period_us <= 0:
            raise ValueError(f"period must be positive: {period_us}")
        self._engine = engine
        self._period_us = period_us
        self._fn = fn
        self._args = args
        self._stopped = False
        first = engine.now_us + period_us if start_us is None else start_us
        self._event = engine.schedule_at(first, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._fn(*self._args)
        if not self._stopped:
            self._event = self._engine.schedule_in(self._period_us, self._tick)

    def stop(self) -> None:
        """Stop firing; a pending occurrence is cancelled."""
        self._stopped = True
        self._event.cancel()
