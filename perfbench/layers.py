"""Layer timing from outside the program: wrap entry points, keep a span stack.

:class:`LayerTimer` replaces each layer's entry points (class methods
named in :data:`ENTRY_POINTS`) with a wrapper that counts the call and
records a span.  Spans nest on one stack, so a layer's *self* time is its
span time minus the time of the spans it called.  ``uninstall()`` puts
every original function back.

Entry points are the methods one layer calls on another and the
callbacks the event engine dispatches; calls inside one layer stay
unwrapped, so they add no overhead and their time lands in their layer's
self time.  Wrappers only call through: a run with the timer installed
must produce the same ``result_fingerprint`` as one without.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

STATS_LAYER = "stats"

_CC_HOOKS = (
    "on_ack",
    "on_ecn",
    "on_loss",
    "on_recovery_exit",
    "on_rto",
    "on_rtt_sample",
)

#: layer -> ((module, class, method names), ...).  Layer names follow the
#: module names; ``cell`` is the sim.cell glue (flow start, ACK routing,
#: SDU delivery), kept apart so the engine's self time is dispatch only.
ENTRY_POINTS = {
    "engine": (("repro.sim.engine", "EventEngine", ("run_until", "schedule_at")),),
    "cell": (
        (
            "repro.sim.cell",
            "CellSimulation",
            (
                "_start_flow",
                "_route_to_enb",
                "_route_ack",
                "_ack_arrive",
                "_on_flow_complete",
                "_on_sender_done",
                "_deliver_sdu",
                "_on_sdu_dequeued",
                "_on_cqi_update",
                "_on_priority_reset",
            ),
        ),
    ),
    "enb": (
        (
            "repro.sim.enb",
            "XNodeB",
            ("on_tti", "ingress", "_serve_ue", "_deliver_tb", "_deliver_status"),
        ),
    ),
    "tcp": (
        ("repro.net.tcp", "TcpFlow", ("__init__", "start", "on_ack", "_on_rto")),
        ("repro.net.tcp", "TcpReceiver", ("__init__", "on_data")),
    ),
    "cc": (
        ("repro.cc.base", "CongestionControl", ("on_rtt_sample",)),
        ("repro.cc.cubic", "CubicCC", _CC_HOOKS),
        ("repro.cc.dctcp", "DctcpCC", _CC_HOOKS),
        ("repro.cc.bbr", "BbrCC", _CC_HOOKS),
        ("repro.cc.aqm", "EcnMarker", ("should_mark",)),
    ),
    "pdcp": (
        ("repro.pdcp.entity", "PdcpEntity", ("ingress", "egress")),
        ("repro.pdcp.entity", "PdcpReceiver", ("receive",)),
    ),
    "core": (
        ("repro.core.flow_table", "FlowTable", ("observe", "reset_all", "expire_idle")),
        (
            "repro.core.mlfq",
            "MlfqQueue",
            (
                "push",
                "push_front",
                "push_promoted",
                "pop",
                "peek",
                "drop_tail",
                "boost_all",
            ),
        ),
        ("repro.core.outran", "OutranScheduler", ("allocate", "on_tti_end")),
    ),
    "rlc": (
        (
            "repro.rlc.um",
            "UmTransmitter",
            ("write_sdu", "build_pdu", "buffer_status", "boost_priorities"),
        ),
        ("repro.rlc.um", "UmReceiver", ("receive_pdu", "flush_expired")),
        (
            "repro.rlc.am",
            "AmTransmitter",
            (
                "write_sdu",
                "build_transmissions",
                "receive_status",
                "buffer_status",
                "boost_priorities",
                "queue_control",
            ),
        ),
        ("repro.rlc.am", "AmReceiver", ("receive_pdu",)),
        (
            "repro.rlc.tm",
            "TmTransmitter",
            ("write_sdu", "build_pdu", "buffer_status", "boost_priorities"),
        ),
        ("repro.rlc.tm", "TmReceiver", ("receive_pdu",)),
    ),
    "mac": (
        ("repro.mac.scheduler", "MetricScheduler", ("allocate", "on_tti_end")),
        ("repro.mac.pf", "ProportionalFairScheduler", ("metric_matrix",)),
        (
            "repro.mac.harq",
            "HarqEntity",
            ("on_initial_failure", "due_processes", "attempt"),
        ),
    ),
    "phy": (
        (
            "repro.phy.channel",
            "ChannelModel",
            ("update_all", "rate_matrix_bits", "cqi_matrix"),
        ),
    ),
    "flowtrace": (("repro.telemetry.flowtrace", "FlowTracer", "on_*"),),
    # The benchmark's own counting: OutRAN computes its RB-reselection
    # statistics (core.rb_reselect_pct) with one extra PF argmax per TTI
    # when ``collect_stats`` is on.  That time is not the program's, so it
    # is taken out of the loop instead of being charged to ``core``.
    STATS_LAYER: (("repro.core.outran", "argmax_allocation", None),),
}

#: Setup-time entry points: flow generation before the first TTI.
SETUP_ENTRY_POINTS = {
    "traffic": (
        ("repro.traffic.generator", "PoissonTrafficGenerator", ("generate",)),
        ("repro.traffic.generator", "IncastGenerator", ("generate",)),
        ("repro.traffic.workloads", "IncastFanInGenerator", ("generate",)),
    ),
}


class LayerTimer:
    """Per-layer call counts and self time, from wrapped entry points.

    ``calls``, ``self_ns`` and ``fn_calls`` only grow; read differences
    of :meth:`snapshot` copies to time one interval.
    """

    def __init__(self, entry_points: dict = ENTRY_POINTS) -> None:
        self.entry_points = entry_points
        self.layers = tuple(entry_points)
        self.calls = [0] * len(self.layers)
        self.self_ns = [0] * len(self.layers)
        #: "Class.method" -> index into ``fn_calls``.
        self.fn_index: dict[str, int] = {}
        self.fn_calls: list[int] = []
        #: Entry points named in ENTRY_POINTS that the program lacks (a
        #: rename shows here instead of failing the run).
        self.missing: list[str] = []
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "LayerTimer":
        if self._saved:
            raise RuntimeError("layer timer already installed")
        for layer_idx, layer in enumerate(self.layers):
            for module_name, owner_name, names in self.entry_points[layer]:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                owner = getattr(module, owner_name, None)
                if owner is None:
                    self.missing.append(f"{module_name}.{owner_name}")
                elif names is None:
                    # A module-level function, patched where its caller
                    # looks it up.
                    self._patch(module, owner_name, owner, layer_idx, owner_name)
                else:
                    self._wrap_class(owner, names, layer_idx)
        return self

    def uninstall(self) -> None:
        for target, name, original in reversed(self._saved):
            setattr(target, name, original)
        self._saved.clear()

    def _wrap_class(self, cls, names, layer_idx: int) -> None:
        if names == "on_*":
            names = tuple(n for n in vars(cls) if n.startswith("on_"))
        for name in names:
            fn = vars(cls).get(name)
            if fn is None:
                # Inherited here (the defining class is wrapped) or renamed.
                if not any(name in vars(base) for base in cls.__mro__[1:]):
                    self.missing.append(f"{cls.__name__}.{name}")
                continue
            if callable(fn) and not isinstance(fn, (staticmethod, classmethod, property)):
                self._patch(cls, name, fn, layer_idx, f"{cls.__name__}.{name}")

    def _patch(self, target, name: str, fn, layer_idx: int, label: str) -> None:
        self.fn_index[label] = len(self.fn_calls)
        self.fn_calls.append(0)
        self._saved.append((target, name, fn))
        setattr(target, name, self._span(fn, layer_idx, len(self.fn_calls) - 1))

    def _span(self, fn, layer_idx: int, fn_idx: int):
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        fn_calls = self.fn_calls
        clock = perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[layer_idx] += 1
            fn_calls[fn_idx] += 1
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_ns[layer_idx] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return span

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": list(self.calls),
            "self_ns": list(self.self_ns),
            "fn_calls": list(self.fn_calls),
        }

    def fn_calls_between(self, before: dict, after: dict, label: str) -> int:
        index = self.fn_index.get(label)
        if index is None:
            return 0
        return after["fn_calls"][index] - before["fn_calls"][index]

