"""Per-UE composition: PDCP + RLC + channel + scheduling state.

One :class:`UeContext` bundles everything the simulator keeps per user:
the downlink protocol entities at the xNodeB side (flow table, PDCP
entity, RLC transmitter), the UE-side receivers (RLC receiver, PDCP
receiver, per-flow TCP receivers), the channel state, and the MAC's
:class:`~repro.mac.scheduler.UeSchedState`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.cc.aqm import make_aqm
from repro.core.flow_table import FlowTable
from repro.core.mlfq import MlfqConfig
from repro.mac.scheduler import UeSchedState
from repro.pdcp.entity import PdcpEntity, PdcpReceiver
from repro.phy.channel import UeChannel
from repro.rlc.am import AmReceiver, AmTransmitter
from repro.rlc.pdu import RlcSdu
from repro.rlc.tm import TmReceiver, TmTransmitter
from repro.rlc.um import UmReceiver, UmTransmitter
from repro.sim.config import SimConfig

if TYPE_CHECKING:
    from repro.net.tcp import TcpFlow, TcpReceiver
    from repro.traffic.generator import FlowSpec

#: Idle five-tuples are treated as new flows after this long (section 4.2).
FLOW_IDLE_TIMEOUT_US = 10_000_000


class FlowRuntime:
    """Live endpoints of one flow."""

    __slots__ = ("spec", "sender", "receiver", "start_us", "completed")

    def __init__(self, spec: "FlowSpec", sender: "TcpFlow", receiver: "TcpReceiver"):
        self.spec = spec
        self.sender = sender
        self.receiver = receiver
        self.start_us = spec.start_us
        self.completed = False


class UeContext:
    """All per-UE state, xNodeB side and UE side."""

    def __init__(
        self,
        index: int,
        config: SimConfig,
        channel: UeChannel,
        use_mlfq: bool,
        deliver_sdu: Callable[["UeContext", RlcSdu, int], None],
        on_sdu_dropped: Callable[[RlcSdu], None],
        on_sdu_dequeued: Callable[[RlcSdu, int], None],
    ) -> None:
        self.index = index
        self.config = config
        self.channel = channel
        # Stored (not captured in closures) so a checkpoint can pickle the
        # whole UE graph: every callback handed to the RLC entities below is
        # a bound method of this object.
        self._deliver_cb = deliver_sdu
        mlfq_config = config.mlfq if use_mlfq else MlfqConfig.single_queue()
        self.flow_table = FlowTable(mlfq_config, idle_timeout_us=FLOW_IDLE_TIMEOUT_US)
        # TM never reorders and takes no numbering hook, so it always uses
        # eager (ingress-time) PDCP numbering.
        delayed_sn = config.delayed_sn and config.rlc_mode != "tm"
        self.pdcp = PdcpEntity(self.flow_table, delayed_sn=delayed_sn)
        self.pdcp_rx = PdcpReceiver(reorder_window=config.pdcp_reorder_window)

        overflow_policy = config.rlc_overflow_policy
        if overflow_policy is None:
            overflow_policy = "drop_lowest" if use_mlfq else "drop_incoming"
        rlc_kwargs = dict(
            mlfq_config=mlfq_config,
            capacity_sdus=config.rlc_capacity_sdus,
            overflow_policy=overflow_policy,
            promote_segments=config.promote_segments,
            on_sdu_dropped=on_sdu_dropped,
            on_sdu_dequeued=on_sdu_dequeued,
            on_sdu_first_tx=self._number_sdu if delayed_sn else None,
            aqm=make_aqm(config, index),
        )
        self.rlc: Union[UmTransmitter, AmTransmitter, TmTransmitter]
        self.rlc_rx: Union[UmReceiver, AmReceiver, TmReceiver]
        if config.rlc_mode == "tm":
            self.rlc = TmTransmitter(
                index,
                capacity_sdus=config.rlc_capacity_sdus,
                on_sdu_dropped=on_sdu_dropped,
            )
            self.rlc_rx = TmReceiver(deliver=self._deliver)
        elif config.rlc_mode == "am":
            self.rlc = AmTransmitter(index, **rlc_kwargs)
            self.rlc_rx = AmReceiver(deliver=self._deliver)
        else:
            self.rlc = UmTransmitter(index, **rlc_kwargs)
            self.rlc_rx = UmReceiver(
                deliver=self._deliver,
                reassembly_window_us=config.reassembly_window_us,
                fast_expiry=config.backend == "vectorized",
            )
        self.sched = UeSchedState(index, index)
        self.receivers: dict[int, "TcpReceiver"] = {}
        self.active_runtimes: dict[int, FlowRuntime] = {}

    def _deliver(self, sdu: RlcSdu, now_us: int) -> None:
        self._deliver_cb(self, sdu, now_us)

    def _number_sdu(self, sdu: RlcSdu) -> None:
        if sdu.pdcp_sn is None:  # delayed numbering at first transmission
            sdu.pdcp_sn = self.pdcp.egress(sdu.packet, None).sn

    def attach_flow_tracer(self, tracer) -> None:
        """Route this UE's PDCP/RLC flow-lifecycle events to ``tracer``."""
        self.pdcp.tracer = tracer
        self.rlc.tracer = tracer

    @property
    def is_am(self) -> bool:
        return isinstance(self.rlc, AmTransmitter)

    def has_backlog(self) -> bool:
        """Cheap check whether the UE needs a grant this TTI."""
        rlc = self.rlc
        if rlc.buffered_bytes > 0:
            return True
        if self.is_am:
            return rlc.retx_bytes > 0 or rlc.has_ctrl
        return False

    def refresh_oracle(self, now_us: int, qos_oracle: bool) -> None:
        """Update the clairvoyant fields for SRJF / PSS / CQA."""
        remaining: Optional[int] = None
        qos_count = 0
        qos_hol = 0
        for runtime in self.active_runtimes.values():
            left = runtime.sender.remaining_bytes
            if left > 0 and (remaining is None or left < remaining):
                remaining = left
            if qos_oracle and runtime.spec.qos_short:
                qos_count += 1
                qos_hol = max(qos_hol, now_us - runtime.start_us)
        self.sched.remaining_flow_bytes = remaining
        self.sched.qos_deadline_flows = qos_count
        self.sched.qos_hol_delay_us = qos_hol

    def boost_priorities(self) -> None:
        """Priority reset (section 6.3): flow table + queued SDUs."""
        self.flow_table.reset_all()
        self.rlc.boost_priorities()
