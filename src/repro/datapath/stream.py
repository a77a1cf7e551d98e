"""Data streams over a running protocol simulation.

A :class:`DataStream` emits regulated messages from a connection's source.
Each message rides whichever channel the *source* currently believes
carries the connection (its endpoint view), and is forwarded hop by hop
with a fixed per-hop delay.  A message is lost when

* the next link (or node) on its channel's path is down, or
* the channel is not in the PRIMARY state at the forwarding node — data
  arriving at a node of a not-yet-activated backup "will be discarded
  with no harm" (Section 4.2, footnote 6).

This reproduces the Fig. 8 message-loss behaviour: the messages in flight
at failure time plus those the source emits before it learns of the
failure are lost; delivery resumes with the first message sent after the
activation message (which travels the same path ahead of it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datapath.regulator import TrafficRegulator
from repro.network.components import LinkId, NodeId
from repro.protocol.runtime import ProtocolSimulation
from repro.protocol.states import LocalChannelState
from repro.util.validation import check_positive


@dataclass
class StreamReport:
    """Delivery accounting of one data stream."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    #: Send times of lost messages (for loss-window analysis).
    loss_times: list[float] = field(default_factory=list)
    #: Worst end-to-end latency among delivered messages.
    max_latency: float = 0.0

    @property
    def loss_window(self) -> "tuple[float, float] | None":
        """(first, last) send time of lost messages — the service gap."""
        if not self.loss_times:
            return None
        return (min(self.loss_times), max(self.loss_times))


class DataStream:
    """A periodic, regulated message source for one connection."""

    #: Per-hop delay of data messages.  The paper assumes "the activation
    #: message is delivered faster than the data message" (Section 5.3);
    #: this equals the RCC's D_max, and the kernel's FIFO tie-break lets
    #: an activation scheduled first win a same-instant race, so the first
    #: message sent after the activation survives.
    HOP_DELAY = 1.0
    #: Depth of the stream's leaky bucket: no bursts, one message a period.
    BURST_DEPTH = 1.0

    def __init__(
        self,
        simulation: ProtocolSimulation,
        connection_id: int,
        message_rate: float = 1.0,
    ) -> None:
        check_positive(message_rate, "message_rate")
        self.simulation = simulation
        self.connection = simulation.network.connection(connection_id)
        self.regulator = TrafficRegulator(message_rate, self.BURST_DEPTH)
        self.report = StreamReport()
        self._period = 1.0 / message_rate
        self._running = False

    # ------------------------------------------------------------------
    def start(self, at: float = 0.0, until: "float | None" = None) -> None:
        """Begin emitting at time ``at``; stop after ``until`` if given."""
        self._running = True
        self._until = until
        self.simulation.engine.schedule_at(at, self._emit)

    def stop(self) -> None:
        """Stop emitting; messages already in flight still complete."""
        self._running = False

    # ------------------------------------------------------------------
    def _emit(self) -> None:
        if not self._running:
            return
        engine = self.simulation.engine
        now = engine.now
        if self._until is not None and now > self._until:
            self._running = False
            return
        eligible = self.regulator.eligible_at(now)
        if eligible > now:
            engine.schedule_at(eligible, self._emit)
            return
        self.regulator.consume(now)
        self._send_message(now)
        engine.schedule(self._period, self._emit)

    def _send_message(self, sent_at: float) -> None:
        source = self.connection.source
        if not self.simulation.node_up(source):
            return  # a dead source emits nothing
        self.report.sent += 1
        view = self.simulation.daemons[source].views[
            self.connection.connection_id
        ]
        channel_id = view.current_channel
        record = self.simulation.daemons[source].records.get(channel_id)
        if record is None or record.state is not LocalChannelState.PRIMARY:
            self._lose(sent_at)
            return
        self._forward(channel_id, record.path.nodes, 0, sent_at)

    def _forward(
        self, channel_id: int, path_nodes: tuple, index: int, sent_at: float
    ) -> None:
        node: NodeId = path_nodes[index]
        simulation = self.simulation
        if not simulation.node_up(node):
            self._lose(sent_at)
            return
        if index == len(path_nodes) - 1:
            self._deliver(sent_at)
            return
        # Intermediate (or source) node: the channel must be active here
        # and the outgoing link alive for the message to proceed.
        record = simulation.daemons[node].records.get(channel_id)
        if record is None or record.state is not LocalChannelState.PRIMARY:
            self._lose(sent_at)
            return
        next_node = path_nodes[index + 1]
        link = LinkId(node, next_node)
        if not simulation.link_up(link):
            self._lose(sent_at)
            return
        simulation.engine.schedule(
            self.HOP_DELAY, self._forward, channel_id, path_nodes,
            index + 1, sent_at,
        )

    def _deliver(self, sent_at: float) -> None:
        self.report.delivered += 1
        latency = self.simulation.engine.now - sent_at
        self.report.max_latency = max(self.report.max_latency, latency)

    def _lose(self, sent_at: float) -> None:
        self.report.lost += 1
        self.report.loss_times.append(sent_at)
