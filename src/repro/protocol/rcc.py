"""Real-time control channels (Section 5.1).

One :class:`RCCLink` runs over each simplex physical link.  It batches
outgoing control messages into sequence-numbered frames, enforces the
``1/R_max`` eligibility spacing and the ``S_max`` frame size, delivers
frames after the ``D_max`` hop delay, and guarantees delivery with
hop-by-hop acknowledgments and retransmission.  Duplicate frames are
detected by sequence number and dropped (their ack is still sent, in case
the original ack was lost).

Acknowledgments ride the *reverse* RCC link as pure-ack frames, which are
themselves not acknowledged.  Frames are lost when the physical link (or
either endpoint node) is down, and only then.  A frame that exhausts its
retransmission budget is dropped and counted (``gave_up``); the link
draws no conclusion from it.  Failures are learnt from the neighbour
notice of the runtime's fault injector alone (Section 5.3 leaves
detection out of BCP).

A link holds its receiving daemon and its reverse link weakly: the daemon
sends on links that lead back to this one (the reverse among them), so
either edge held strongly would close a reference cycle.  Both are
dereferenced once per arriving frame, never per message.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Callable, Set
from dataclasses import dataclass
from operator import itemgetter

from repro.network.components import LinkId
from repro.obs.registry import MetricsRegistry
from repro.protocol.config import MAX_RETRANSMISSIONS, ProtocolConfig
from repro.protocol.messages import ControlMessage, RCCFrame
from repro.sim.engine import EventEngine, EventHandle


@dataclass
class RCCStats:
    """Per-link transport counters (diagnostics and tests)."""

    messages_sent: int = 0
    messages_delivered: int = 0
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_lost: int = 0
    duplicates_dropped: int = 0
    retransmissions: int = 0
    gave_up: int = 0
    acks_sent: int = 0
    #: Worst message queueing+delivery delay observed on this link.
    max_message_delay: float = 0.0


#: A queue entry's message (entries are ``(enqueue time, message)``).
_message_of = itemgetter(1)


def _absent() -> None:
    """The reverse of a link that has none."""
    return None


class RCCLink:
    """The RCC in one direction of one physical link.

    ``failed`` is the runtime's set of failed components, read in place:
    the link carries frames while neither it nor either endpoint is in
    it.  ``receiver`` is what the link delivers to (``receiver.receive(
    message)`` for every message of an arriving frame, in order) and is
    held weakly; whoever builds the link keeps the receiver and the
    reverse link alive (the runtime owns all of them).  ``metrics`` is the
    registry its transport counters go to (the runtime's, shared by every
    link).
    """

    # Slotted: a simulation builds one per simplex link, and an instance
    # dict this wide would be a private (unshared) table each.
    __slots__ = (
        "engine", "link", "config", "_per_frame", "_min_interval",
        "_max_delay", "_ack_timeout", "_failed", "_parts", "_receiver",
        "stats", "_counting", "_m_messages", "_m_frames", "_m_lost",
        "_m_retransmissions", "_m_gave_up", "_m_queue_depth", "_m_batch",
        "_queue", "_next_seq", "_last_tx", "_tx_scheduled", "_pending",
        "_pending_acks", "_seen_seqs", "_frame_times", "_reverse",
        "on_frame_delivered", "__weakref__",
    )

    def __init__(
        self,
        engine: EventEngine,
        link: LinkId,
        config: ProtocolConfig,
        failed: Set,
        receiver,
        metrics: MetricsRegistry,
    ) -> None:
        self.engine = engine
        self.link = link
        self.config = config
        # The frozen config's numbers, read once instead of per frame.
        self._per_frame = config.rcc.max_messages_per_frame
        self._min_interval = config.rcc.min_interval
        self._max_delay = config.rcc.max_delay
        self._ack_timeout = config.ack_timeout
        self._failed = failed
        #: The components whose failure takes the link down.
        self._parts = (link, link.src, link.dst)
        self._receiver = weakref.ref(receiver)
        self.stats = RCCStats()
        # Network-wide transport metrics: every RCCLink of a runtime
        # shares these instruments, so they aggregate across links.
        #: With a no-op registry the instruments are not called at all.
        self._counting = metrics.enabled
        self._m_messages = metrics.counter("rcc.messages_sent")
        self._m_frames = metrics.counter("rcc.frames_sent")
        self._m_lost = metrics.counter("rcc.frames_lost")
        self._m_retransmissions = metrics.counter("rcc.retransmissions")
        self._m_gave_up = metrics.counter("rcc.gave_up")
        self._m_queue_depth = metrics.gauge("rcc.queue_depth")
        self._m_batch = metrics.histogram("rcc.messages_per_frame")

        self._queue: deque[tuple[float, ControlMessage]] = deque()
        self._next_seq = 0
        self._last_tx = -float("inf")
        self._tx_scheduled: EventHandle | None = None
        #: An unacknowledged frame is its own retransmit event: sequence
        #: number -> the pending handle of ``_retransmit(frame, retries)``.
        #: The ack or :meth:`halt` that pops a handle cancels it, so no
        #: retransmission fires for a frame that left this map.
        self._pending: dict[int, EventHandle] = {}
        self._pending_acks: list[int] = []
        self._seen_seqs: set[int] = set()
        #: Enqueue times of the messages in each not-yet-delivered frame,
        #: for the max_message_delay statistic.
        self._frame_times: dict[int, float] = {}
        self._reverse: "Callable[[], RCCLink | None]" = _absent
        #: Delivery observer: called as ``observer(rcc, frame)`` just
        #: before a frame's messages are handed to the daemon (after the
        #: link-health and duplicate checks).  The invariant auditor hangs
        #: its sequence-number and dead-link-delivery checks here.
        self.on_frame_delivered: "Callable[[RCCLink, RCCFrame], None] | None" \
            = None

    @property
    def reverse(self) -> "RCCLink | None":
        """The reverse-direction RCCLink, which carries our acks (held
        weakly: the two point at each other)."""
        return self._reverse()

    @reverse.setter
    def reverse(self, link: "RCCLink | None") -> None:
        self._reverse = _absent if link is None else weakref.ref(link)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, message: ControlMessage) -> None:
        """Queue a control message; it rides the next eligible frame."""
        self.stats.messages_sent += 1
        self._queue.append((self.engine.now, message))
        if self._counting:
            self._m_messages.inc()
            self._m_queue_depth.set(len(self._queue))
        if self._tx_scheduled is None:
            self._schedule_transmission()

    def _schedule_transmission(self) -> None:
        """Schedule the next frame at its eligibility time.  Callers check
        ``_tx_scheduled is None`` first: it holds the pending transmission
        from here until :meth:`_transmit` fires it or :meth:`halt` cancels
        it, and is ``None`` otherwise."""
        eligible_at = max(self.engine.now, self._last_tx + self._min_interval)
        self._tx_scheduled = self.engine.schedule_at(eligible_at, self._transmit)

    def _transmit(self) -> None:
        self._tx_scheduled = None
        queue, acks = self._queue, self._pending_acks
        if not queue and not acks:
            return
        seq = self._next_seq
        self._next_seq = seq + 1
        self._last_tx = self.engine.now
        if queue:
            # Enqueue times never decrease, so the frame's oldest message
            # is its first.
            self._frame_times[seq] = queue[0][0]
            if len(queue) <= self._per_frame:
                batch = tuple(map(_message_of, queue))
                queue.clear()
            else:
                popleft = queue.popleft
                batch = tuple([popleft()[1] for _ in range(self._per_frame)])
            frame = RCCFrame(seq, batch, tuple(acks))
            self._pending[seq] = self.engine.schedule(
                self._ack_timeout, self._retransmit, frame, 0)
            if self._counting:
                self._m_batch.record(len(batch))
        else:
            frame = RCCFrame(seq, (), tuple(acks))
        acks.clear()
        if self._counting:
            self._m_queue_depth.set(len(queue))
        self._launch(frame)
        if queue:
            self._schedule_transmission()

    def _launch(self, frame: RCCFrame) -> None:
        self.stats.frames_sent += 1
        if self._counting:
            self._m_frames.inc()
        if not self._failed.isdisjoint(self._parts):  # the link is down
            self.stats.frames_lost += 1
            if self._counting:
                self._m_lost.inc()
            return  # lost; the retransmit timer covers non-pure-ack frames
        self.engine.schedule(self._max_delay, self._arrive, frame)

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------
    def _retransmit(self, frame: RCCFrame, retries: int) -> None:
        seq = frame.seq
        if retries >= MAX_RETRANSMISSIONS:
            del self._pending[seq]
            self._frame_times.pop(seq, None)
            self.stats.gave_up += 1
            if self._counting:
                self._m_gave_up.inc()
            return
        self.stats.retransmissions += 1
        if self._counting:
            self._m_retransmissions.inc()
        self._pending[seq] = self.engine.schedule(
            self._ack_timeout, self._retransmit, frame, retries + 1)
        self._launch(frame)

    def halt(self) -> None:
        """Stop all sender-side activity: a crashed source node transmits
        nothing, so its queued messages, unacked frames, and pending
        retransmit/transmit timers are dropped on the spot (instead of
        ticking on pointlessly until their budget runs out)."""
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()
        self._frame_times.clear()
        self._queue.clear()
        self._pending_acks.clear()
        if self._counting:
            self._m_queue_depth.set(0)
        if self._tx_scheduled is not None:
            self._tx_scheduled.cancel()
            self._tx_scheduled = None

    # ------------------------------------------------------------------
    # receiving (runs at the *destination* node of the link)
    # ------------------------------------------------------------------
    def _arrive(self, frame: RCCFrame) -> None:
        stats = self.stats
        if not self._failed.isdisjoint(self._parts):
            # The link (or an endpoint) died while the frame was in flight.
            stats.frames_lost += 1
            if self._counting:
                self._m_lost.inc()
            return
        stats.frames_delivered += 1
        # Acks carried by this link acknowledge frames sent on the reverse
        # link (we receive at this link's dst, which sends on the reverse);
        # our ack for this frame rides the reverse too.
        reverse = self._reverse()
        if reverse is not None:
            unacked = reverse._pending
            for seq in frame.acks:
                handle = unacked.pop(seq, None)
                if handle is not None:
                    handle.cancel()
        if frame.is_pure_ack:
            return
        if reverse is not None:
            stats.acks_sent += 1
            reverse._pending_acks.append(frame.seq)
            if reverse._tx_scheduled is None:
                reverse._schedule_transmission()
        seq = frame.seq
        if seq in self._seen_seqs:
            stats.duplicates_dropped += 1
            return
        self._seen_seqs.add(seq)
        enqueued_at = self._frame_times.pop(seq, None)
        if enqueued_at is not None:
            delay = self.engine.now - enqueued_at
            if delay > stats.max_message_delay:
                stats.max_message_delay = delay
        if self.on_frame_delivered is not None:
            self.on_frame_delivered(self, frame)
        receive = self._receiver().receive
        messages = frame.messages
        stats.messages_delivered += len(messages)
        for message in messages:
            receive(message)
