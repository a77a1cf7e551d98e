"""Control messages and RCC frames (Sections 4.2, 5.1).

Control messages are immutable records; an :class:`RCCFrame` bundles
several of them for one hop (the paper's Fig. 7 format: a combination of
failure reports, activation messages, and acknowledgments, plus a
sequence number for duplicate detection).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Direction(enum.Enum):
    """Travel direction of a control message along a channel's path."""

    TO_SOURCE = "to_source"
    TO_DESTINATION = "to_destination"

    def reverse(self) -> "Direction":
        """The opposite travel direction."""
        if self is Direction.TO_SOURCE:
            return Direction.TO_DESTINATION
        return Direction.TO_SOURCE


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """Base class: every control message names the channel it concerns."""

    channel_id: int


@dataclass(frozen=True, slots=True)
class FailureReport(ControlMessage):
    """A channel was disabled by a component failure (or a multiplexing
    failure when ``mux_failure`` is set); travels toward one end-node
    through the healthy segment of the channel's path."""

    direction: Direction = Direction.TO_SOURCE
    failed_component: object = None
    mux_failure: bool = False


@dataclass(frozen=True, slots=True)
class ActivationMessage(ControlMessage):
    """Activate a backup channel (``channel_id`` is the backup's id).

    ``serial`` lets both end-nodes verify they are activating the same
    backup (Section 4.2); ``episode`` is the sending end-node's recovery
    round for the connection, so a late duplicate from an earlier failure
    round is rejected deterministically instead of racing the current
    switchover.
    """

    direction: Direction = Direction.TO_DESTINATION
    connection_id: int = -1
    serial: int = 0
    episode: int = 0


@dataclass(frozen=True, slots=True)
class ActivationAck(ControlMessage):
    """End-to-end acknowledgment of an :class:`ActivationMessage`.

    Sent by the far end-node back along the backup's path once the
    activation reached it; the initiating end-node cancels its
    retry/backoff timer on a matching ``(connection, serial, episode)``.
    """

    direction: Direction = Direction.TO_SOURCE
    connection_id: int = -1
    serial: int = 0
    episode: int = 0


@dataclass(frozen=True, slots=True)
class RejoinRequest(ControlMessage):
    """Source-to-destination probe over a failed channel's path: if it
    gets through, the channel is repairable (Section 4.4).  Every node
    it passes, the source included, handles it the same way: one whose
    record mux-failed re-draws that spare first, or drops the request.

    Sent ``TO_SOURCE``, it is the hint of a node told of a repair on the
    channel's path downstream of it: it walks up to the source, which
    then handles the probe itself."""

    direction: Direction = Direction.TO_DESTINATION


@dataclass(frozen=True, slots=True)
class RejoinConfirm(ControlMessage):
    """Destination-to-source confirmation: the channel is repaired and
    becomes a backup again (U -> B)."""


@dataclass(frozen=True, slots=True)
class ChannelClosure(ControlMessage):
    """Tear the channel down at each node downstream of the sender: the
    undo of a late rejoin (Fig. 6), sent by a node whose rejoin timer
    expired before the rejoin-confirm passed it."""


@dataclass(frozen=True, slots=True)
class RCCFrame:
    """One RCC transmission unit: a batch of control messages plus
    acknowledgments of previously received frames (Fig. 7)."""

    seq: int
    messages: tuple[ControlMessage, ...] = ()
    acks: tuple[int, ...] = field(default=())

    @property
    def is_pure_ack(self) -> bool:
        """Frames carrying only acknowledgments are not themselves acked,
        avoiding infinite ack chains."""
        return not self.messages
