"""Per-node channel state (the state machine of Fig. 4).

At each node, a channel is in one of four states: non-existent (N),
healthy primary (P), healthy backup (B), or unhealthy (U).  The allowed
transitions are exactly those of the paper's Fig. 4; anything else raises,
which turns protocol bugs into loud test failures instead of silent state
corruption.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.network.components import NodeId
from repro.protocol.messages import Direction
from repro.routing.paths import Path


class LocalChannelState(enum.Enum):
    """Fig. 4 channel states at a node."""

    NON_EXISTENT = "N"
    PRIMARY = "P"
    BACKUP = "B"
    UNHEALTHY = "U"


class ChannelEvent(enum.Enum):
    """Protocol events that drive the Fig. 4 state machine.

    Each event names the *cause* of a transition, so the daemon's call
    sites document themselves and the invariant auditor can verify the
    event-agnostic closure it audits against is exactly the one the
    runtime enforces.
    """

    ESTABLISH_PRIMARY = "establish_primary"
    ESTABLISH_BACKUP = "establish_backup"
    ACTIVATE = "activate"
    FAIL = "fail"
    REJOIN = "rejoin"
    EXPIRE = "expire"
    CLOSE = "close"


#: The explicit Fig. 4 transition table: (state, event) -> next state.
#: This is the single source of truth; the event-agnostic closure
#: ``_ALLOWED`` is derived from it below.
TRANSITIONS: dict[
    tuple[LocalChannelState, ChannelEvent], LocalChannelState
] = {
    (LocalChannelState.NON_EXISTENT, ChannelEvent.ESTABLISH_PRIMARY):
        LocalChannelState.PRIMARY,
    (LocalChannelState.NON_EXISTENT, ChannelEvent.ESTABLISH_BACKUP):
        LocalChannelState.BACKUP,
    (LocalChannelState.PRIMARY, ChannelEvent.FAIL):
        LocalChannelState.UNHEALTHY,
    (LocalChannelState.PRIMARY, ChannelEvent.CLOSE):
        LocalChannelState.NON_EXISTENT,
    (LocalChannelState.BACKUP, ChannelEvent.ACTIVATE):
        LocalChannelState.PRIMARY,
    (LocalChannelState.BACKUP, ChannelEvent.FAIL):
        LocalChannelState.UNHEALTHY,
    (LocalChannelState.BACKUP, ChannelEvent.CLOSE):
        LocalChannelState.NON_EXISTENT,
    (LocalChannelState.UNHEALTHY, ChannelEvent.REJOIN):
        LocalChannelState.BACKUP,
    (LocalChannelState.UNHEALTHY, ChannelEvent.EXPIRE):
        LocalChannelState.NON_EXISTENT,
    (LocalChannelState.UNHEALTHY, ChannelEvent.CLOSE):
        LocalChannelState.NON_EXISTENT,
}


def _derive_allowed() -> dict[LocalChannelState, frozenset[LocalChannelState]]:
    closure: dict[LocalChannelState, set[LocalChannelState]] = {
        state: set() for state in LocalChannelState
    }
    for (state, _event), target in TRANSITIONS.items():
        closure[state].add(target)
    return {state: frozenset(targets) for state, targets in closure.items()}


#: Legal transitions of the Fig. 4 state machine (event-agnostic closure,
#: derived from ``TRANSITIONS``).
_ALLOWED: dict[LocalChannelState, frozenset[LocalChannelState]] = (
    _derive_allowed()
)


#: ``TRANSITIONS`` keyed by the members' values: a value is a ``str``,
#: which hashes in C, where an ``Enum`` member hashes in Python.
_BY_VALUE: dict[tuple[str, str], LocalChannelState] = {
    (state._value_, event._value_): target
    for (state, event), target in TRANSITIONS.items()
}


def allowed_transitions() -> dict[LocalChannelState, frozenset[LocalChannelState]]:
    """The event-agnostic closure of ``TRANSITIONS`` (for auditors)."""
    return dict(_ALLOWED)


#: The one empty ``reported`` value every record starts from and returns
#: to: immutable, so sharing it between records and simulations is safe.
NOTHING_REPORTED: frozenset = frozenset()
#: The other three values a daemon gives ``reported``, shared the same
#: way (see :meth:`LocalChannelRecord.mark_reported`).
REPORTED_TO_SOURCE: frozenset = frozenset((Direction.TO_SOURCE,))
REPORTED_TO_DESTINATION: frozenset = frozenset((Direction.TO_DESTINATION,))
REPORTED_BOTH: frozenset = REPORTED_TO_SOURCE | REPORTED_TO_DESTINATION


class IllegalTransitionError(Exception):
    """A transition outside the Fig. 4 state machine was attempted."""

    def __init__(self, channel_id: int, node: NodeId,
                 current: LocalChannelState, target: LocalChannelState) -> None:
        super().__init__(
            f"channel {channel_id} at node {node!r}: "
            f"{current.value} -> {target.value} is not a Fig. 4 transition"
        )


@dataclass(slots=True, init=False)
class LocalChannelRecord:
    """Everything a BCP daemon knows about one channel through its node.

    The paper (Section 3.4): "the BCP daemon at each node has to maintain
    the information about each backup running through the node, including
    the path of its primary, the multiplexing threshold, ... and the
    current channel state".
    """

    channel_id: int
    connection_id: int
    serial: int
    path: Path
    node: NodeId
    mux_degree: int
    #: What an activation draws on each link of the path (Mbps).
    bandwidth: float
    state: LocalChannelState
    #: Reporting dedup: directions in which this node already forwarded a
    #: failure report for the current failure episode.  Never mutated in
    #: place: a write rebinds it to one of the four shared module values
    #: (:meth:`mark_reported`), so no record owns a set.
    reported: frozenset
    #: Set when the channel entered U because this node could not draw
    #: spare for it (a multiplexing failure); a rejoin through this node
    #: must re-acquire spare on that link before the channel can heal.
    mux_failed_link: object
    # The record's place on its path: fixed when it is built (nothing
    # rebinds ``path`` or ``node``), so the hot path reads plain slots.
    #: Position of ``node`` on ``path``.
    index: int = field(repr=False, compare=False)
    is_source: bool = field(repr=False, compare=False)
    is_destination: bool = field(repr=False, compare=False)
    #: Previous / next node along the channel direction, if any.
    upstream: "NodeId | None" = field(repr=False, compare=False)
    downstream: "NodeId | None" = field(repr=False, compare=False)

    def __init__(
        self, channel_id: int, connection_id: int, serial: int, path: Path,
        node: NodeId, mux_degree: int, bandwidth: float,
        state: LocalChannelState = LocalChannelState.NON_EXISTENT,
    ) -> None:
        nodes = path.nodes
        try:
            index = nodes.index(node)
        except ValueError:
            raise ValueError(
                f"node {node!r} is not on the path of channel {channel_id}"
            ) from None
        last = len(nodes) - 1
        self.channel_id = channel_id
        self.connection_id = connection_id
        self.serial = serial
        self.path = path
        self.node = node
        self.mux_degree = mux_degree
        self.bandwidth = bandwidth
        self.state = state
        self.reported = NOTHING_REPORTED
        self.mux_failed_link = None
        self.index = index
        self.is_source = index == 0
        self.is_destination = index == last
        self.upstream = nodes[index - 1] if index else None
        self.downstream = nodes[index + 1] if index < last else None

    @property
    def is_endpoint(self) -> bool:
        return self.is_source or self.is_destination

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def transition(self, target: LocalChannelState,
                   event: ChannelEvent) -> None:
        """Move to ``target`` on ``event``; raises
        :class:`IllegalTransitionError` unless the explicit
        ``TRANSITIONS`` table defines ``event`` for the current state and
        it leads exactly to ``target``."""
        if _BY_VALUE.get((self.state._value_, event._value_)) is not target:
            raise IllegalTransitionError(
                self.channel_id, self.node, self.state, target
            )
        self.state = target
        if target is not LocalChannelState.UNHEALTHY:
            self.reported = NOTHING_REPORTED

    def has_reported(self, direction: Direction) -> bool:
        """Whether ``direction`` is in ``reported``, told by identity
        against the four shared values (no member is hashed)."""
        reported = self.reported
        if reported is REPORTED_BOTH:
            return True
        if reported is NOTHING_REPORTED:
            return False
        return (reported is REPORTED_TO_SOURCE) is (
            direction is Direction.TO_SOURCE
        )

    def mark_reported(self, direction: Direction) -> None:
        """Add ``direction`` to ``reported``, rebinding it to the shared
        value that holds exactly the directions reported so far."""
        if self.reported is NOTHING_REPORTED:
            self.reported = (
                REPORTED_TO_SOURCE if direction is Direction.TO_SOURCE
                else REPORTED_TO_DESTINATION
            )
        elif not self.has_reported(direction):
            self.reported = REPORTED_BOTH
