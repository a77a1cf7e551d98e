"""Tests for the Fig. 4 channel state machine and local records."""

from __future__ import annotations

import pytest

from repro.protocol.states import (
    ChannelEvent,
    IllegalTransitionError,
    LocalChannelRecord,
    LocalChannelState,
)
from repro.routing import Path

N = LocalChannelState.NON_EXISTENT
P = LocalChannelState.PRIMARY
B = LocalChannelState.BACKUP
U = LocalChannelState.UNHEALTHY

#: The event each legal move of the sequences below is made on.
ON = {
    (N, P): ChannelEvent.ESTABLISH_PRIMARY,
    (N, B): ChannelEvent.ESTABLISH_BACKUP,
    (B, P): ChannelEvent.ACTIVATE,
    (P, U): ChannelEvent.FAIL,
    (B, U): ChannelEvent.FAIL,
    (U, B): ChannelEvent.REJOIN,
    (U, N): ChannelEvent.EXPIRE,
    (P, N): ChannelEvent.CLOSE,
    (B, N): ChannelEvent.CLOSE,
}


def move(r, state):
    """Take ``r`` to ``state`` on the event that legal move is made on."""
    r.transition(state, ON[r.state, state])


def record(node=2, nodes=(1, 2, 3)):
    return LocalChannelRecord(
        channel_id=0,
        connection_id=0,
        serial=1,
        path=Path(nodes),
        node=node,
        mux_degree=3,
        bandwidth=1.0,
    )


class TestStateMachine:
    @pytest.mark.parametrize(
        "sequence",
        [
            [P, U, N],            # primary fails, rejoin expires
            [B, P],               # activation
            [B, U, B],            # backup fails, rejoins
            [B, U, N],            # backup fails, torn down
            [P, U, B],            # primary fails, repaired as backup
            [B, N],               # teardown of a healthy backup
            [P, N],               # teardown of a healthy primary
        ],
    )
    def test_legal_sequences(self, sequence):
        r = record()
        for state in sequence:
            move(r, state)
        assert r.state is sequence[-1]

    @pytest.mark.parametrize(
        "sequence, bad",
        [
            ([P], B),       # a primary never becomes a backup directly
            ([B, U], P),    # activation in U is ignored, not a transition
            ([P], P),       # self-transition
            ([], U),        # N cannot become U
            ([B, U], U),    # no self-transition in U (reports are ignored)
        ],
    )
    def test_illegal_transitions_raise(self, sequence, bad):
        r = record()
        for state in sequence:
            move(r, state)
        for event in ChannelEvent:
            with pytest.raises(IllegalTransitionError):
                r.transition(bad, event)
            assert r.state is (sequence[-1] if sequence else N)

    def test_reported_cleared_on_leaving_unhealthy(self):
        r = record()
        move(r, B)
        move(r, U)
        r.reported = r.reported | {"to_source"}  # the daemon's write path
        assert r.reported == {"to_source"}
        move(r, B)
        assert r.reported == frozenset()

    def test_empty_reported_is_one_shared_immutable_value(self):
        first, second = record(), record()
        move(first, B)
        move(first, U)
        # A write rebinds the writer's attribute; nobody else can see it.
        first.reported = first.reported | {"to_source"}
        assert second.reported == frozenset()
        move(first, B)
        assert first.reported is second.reported
        with pytest.raises(AttributeError):
            first.reported.add("to_source")


class TestRecordGeometry:
    def test_interior_node(self):
        r = record(node=2, nodes=(1, 2, 3))
        assert not r.is_endpoint
        assert r.upstream == 1
        assert r.downstream == 3

    def test_source(self):
        r = record(node=1, nodes=(1, 2, 3))
        assert r.is_source and not r.is_destination
        assert r.upstream is None
        assert r.downstream == 2

    def test_destination(self):
        r = record(node=3, nodes=(1, 2, 3))
        assert r.is_destination
        assert r.downstream is None
        assert r.upstream == 2

    def test_node_must_be_on_path(self):
        with pytest.raises(ValueError, match="not on the path"):
            record(node=9)
