"""Identities for network components (nodes and simplex links).

The paper counts both nodes and links as failure-prone *components*
(Section 3.2: "components include both nodes and links"), so the two kinds
must share one identity space without collisions.  Nodes are arbitrary
hashable values (the generators use ``int``); links are frozen
:class:`LinkId` instances, which can never compare equal to a node id even
when node ids are tuples.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable

# A node is identified by any hashable value; generators produce ints.
NodeId = Hashable


class LinkId(tuple):
    """Identity of one simplex (uni-directional) link.

    A duplex connection between neighbours is modelled as two independent
    ``LinkId`` instances, one per direction, matching the paper's network
    model ("neighbor nodes are connected by two simplex links").  Each
    direction fails, and is reserved, independently.

    A ``(src, dst)`` tuple underneath, so that hashing and field access
    run in C: link ids key every hot dict in the system (ledgers, mux
    states, spare snapshots).  The hash is ``hash((src, dst))``, but a
    link id equals only another link id, never a tuple node, and it is
    immutable.
    """

    __slots__ = ()

    def __new__(cls, src: NodeId, dst: NodeId) -> "LinkId":
        return tuple.__new__(cls, (src, dst))

    src = property(itemgetter(0), doc="The sending node.")
    dst = property(itemgetter(1), doc="The receiving node.")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is LinkId:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __reduce__(self):
        return (LinkId, tuple(self))

    def reversed(self) -> "LinkId":
        """The companion simplex link in the opposite direction."""
        return LinkId(self[1], self[0])

    def endpoints(self) -> tuple[NodeId, NodeId]:
        """Both endpoint nodes, source first."""
        return tuple(self)

    def __repr__(self) -> str:
        return f"LinkId(src={self[0]!r}, dst={self[1]!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self[0]}->{self[1]}"


# A component is either a node id or a link id.  Type alias for signatures.
Component = "NodeId | LinkId"
