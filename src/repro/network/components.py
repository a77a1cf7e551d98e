"""Identities for network components (nodes and simplex links).

The paper counts both nodes and links as failure-prone *components*
(Section 3.2: "components include both nodes and links"), so the two kinds
must share one identity space without collisions.  Nodes are arbitrary
hashable values (the generators use ``int``); links are frozen
:class:`LinkId` instances, which can never compare equal to a node id even
when node ids are tuples.
"""

from __future__ import annotations

from typing import Hashable

# A node is identified by any hashable value; generators produce ints.
NodeId = Hashable


class LinkId:
    """Identity of one simplex (uni-directional) link.

    A duplex connection between neighbours is modelled as two independent
    ``LinkId`` instances, one per direction, matching the paper's network
    model ("neighbor nodes are connected by two simplex links").  Each
    direction fails, and is reserved, independently.

    Immutable and hashable like the frozen dataclass it replaces, but
    with the hash computed once at construction: link ids key every hot
    dict in the system (ledgers, mux states, spare snapshots), so the
    per-lookup tuple hash showed up in establishment profiles.
    """

    __slots__ = ("src", "dst", "_hash")

    def __init__(self, src: NodeId, dst: NodeId) -> None:
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "_hash", hash((src, dst)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"LinkId is immutable; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is LinkId:
            return self.src == other.src and self.dst == other.dst
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (LinkId, (self.src, self.dst))

    def reversed(self) -> "LinkId":
        """The companion simplex link in the opposite direction."""
        return LinkId(self.dst, self.src)

    def endpoints(self) -> tuple[NodeId, NodeId]:
        """Both endpoint nodes, source first."""
        return (self.src, self.dst)

    def __repr__(self) -> str:
        return f"LinkId(src={self.src!r}, dst={self.dst!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.src}->{self.dst}"


# A component is either a node id or a link id.  Type alias for signatures.
Component = "NodeId | LinkId"
