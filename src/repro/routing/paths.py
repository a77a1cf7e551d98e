"""Path objects.

A :class:`Path` is an immutable node sequence plus the simplex links it
traverses: together they *are* its components — the nodes and links
whose failure disables it.  Every other view is derived on demand.  The
component *count* is arithmetic, because a simple path repeats no node.
No admission or evaluation step builds the component *set*: the
multiplexing engine interns a primary's nodes and links straight into
one bitmask, the compiled plan does the same for a backup, and the
registry indexes a backup by link.  The set (a frozenset, cached on
first use) serves :func:`shared_component_count`, :meth:`Path.intersects`
and the reactive baseline.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.network.components import LinkId, NodeId
from repro.network.topology import Topology


class Path:
    """An immutable simple path through a network.

    Parameters
    ----------
    nodes:
        The node sequence, source first.  Must contain at least two distinct
        nodes and no repeats (real-time channels are simple virtual circuits).
    links:
        The :class:`LinkId` of every hop, when the caller already holds
        them (the routing core passes the topology's own link objects);
        derived from ``nodes`` on first use otherwise.
    """

    __slots__ = ("_nodes", "_links", "_components", "_transit")

    def __init__(
        self, nodes: Sequence[NodeId], links: "Sequence[LinkId] | None" = None
    ) -> None:
        node_tuple = tuple(nodes)
        if len(node_tuple) < 2:
            raise ValueError(f"a path needs at least 2 nodes, got {node_tuple!r}")
        if len(set(node_tuple)) != len(node_tuple):
            raise ValueError(f"path contains repeated nodes: {node_tuple!r}")
        self._nodes = node_tuple
        link_tuple = None
        if links is not None:
            link_tuple = tuple(links)
            if len(link_tuple) != len(node_tuple) - 1:
                raise ValueError(
                    f"{len(link_tuple)} links cannot join {len(node_tuple)} nodes"
                )
        self._links = link_tuple
        self._components = None
        self._transit = None

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """The node sequence, source first."""
        return self._nodes

    @property
    def source(self) -> NodeId:
        return self._nodes[0]

    @property
    def destination(self) -> NodeId:
        return self._nodes[-1]

    @property
    def hops(self) -> int:
        """Number of links traversed."""
        return len(self._nodes) - 1

    @property
    def links(self) -> tuple[LinkId, ...]:
        """The simplex links traversed, in order (built on first use)."""
        links = self._links
        if links is None:
            nodes = self._nodes
            links = self._links = tuple(map(LinkId, nodes, nodes[1:]))
        return links

    @property
    def interior_nodes(self) -> tuple[NodeId, ...]:
        """Nodes strictly between source and destination."""
        return self._nodes[1:-1]

    # ------------------------------------------------------------------
    # component sets
    # ------------------------------------------------------------------
    @property
    def components(self) -> frozenset:
        """All components of the path: every node (endpoints included) and
        every link, built on first use.  This is the paper's literal
        component count ``c(M)``."""
        components = self._components
        if components is None:
            components = self._components = (
                frozenset(self._nodes) | frozenset(self.links)
            )
        return components

    @property
    def transit_components(self) -> frozenset:
        """Components excluding the endpoint nodes, built on first use.

        A failure of an endpoint makes the connection unrecoverable by any
        protocol, so the evaluation excludes such connections (Section 7.2);
        this set answers "does this *recoverable* failure hit the path?".
        """
        transit = self._transit
        if transit is None:
            transit = self._transit = (
                frozenset(self.interior_nodes) | frozenset(self.links)
            )
        return transit

    def component_count(self, count_endpoints: bool = True) -> int:
        """``c(M)`` — the number of failure-prone components of the path.

        ``hops + 1`` distinct nodes and ``hops`` distinct links, less the
        two endpoints when they do not count; no set is built.
        """
        hops = len(self._nodes) - 1
        return 2 * hops + 1 if count_endpoints else 2 * hops - 1

    def intersects(self, components: frozenset | set) -> bool:
        """Whether any of ``components`` lies on this path."""
        # Iterate the smaller set for speed; failure sets are tiny.
        own = self.components
        if len(components) <= len(own):
            return any(item in own for item in components)
        return any(item in components for item in own)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, topology: Topology) -> "Path":
        """Check every hop exists in ``topology``; returns ``self``."""
        for link in self.links:
            if not topology.has_link(link.src, link.dst):
                raise ValueError(
                    f"path uses non-existent link {link} in {topology.name}"
                )
        return self

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.hops

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._nodes == other._nodes

    def __hash__(self) -> int:
        return hash(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Path({' -> '.join(str(node) for node in self._nodes)})"


def shared_component_count(path_a: Path, path_b: Path,
                           count_endpoints: bool = True) -> int:
    """``sc(M_i, M_j)`` — components common to both paths (Section 3.2)."""
    if count_endpoints:
        return len(path_a.components & path_b.components)
    return len(path_a.transit_components & path_b.transit_components)
