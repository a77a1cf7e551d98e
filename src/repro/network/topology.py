"""Static network topology: nodes and capacitated simplex links.

A :class:`Topology` is the immutable substrate under everything else —
routing, reservation ledgers, the BCP establishment machinery, the
discrete-event protocol runtime, and fault injection all take one.  It is
mutable while being built (``add_node`` / ``add_link``) and is typically
produced by a generator in :mod:`repro.network.generators`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.network.components import LinkId, NodeId
from repro.util.validation import check_positive

class Topology:
    """A directed graph of nodes and capacitated simplex links.

    Parameters
    ----------
    name:
        Human-readable label used in experiment reports (e.g. ``"8x8 torus"``).
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._out: dict[NodeId, dict[NodeId, LinkId]] = {}
        self._in: dict[NodeId, dict[NodeId, LinkId]] = {}
        self._capacity: dict[LinkId, float] = {}
        #: Monotonic structure counter; bumped by every actual node/link
        #: insertion.  Derived views (the flat routing core's CSR arrays,
        #: the cached total capacity) key their caches on it.
        self._version = 0
        #: Compiled flat view (see :mod:`repro.routing.flatgraph`), built
        #: lazily and discarded whenever :attr:`version` moves on.
        self._flat = None
        self._total_capacity_cache: "tuple[int, float] | None" = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter, bumped on ``add_node``/``add_link``."""
        return self._version

    def add_node(self, node: NodeId) -> NodeId:
        """Add ``node`` if absent; returns the node id for chaining."""
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}
            self._version += 1
        return node

    def add_link(self, src: NodeId, dst: NodeId, capacity: float) -> LinkId:
        """Add one simplex link from ``src`` to ``dst``.

        Endpoints are created implicitly.  Re-adding an existing link is an
        error: the network model has at most one simplex link per ordered
        node pair.
        """
        if src == dst:
            raise ValueError(f"self-loop links are not allowed (node {src!r})")
        check_positive(capacity, "capacity")
        self.add_node(src)
        self.add_node(dst)
        if dst in self._out[src]:
            raise ValueError(f"link {src!r}->{dst!r} already exists")
        link = LinkId(src, dst)
        self._out[src][dst] = link
        self._in[dst][src] = link
        self._capacity[link] = float(capacity)
        self._version += 1
        return link

    def add_duplex_link(self, a: NodeId, b: NodeId, capacity: float) -> tuple[LinkId, LinkId]:
        """Add the two simplex links between ``a`` and ``b`` (paper's model)."""
        return (self.add_link(a, b, capacity), self.add_link(b, a, capacity))

    def invalidate(self) -> int:
        """Force every derived view to recompile: bump :attr:`version` and
        drop the compiled flat view and capacity cache.

        Snapshot *restore* rewrites reservation state out from under
        anything keyed on this topology; restoring through this method
        guarantees no consumer — flat-view CSR arrays, route-cache floor
        tables, mux-kernel arena rows — can keep serving pre-restore
        state.  Returns the new version.
        """
        self._version += 1
        self._flat = None
        self._total_capacity_cache = None
        return self._version

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def num_links(self) -> int:
        return len(self._capacity)

    def nodes(self) -> Iterator[NodeId]:
        """All node ids, in insertion order."""
        return iter(self._out)

    def links(self) -> Iterator[LinkId]:
        """All simplex link ids, in insertion order."""
        return iter(self._capacity)

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` exists."""
        return node in self._out

    def has_link(self, src: NodeId, dst: NodeId) -> bool:
        """Whether the simplex link ``src``->``dst`` exists."""
        return src in self._out and dst in self._out[src]

    def link(self, src: NodeId, dst: NodeId) -> LinkId:
        """The simplex link from ``src`` to ``dst``; raises ``KeyError`` if absent."""
        try:
            return self._out[src][dst]
        except KeyError:
            raise KeyError(f"no link {src!r}->{dst!r} in {self.name}") from None

    def capacity(self, link: LinkId) -> float:
        """Bandwidth capacity of ``link``."""
        return self._capacity[link]

    def total_capacity(self) -> float:
        """Sum of all simplex-link capacities (denominator of the paper's
        *network-load* and *spare-bandwidth* percentages).

        Cached per :attr:`version`, so repeated metric reads on a settled
        topology don't re-walk the capacity table.
        """
        cached = self._total_capacity_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        total = sum(self._capacity.values())
        self._total_capacity_cache = (self._version, total)
        return total

    def successors(self, node: NodeId) -> Iterator[NodeId]:
        """Nodes reachable from ``node`` over one outgoing link."""
        return iter(self._out[node])

    def predecessors(self, node: NodeId) -> Iterator[NodeId]:
        """Nodes with a link into ``node``."""
        return iter(self._in[node])

    def out_edges(self, node: NodeId) -> Iterator[tuple[NodeId, LinkId]]:
        """``(neighbour, link)`` pairs for ``node``'s outgoing links,
        in insertion order (the deterministic tie-break order)."""
        return iter(self._out[node].items())

    def incident_links(self, node: NodeId) -> list[LinkId]:
        """All simplex links touching ``node`` (both directions).

        A node crash implicitly disables every link in this list, which is
        how the fault models expand node failures.
        """
        return list(self._out[node].values()) + list(self._in[node].values())

    # ------------------------------------------------------------------
    # derived topologies / dunder
    # ------------------------------------------------------------------
    def subgraph_without(self, failed_nodes: Iterable[NodeId] = (),
                         failed_links: Iterable[LinkId] = ()) -> "Topology":
        """A copy of this topology with the given components removed.

        Used by the reactive re-establishment baseline, which routes in the
        residual network after a failure.
        """
        dead_nodes = set(failed_nodes)
        dead_links = set(failed_links)
        residual = Topology(name=f"{self.name} (residual)")
        for node in self._out:
            if node not in dead_nodes:
                residual.add_node(node)
        for link, cap in self._capacity.items():
            if (link in dead_links or link.src in dead_nodes
                    or link.dst in dead_nodes):
                continue
            residual.add_link(link.src, link.dst, cap)
        return residual

    def __getstate__(self) -> dict:
        # The flat view holds array buffers and a route cache that are
        # cheap to rebuild but expensive to ship to worker processes —
        # drop it from pickles (the receiver recompiles on first search).
        state = self.__dict__.copy()
        state["_flat"] = None
        return state

    def __contains__(self, item: object) -> bool:
        if isinstance(item, LinkId):
            return item in self._capacity
        return item in self._out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Topology({self.name!r}, nodes={self.num_nodes}, "
                f"links={self.num_links})")
