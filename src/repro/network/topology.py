"""Static network topology: nodes and capacitated simplex links.

A :class:`Topology` is the substrate under everything else — routing,
reservation ledgers, the BCP establishment machinery, the discrete-event
protocol runtime, and fault injection all take one.  It is built once
(``add_node`` / ``add_link``, typically by a generator in
:mod:`repro.network.generators`) and never changes after that: the first
:class:`~repro.network.reservations.ReservationLedger` or compiled flat
routing view built on it freezes it, and a later ``add_node`` /
``add_link`` raises ``ValueError``.  A failure is not a smaller topology
but a set of components a search excludes.
"""

from __future__ import annotations

from collections.abc import Iterator

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
        #: Set by :meth:`freeze`; kept in pickles.
        self._frozen = False
        #: Compiled flat view (see :mod:`repro.routing.flatgraph`), built
        #: lazily by the first search.
        self._flat = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Fix the node and link sets for good.  The first ledger or flat
        view built on this topology calls it: both index the links by
        position, so a later addition would misalign them."""
        self._frozen = True

    def add_node(self, node: NodeId) -> NodeId:
        """Add ``node`` if absent; returns the node id for chaining."""
        self._check_unfrozen()
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}
        return node

    def add_link(self, src: NodeId, dst: NodeId, capacity: float) -> LinkId:
        """Add one simplex link from ``src`` to ``dst``.

        Endpoints are created implicitly.  Re-adding an existing link is an
        error: the network model has at most one simplex link per ordered
        node pair.
        """
        self._check_unfrozen()
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
        return link

    def add_duplex_link(self, a: NodeId, b: NodeId, capacity: float) -> tuple[LinkId, LinkId]:
        """Add the two simplex links between ``a`` and ``b`` (paper's model)."""
        return (self.add_link(a, b, capacity), self.add_link(b, a, capacity))

    def _check_unfrozen(self) -> None:
        if self._frozen:
            raise ValueError(
                f"topology {self.name!r} is frozen: a ledger or routing view "
                "uses it, so its nodes and links can no longer change"
            )

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
        *network-load* and *spare-bandwidth* percentages)."""
        return sum(self._capacity.values())

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
    # dunder
    # ------------------------------------------------------------------
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
