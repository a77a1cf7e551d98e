"""Constrained shortest-path search.

Channels are routed over *feasible* shortest paths: links must pass an
admission predicate (enough free bandwidth), certain components may be
excluded (a backup avoids its primary's components), and the total length
must respect the delay QoS (at most ``shortest + slack`` hops, Section 7).

Hop-count search uses BFS; an optional per-link cost function switches to
Dijkstra, which the cost-biased backup-routing ablation uses.

Both searches execute on the flat-index routing core
(:mod:`repro.routing.flatgraph`): the topology is compiled once into
integer CSR arrays, searches reuse epoch-stamped buffers, and cacheable
results are memoised.  The original dict-based kernels live beside the
tests (``tests/routing_oracle.py``) as the reference the golden-path
equivalence tests hold this module to: bit-identical paths, tie-breaks
included.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.network.components import LinkId, NodeId
from repro.network.topology import Topology
from repro.routing.flatgraph import flat_view
from repro.routing.paths import Path

LinkPredicate = Callable[[LinkId], bool]
LinkCost = Callable[[LinkId], float]


class NoPathError(Exception):
    """Raised when no feasible path exists under the given constraints."""

    def __init__(self, src: NodeId, dst: NodeId, reason: str = "") -> None:
        detail = f" ({reason})" if reason else ""
        super().__init__(f"no feasible path from {src!r} to {dst!r}{detail}")
        self.src = src
        self.dst = dst


@dataclass(frozen=True)
class RouteConstraints:
    """Constraints applied during path search.

    Attributes
    ----------
    excluded_nodes / excluded_links:
        Components the path must avoid (used for disjoint backup routing and
        for routing around failures).  Excluding the source or destination
        makes every search fail, by design.
    link_admissible:
        Per-link predicate; links failing it are skipped.  Establishment
        passes a closure over the reservation ledger here.
    max_hops:
        Inclusive upper bound on path length, or ``None`` for unbounded.
        The paper's delay QoS translates to ``shortest_possible + 2``.
    """

    excluded_nodes: frozenset = field(default_factory=frozenset)
    excluded_links: frozenset = field(default_factory=frozenset)
    link_admissible: LinkPredicate | None = None
    max_hops: int | None = None

    def allows_link(self, link: LinkId) -> bool:
        """Whether the search may traverse ``link``."""
        if link in self.excluded_links:
            return False
        if link.dst in self.excluded_nodes:
            return False
        if self.link_admissible is not None and not self.link_admissible(link):
            return False
        return True

    def allows_source(self, node: NodeId) -> bool:
        """Whether the search may start at ``node``."""
        return node not in self.excluded_nodes


def hop_distance(topology: Topology, src: NodeId, dst: NodeId) -> int:
    """Unconstrained hop count of the shortest path from ``src`` to ``dst``.

    This is the paper's "shortest-possible path" length used as the baseline
    of the delay QoS.  Raises :class:`NoPathError` if ``dst`` is unreachable
    or either endpoint is not in ``topology``.

    Runs on the flat routing core: the depth of ``dst`` in the cached BFS
    tree of ``src``, which also answers ``src``'s exclusion-free routes.
    """
    if not topology.has_node(src) or not topology.has_node(dst):
        raise NoPathError(src, dst, "unknown endpoint")
    if src == dst:
        return 0
    dist = flat_view(topology).hop_distance(src, dst)
    if dist < 0:
        raise NoPathError(src, dst, "disconnected")
    return dist


def shortest_path(
    topology: Topology,
    src: NodeId,
    dst: NodeId,
    constraints: RouteConstraints | None = None,
    cost: LinkCost | None = None,
) -> Path:
    """Shortest feasible path from ``src`` to ``dst``.

    With ``cost=None`` the metric is hop count (BFS).  With a cost function
    the metric is total link cost (Dijkstra) and ``max_hops`` still bounds
    the *hop* count, so a cost-biased route cannot violate the delay QoS.

    Ties are broken deterministically by node insertion order, making whole
    experiments reproducible without a seed.

    Runs on the flat routing core.
    """
    constraints = constraints or RouteConstraints()
    if src == dst:
        raise ValueError(f"source and destination are both {src!r}")
    if not topology.has_node(src) or not topology.has_node(dst):
        raise NoPathError(src, dst, "unknown endpoint")
    if not constraints.allows_source(src) or dst in constraints.excluded_nodes:
        raise NoPathError(src, dst, "endpoint excluded")
    path = flat_view(topology).search(src, dst, constraints, cost)
    if path is None:
        raise NoPathError(src, dst, "constraints unsatisfiable")
    return path
