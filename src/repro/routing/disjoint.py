"""Sequential disjoint-path routing.

The paper routes the channels of a D-connection "disjointly by a sequential
shortest-path search algorithm.  Thus, the primary channel was routed first
over a shortest path, then the backup was routed without using the
components of the primary channel" (Section 7).  This module implements
that greedy strategy: each successive path avoids the interior nodes and
all links of every previously routed path.

Greedy sequential search is not maximally disjoint (unlike the max-flow
based algorithms of [WHA90, SID91] cited by the paper), but it is the
algorithm the evaluation actually uses, and it is what we reproduce.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.network.components import NodeId
from repro.network.topology import Topology
from repro.routing.paths import Path
from repro.routing.shortest import (
    LinkCost,
    NoPathError,
    RouteConstraints,
    shortest_path,
)


class DisjointPathError(Exception):
    """Raised when the requested number of disjoint paths cannot be found."""

    def __init__(self, src: NodeId, dst: NodeId, found: Sequence[Path],
                 wanted: int) -> None:
        super().__init__(
            f"only {len(found)} of {wanted} disjoint paths exist "
            f"from {src!r} to {dst!r}"
        )
        self.src = src
        self.dst = dst
        self.found = list(found)
        self.wanted = wanted


def _avoiding(base: RouteConstraints, routed: Sequence[Path]) -> RouteConstraints:
    """Constraints that additionally exclude the components of ``routed``.

    Endpoint nodes are shared by construction, so only interior nodes and
    links are excluded.
    """
    excluded_nodes = set(base.excluded_nodes)
    excluded_links = set(base.excluded_links)
    for path in routed:
        excluded_nodes.update(path.interior_nodes)
        excluded_links.update(path.links)
    return RouteConstraints(
        excluded_nodes=frozenset(excluded_nodes),
        excluded_links=frozenset(excluded_links),
        link_admissible=base.link_admissible,
        max_hops=base.max_hops,
    )


def sequential_disjoint_paths(
    topology: Topology,
    src: NodeId,
    dst: NodeId,
    count: int,
    constraints: RouteConstraints | None = None,
    cost: LinkCost | None = None,
) -> list[Path]:
    """Route ``count`` mutually disjoint paths by greedy sequential search.

    The first path is a shortest feasible path; each subsequent path is a
    shortest feasible path avoiding all components of its predecessors.
    Raises :class:`DisjointPathError` (carrying the paths found so far in
    ``found``) when fewer than ``count`` exist under the constraints.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base = constraints or RouteConstraints()
    routed: list[Path] = []
    for _ in range(count):
        try:
            routed.append(
                shortest_path(topology, src, dst, _avoiding(base, routed), cost)
            )
        except NoPathError:
            raise DisjointPathError(src, dst, routed, count) from None
    return routed
