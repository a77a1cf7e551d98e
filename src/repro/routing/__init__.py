"""Routing substrate: paths, constrained shortest paths, disjoint paths.

The paper routes channels with a *sequential shortest-path search*: the
primary over a shortest feasible path, then each backup over a shortest
feasible path that avoids the components already used by the connection
(Section 7).  :func:`~repro.routing.disjoint.sequential_disjoint_paths`
implements exactly that; Yen's k-shortest-paths is provided for the
cost-biased backup-routing ablation.
"""

from repro.routing.disjoint import DisjointPathError, sequential_disjoint_paths
from repro.routing.flatgraph import (
    FlatTopology,
    StaleFlatViewError,
    flat_view,
)
from repro.routing.ksp import k_shortest_paths
from repro.routing.paths import Path
from repro.routing.shortest import (
    NoPathError,
    RouteConstraints,
    hop_distance,
    shortest_path,
)

__all__ = [
    "Path",
    "RouteConstraints",
    "shortest_path",
    "hop_distance",
    "NoPathError",
    "sequential_disjoint_paths",
    "DisjointPathError",
    "k_shortest_paths",
    "FlatTopology",
    "StaleFlatViewError",
    "flat_view",
]
