"""Routing substrate: paths and constrained shortest paths.

The paper routes channels with a *sequential shortest-path search*: the
primary over a shortest feasible path, then each backup over a shortest
feasible path that avoids the components already used by the connection
(Section 7).  Establishment runs that sequence itself
(:mod:`repro.core.establishment`), one :func:`shortest_path` call per
channel over the flat CSR view of :mod:`repro.routing.flatgraph`.
"""

from repro.routing.disjoint import DisjointPathError, sequential_disjoint_paths
from repro.routing.flatgraph import FlatTopology, flat_view
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
    "FlatTopology",
    "flat_view",
]
