"""Network substrate: topologies, components, and reservation ledgers.

This package models the physical multi-hop network of the paper: nodes
joined by pairs of *simplex* (uni-directional) links, each link with a
fixed bandwidth capacity.  Topologies are static; runtime health and
bandwidth bookkeeping live in :class:`~repro.network.reservations.ReservationLedger`
and in the fault-injection layer.
"""

from repro.network.components import LinkId, NodeId
from repro.network.generators import (
    complete_graph,
    hypercube,
    line,
    mesh,
    random_regular,
    ring,
    star,
    torus,
    tree,
)
from repro.network.io import from_edge_list
from repro.network.reservations import LinkLedger, ReservationLedger
from repro.network.topology import Topology

__all__ = [
    "NodeId",
    "LinkId",
    "Topology",
    "LinkLedger",
    "ReservationLedger",
    "torus",
    "mesh",
    "ring",
    "line",
    "star",
    "hypercube",
    "complete_graph",
    "random_regular",
    "tree",
    "from_edge_list",
]
