"""Topology generators.

The paper evaluates on an 8x8 torus (wrapped mesh, 200 Mbps simplex links)
and an 8x8 mesh (300 Mbps simplex links); :func:`torus` and :func:`mesh`
reproduce those.  The remaining generators support the topology-sensitivity
experiments (Section 7.1 notes multiplexing is "less effective in
sparsely-connected networks") and general library use.

All generators label nodes with consecutive integers starting at 0 and
create *duplex* connections (two simplex links) between neighbours, per the
paper's network model.
"""

from __future__ import annotations

import random

from repro.network.components import NodeId
from repro.network.topology import Topology
from repro.util.rng import make_rng
from repro.util.validation import check_positive


def _grid_node(row: int, col: int, cols: int) -> int:
    return row * cols + col


def torus(rows: int, cols: int, capacity: float = 200.0) -> Topology:
    """A ``rows x cols`` torus (wrapped mesh) with duplex neighbour links.

    Default capacity 200 Mbps matches the paper's 8x8 torus configuration.
    """
    if rows < 2 or cols < 2:
        raise ValueError(f"torus needs at least 2x2 nodes, got {rows}x{cols}")
    check_positive(capacity, "capacity")
    topology = Topology(name=f"{rows}x{cols} torus")
    for row in range(rows):
        for col in range(cols):
            topology.add_node(_grid_node(row, col, cols))
    for row in range(rows):
        for col in range(cols):
            node = _grid_node(row, col, cols)
            right = _grid_node(row, (col + 1) % cols, cols)
            down = _grid_node((row + 1) % rows, col, cols)
            # A 2-wide ring would otherwise create duplicate right/left links.
            if cols > 2 or col == 0:
                topology.add_duplex_link(node, right, capacity)
            if rows > 2 or row == 0:
                topology.add_duplex_link(node, down, capacity)
    return topology


def mesh(rows: int, cols: int, capacity: float = 300.0) -> Topology:
    """A ``rows x cols`` mesh (grid without wraparound links).

    Default capacity 300 Mbps matches the paper's 8x8 mesh configuration,
    chosen so total capacity is comparable to the 200 Mbps torus.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"mesh needs at least 2 nodes, got {rows}x{cols}")
    check_positive(capacity, "capacity")
    topology = Topology(name=f"{rows}x{cols} mesh")
    for row in range(rows):
        for col in range(cols):
            topology.add_node(_grid_node(row, col, cols))
    for row in range(rows):
        for col in range(cols):
            node = _grid_node(row, col, cols)
            if col + 1 < cols:
                topology.add_duplex_link(node, _grid_node(row, col + 1, cols), capacity)
            if row + 1 < rows:
                topology.add_duplex_link(node, _grid_node(row + 1, col, cols), capacity)
    return topology


def ring(num_nodes: int, capacity: float = 200.0) -> Topology:
    """A bidirectional ring — the sparsest 2-connected topology."""
    if num_nodes < 3:
        raise ValueError(f"ring needs at least 3 nodes, got {num_nodes}")
    check_positive(capacity, "capacity")
    topology = Topology(name=f"{num_nodes}-ring")
    for node in range(num_nodes):
        topology.add_node(node)
    for node in range(num_nodes):
        topology.add_duplex_link(node, (node + 1) % num_nodes, capacity)
    return topology


def line(num_nodes: int, capacity: float = 200.0) -> Topology:
    """A linear chain of nodes; useful in protocol unit tests."""
    if num_nodes < 2:
        raise ValueError(f"line needs at least 2 nodes, got {num_nodes}")
    check_positive(capacity, "capacity")
    topology = Topology(name=f"{num_nodes}-line")
    for node in range(num_nodes):
        topology.add_node(node)
    for node in range(num_nodes - 1):
        topology.add_duplex_link(node, node + 1, capacity)
    return topology


def star(num_leaves: int, capacity: float = 200.0) -> Topology:
    """A hub (node 0) with ``num_leaves`` spokes; 1-connected by design."""
    if num_leaves < 1:
        raise ValueError(f"star needs at least 1 leaf, got {num_leaves}")
    check_positive(capacity, "capacity")
    topology = Topology(name=f"{num_leaves}-star")
    topology.add_node(0)
    for leaf in range(1, num_leaves + 1):
        topology.add_duplex_link(0, leaf, capacity)
    return topology


def hypercube(dimension: int, capacity: float = 200.0) -> Topology:
    """A binary hypercube of the given dimension (2**d nodes)."""
    if dimension < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {dimension}")
    check_positive(capacity, "capacity")
    topology = Topology(name=f"{dimension}-cube")
    size = 1 << dimension
    for node in range(size):
        topology.add_node(node)
    for node in range(size):
        for bit in range(dimension):
            neighbour = node ^ (1 << bit)
            if neighbour > node:
                topology.add_duplex_link(node, neighbour, capacity)
    return topology


def complete_graph(num_nodes: int, capacity: float = 200.0) -> Topology:
    """A fully-connected topology — the densest extreme for sensitivity runs."""
    if num_nodes < 2:
        raise ValueError(f"complete graph needs at least 2 nodes, got {num_nodes}")
    check_positive(capacity, "capacity")
    topology = Topology(name=f"K{num_nodes}")
    for node in range(num_nodes):
        topology.add_node(node)
    for a in range(num_nodes):
        for b in range(a + 1, num_nodes):
            topology.add_duplex_link(a, b, capacity)
    return topology


def check_regular(num_nodes: int, degree: int) -> None:
    """Raise unless a ``degree``-regular simple graph on ``num_nodes``
    nodes exists."""
    if not 0 <= degree < num_nodes:
        raise ValueError(
            f"random regular graph needs 0 <= degree < nodes, got degree "
            f"{degree} on {num_nodes} nodes"
        )
    if num_nodes * degree % 2:
        raise ValueError(
            f"random regular graph needs nodes * degree even, got "
            f"{num_nodes} * {degree}"
        )


def _joinable(edges: "set[tuple[int, int]]", leftover: "dict[int, int]") -> bool:
    """Whether some two leftover nodes are not yet joined — as ``networkx``
    decides it, which a seed's topology depends on: the swap below rebinds
    ``a`` for the rest of the inner loop, so a few pairs go untested and an
    attempt can be abandoned although a free pair was left."""
    if not leftover:
        return True
    for a in leftover:
        for b in leftover:
            if a == b:
                break
            if a > b:
                a, b = b, a
            if (a, b) not in edges:
                return True
    return False


def _regular_edge_set(num_nodes: int, degree: int,
                      rng: random.Random) -> "set[tuple[int, int]] | None":
    """One attempt at the Steger-Wormald pairing: shuffle the stub list,
    pair it off, and re-pair whatever formed a loop or a parallel edge.
    ``None`` when the leftover stubs can no longer be joined."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(num_nodes)) * degree
    while stubs:
        leftover: dict[int, int] = {}
        rng.shuffle(stubs)
        halves = iter(stubs)
        for a, b in zip(halves, halves):
            if a > b:
                a, b = b, a
            if a != b and (a, b) not in edges:
                edges.add((a, b))
            else:
                leftover[a] = leftover.get(a, 0) + 1
                leftover[b] = leftover.get(b, 0) + 1
        if not _joinable(edges, leftover):
            return None
        stubs = [node for node, count in leftover.items() for _ in range(count)]
    return edges


def random_regular(num_nodes: int, degree: int, capacity: float = 200.0,
                   seed: int | None = 0) -> Topology:
    """A random ``degree``-regular topology (duplex links).

    The pairing model of Steger and Wormald, restarted until an attempt
    succeeds — step for step what ``networkx.random_regular_graph`` does,
    and links are added in the order ``networkx`` lists that graph's
    edges, so a seed builds the topology it built when this function
    called ``networkx`` (``tests/test_network_generators.py`` holds the
    two together).  The default seed keeps experiment scripts reproducible.
    """
    check_regular(num_nodes, degree)
    check_positive(capacity, "capacity")
    rng = random.Random(make_rng(seed).getrandbits(32))
    edges = None
    while edges is None:
        edges = _regular_edge_set(num_nodes, degree, rng)
    topology = Topology(name=f"random {degree}-regular n={num_nodes}")
    for node in range(num_nodes):
        topology.add_node(node)
    # networkx's Graph.edges: nodes ascending, each node's neighbours in
    # the order the edge *set* yielded them — a stable sort of that order.
    for a, b in sorted(edges, key=lambda edge: edge[0]):
        topology.add_duplex_link(a, b, capacity)
    return topology


def tree(branching: int, depth: int, capacity: float = 200.0) -> Topology:
    """A balanced tree — 1-connected, the worst case for disjoint backups."""
    if branching < 1 or depth < 1:
        raise ValueError(
            f"tree needs branching >= 1 and depth >= 1, got {branching}, {depth}"
        )
    check_positive(capacity, "capacity")
    topology = Topology(name=f"tree b={branching} d={depth}")
    topology.add_node(0)
    next_id = 1
    frontier: list[NodeId] = [0]
    for _ in range(depth):
        new_frontier: list[NodeId] = []
        for parent in frontier:
            for _ in range(branching):
                child = next_id
                next_id += 1
                topology.add_duplex_link(parent, child, capacity)
                new_frontier.append(child)
        frontier = new_frontier
    return topology
