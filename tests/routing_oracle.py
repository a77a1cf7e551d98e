"""Reference oracles for the routing core.

The dict-based search kernels :mod:`repro.routing.shortest` ran on before
the flat-index core replaced them, kept as the behavioural oracle: the
flat kernels must return bit-identical paths, tie-breaks included, and the
golden equivalence tests (``test_flatgraph``, ``test_backup_routing``)
enforce it.

:func:`residual_topology` is the copy of a topology a failure leaves;
the product excludes the failed components from a search on the one
topology instead.

:func:`max_disjoint_paths` is the optimal (max-flow) disjoint-path count
the greedy sequential search of :mod:`repro.routing.disjoint` is checked
against; ``networkx`` is a test-only oracle (the ``dev`` extra), and
:func:`to_networkx` is how the tests hand it a topology.

They live here — not in ``src/`` — so the product has one routing path
and no comparison-only dependency.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable

import networkx as nx

from repro.network.components import LinkId, NodeId
from repro.network.topology import Topology
from repro.routing.paths import Path
from repro.routing.shortest import (
    LinkCost,
    NoPathError,
    RouteConstraints,
)


def reference_hop_distance(topology: Topology, src: NodeId, dst: NodeId) -> int:
    """Reference (dict-based, early-exit BFS) ``hop_distance``."""
    if not topology.has_node(src) or not topology.has_node(dst):
        raise NoPathError(src, dst, "unknown endpoint")
    if src == dst:
        return 0
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        node, dist = frontier.popleft()
        for neighbour in topology.successors(node):
            if neighbour == dst:
                return dist + 1
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append((neighbour, dist + 1))
    raise NoPathError(src, dst, "disconnected")


def reference_shortest_path(
    topology: Topology,
    src: NodeId,
    dst: NodeId,
    constraints: RouteConstraints | None = None,
    cost: LinkCost | None = None,
) -> Path:
    """Reference (dict-based) ``shortest_path`` — identical contract.

    Kept as the behavioural oracle: the flat-index kernels must return
    bit-identical paths, and the golden equivalence tests enforce it.
    """
    constraints = constraints or RouteConstraints()
    if src == dst:
        raise ValueError(f"source and destination are both {src!r}")
    if not topology.has_node(src) or not topology.has_node(dst):
        raise NoPathError(src, dst, "unknown endpoint")
    if not constraints.allows_source(src) or dst in constraints.excluded_nodes:
        raise NoPathError(src, dst, "endpoint excluded")
    if cost is None:
        return _bfs(topology, src, dst, constraints)
    return _dijkstra(topology, src, dst, constraints, cost)


def _bfs(topology: Topology, src: NodeId, dst: NodeId,
         constraints: RouteConstraints) -> Path:
    parent: dict[NodeId, NodeId] = {src: src}
    frontier = deque([(src, 0)])
    max_hops = constraints.max_hops
    while frontier:
        node, dist = frontier.popleft()
        if max_hops is not None and dist >= max_hops:
            continue
        for neighbour in topology.successors(node):
            if neighbour in parent:
                continue
            if not constraints.allows_link(topology.link(node, neighbour)):
                continue
            parent[neighbour] = node
            if neighbour == dst:
                return _reconstruct(parent, src, dst)
            frontier.append((neighbour, dist + 1))
    raise NoPathError(src, dst, "constraints unsatisfiable")


def _dijkstra(topology: Topology, src: NodeId, dst: NodeId,
              constraints: RouteConstraints, cost: LinkCost) -> Path:
    # Heap entries carry a monotone counter so ties never compare node ids.
    counter = 0
    best: dict[NodeId, float] = {src: 0.0}
    parent: dict[NodeId, NodeId] = {src: src}
    hops: dict[NodeId, int] = {src: 0}
    heap: list[tuple[float, int, NodeId]] = [(0.0, counter, src)]
    done: set[NodeId] = set()
    max_hops = constraints.max_hops
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == dst:
            return _reconstruct(parent, src, dst)
        done.add(node)
        if max_hops is not None and hops[node] >= max_hops:
            continue
        for neighbour in topology.successors(node):
            if neighbour in done:
                continue
            link = topology.link(node, neighbour)
            if not constraints.allows_link(link):
                continue
            link_cost = cost(link)
            if link_cost < 0:
                raise ValueError(f"negative link cost {link_cost!r} on {link}")
            candidate = dist + link_cost
            if candidate < best.get(neighbour, float("inf")):
                best[neighbour] = candidate
                parent[neighbour] = node
                hops[neighbour] = hops[node] + 1
                counter += 1
                heapq.heappush(heap, (candidate, counter, neighbour))
    raise NoPathError(src, dst, "constraints unsatisfiable")


def _reconstruct(parent: dict[NodeId, NodeId], src: NodeId, dst: NodeId) -> Path:
    nodes = [dst]
    while nodes[-1] != src:
        nodes.append(parent[nodes[-1]])
    nodes.reverse()
    return Path(nodes)


def residual_topology(topology: Topology, failed_nodes: Iterable[NodeId] = (),
                      failed_links: Iterable[LinkId] = ()) -> Topology:
    """A copy of ``topology`` with the given components removed: the
    residual network a failure leaves, as a graph of its own.

    The reactive re-establishment baseline searches the network's own
    topology with the failed components excluded instead;
    ``test_exclusion_routing`` holds the two equal.
    """
    dead_nodes = set(failed_nodes)
    dead_links = set(failed_links)
    residual = Topology(name=f"{topology.name} (residual)")
    for node in topology.nodes():
        if node not in dead_nodes:
            residual.add_node(node)
    for link in topology.links():
        if (link in dead_links or link.src in dead_nodes
                or link.dst in dead_nodes):
            continue
        residual.add_link(link.src, link.dst, topology.capacity(link))
    return residual


def to_networkx(topology: Topology) -> nx.DiGraph:
    """``topology`` as a ``networkx.DiGraph`` with ``capacity`` link
    attributes — what every ``networkx`` comparison in the tests runs on."""
    graph = nx.DiGraph(name=topology.name)
    graph.add_nodes_from(topology.nodes())
    for link in topology.links():
        graph.add_edge(link.src, link.dst, capacity=topology.capacity(link))
    return graph


def max_disjoint_paths(topology: Topology, src: NodeId, dst: NodeId) -> list[Path]:
    """Maximum set of node-disjoint paths via max-flow (comparison utility).

    This corresponds to the optimal algorithms the paper cites [WHA90,
    SID91].  It ignores capacity and QoS constraints and is used to verify
    the greedy search and to probe topological limits (e.g. why the 8x8
    mesh cannot support double backups at its corners).
    """
    graph = to_networkx(topology)
    paths = list(nx.node_disjoint_paths(graph, src, dst))
    return [Path(nodes) for nodes in paths]
