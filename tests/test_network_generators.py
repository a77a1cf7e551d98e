"""Tests for repro.network.generators."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.network import (
    LinkId,
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
from tests.routing_oracle import residual_topology, to_networkx


def _is_strongly_connected(topology) -> bool:
    return nx.is_strongly_connected(to_networkx(topology))


def _degrees(topology) -> set:
    """The out- and in-degrees that occur in ``topology``."""
    return {
        len(list(neighbours(node)))
        for node in topology.nodes()
        for neighbours in (topology.successors, topology.predecessors)
    }


class TestTorus:
    def test_paper_configuration(self):
        topology = torus(8, 8)
        assert topology.num_nodes == 64
        # 4 neighbours per node, two simplex links each pair: 64*4 directed.
        assert topology.num_links == 256
        assert topology.capacity(LinkId(0, 1)) == 200.0

    def test_every_node_has_degree_four(self):
        topology = torus(8, 8)
        assert _degrees(topology) == {4}

    def test_wraparound_links_exist(self):
        topology = torus(4, 4)
        assert topology.has_link(0, 3)  # row wrap
        assert topology.has_link(0, 12)  # column wrap

    def test_connected(self):
        assert _is_strongly_connected(torus(3, 5))

    def test_two_wide_torus_has_no_duplicate_links(self):
        topology = torus(2, 2)
        assert topology.num_links == 8  # 4 duplex pairs, no duplicates

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            torus(1, 8)


class TestMesh:
    def test_paper_configuration(self):
        topology = mesh(8, 8)
        # 2*8*7 undirected grid edges, two simplex links each.
        assert topology.num_links == 224
        assert topology.capacity(LinkId(0, 1)) == 300.0

    def test_no_wraparound(self):
        topology = mesh(4, 4)
        assert not topology.has_link(0, 3)
        assert not topology.has_link(0, 12)

    def test_corner_degree_two(self):
        topology = mesh(8, 8)
        assert len(list(topology.successors(0))) == 2

    def test_connected(self):
        assert _is_strongly_connected(mesh(3, 4))


class TestOtherGenerators:
    def test_ring(self):
        topology = ring(6)
        assert topology.num_nodes == 6
        assert topology.num_links == 12
        assert _is_strongly_connected(topology)

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            ring(2)

    def test_line(self):
        topology = line(4)
        assert topology.num_links == 6
        assert not topology.has_link(0, 3)

    def test_star_hub_degree(self):
        topology = star(5)
        assert len(list(topology.successors(0))) == 5
        assert len(list(topology.successors(3))) == 1

    def test_hypercube(self):
        topology = hypercube(3)
        assert topology.num_nodes == 8
        assert topology.num_links == 8 * 3  # degree 3, directed
        assert _is_strongly_connected(topology)

    def test_complete(self):
        topology = complete_graph(5)
        assert topology.num_links == 5 * 4

    def test_random_regular_is_regular_and_reproducible(self):
        a = random_regular(10, 3, seed=1)
        b = random_regular(10, 3, seed=1)
        assert _degrees(a) == {3}
        assert list(a.links()) == list(b.links())

    @pytest.mark.parametrize("nodes, degree", [
        (8, 8),    # degree >= nodes
        (8, -1),
        (9, 3),    # nodes * degree odd
    ])
    def test_random_regular_rejects_impossible_degrees(self, nodes, degree):
        with pytest.raises(ValueError, match="random regular"):
            random_regular(nodes, degree)

    @pytest.mark.parametrize("nodes, degree", [
        (nodes, degree)
        for nodes in (4, 6, 8, 9, 16, 32, 64) for degree in (2, 3, 4, 5)
        if degree < nodes and nodes * degree % 2 == 0
    ])
    def test_random_regular_is_networkx_edge_for_edge(self, nodes, degree):
        """The generator once called ``networkx.random_regular_graph`` and
        added a duplex link per edge of ``graph.edges``; the port must add
        the same links in the same order — link insertion order is every
        routing tie-break."""
        for seed in range(40):
            graph = nx.random_regular_graph(
                degree, nodes, seed=random.Random(seed).getrandbits(32)
            )
            expected = [
                link for a, b in graph.edges for link in (LinkId(a, b), LinkId(b, a))
            ]
            built = random_regular(nodes, degree, seed=seed)
            assert list(built.links()) == expected, (nodes, degree, seed)

    def test_tree_node_count(self):
        topology = tree(branching=2, depth=3)
        assert topology.num_nodes == 1 + 2 + 4 + 8

    def test_tree_is_1_connected(self):
        topology = tree(branching=2, depth=2)
        # Removing the root disconnects the leaves.
        residual = residual_topology(topology, failed_nodes=[0])
        assert not _is_strongly_connected(residual)

    @pytest.mark.parametrize("factory", [line, ring, star, complete_graph])
    def test_capacity_validation(self, factory):
        with pytest.raises(ValueError, match="capacity"):
            factory(4, capacity=-1.0)
