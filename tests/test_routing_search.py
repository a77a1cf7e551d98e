"""Tests for repro.routing: shortest paths and disjoint routing."""

from __future__ import annotations

import pytest

from repro.network import LinkId, Topology, mesh, ring, torus
from repro.routing import (
    DisjointPathError,
    NoPathError,
    RouteConstraints,
    hop_distance,
    sequential_disjoint_paths,
    shortest_path,
)
from tests.routing_oracle import max_disjoint_paths


class TestHopDistance:
    def test_adjacent(self):
        assert hop_distance(torus(4, 4), 0, 1) == 1

    def test_torus_wraparound_shortens(self):
        # 0 -> 3 in a 4-wide row: distance 1 via wrap, not 3.
        assert hop_distance(torus(4, 4), 0, 3) == 1

    def test_mesh_manhattan(self):
        assert hop_distance(mesh(4, 4), 0, 15) == 6

    def test_same_node_is_zero(self):
        assert hop_distance(torus(4, 4), 5, 5) == 0

    def test_disconnected_raises(self):
        topology = Topology()
        topology.add_node("a")
        topology.add_node("b")
        with pytest.raises(NoPathError):
            hop_distance(topology, "a", "b")


class TestShortestPath:
    def test_finds_shortest(self):
        path = shortest_path(torus(4, 4), 0, 5)
        assert path.hops == hop_distance(torus(4, 4), 0, 5)

    def test_deterministic(self):
        a = shortest_path(torus(8, 8), 0, 27)
        b = shortest_path(torus(8, 8), 0, 27)
        assert a == b

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            shortest_path(torus(4, 4), 3, 3)

    def test_excluded_node_avoided(self):
        topology = ring(6)
        constraints = RouteConstraints(excluded_nodes=frozenset({1}))
        path = shortest_path(topology, 0, 2, constraints)
        assert 1 not in path.nodes
        assert path.hops == 4  # forced the long way round

    def test_excluded_link_avoided(self):
        topology = ring(6)
        constraints = RouteConstraints(excluded_links=frozenset({LinkId(0, 1)}))
        path = shortest_path(topology, 0, 1, constraints)
        assert path.hops == 5

    def test_excluded_endpoint_fails(self):
        constraints = RouteConstraints(excluded_nodes=frozenset({0}))
        with pytest.raises(NoPathError):
            shortest_path(torus(4, 4), 0, 5, constraints)

    def test_max_hops_enforced(self):
        topology = ring(6)
        constraints = RouteConstraints(
            excluded_links=frozenset({LinkId(0, 1)}), max_hops=3
        )
        with pytest.raises(NoPathError):
            shortest_path(topology, 0, 1, constraints)

    def test_link_admission_predicate(self):
        topology = ring(6)
        constraints = RouteConstraints(
            link_admissible=lambda link: link != LinkId(0, 1)
        )
        assert shortest_path(topology, 0, 1, constraints).hops == 5

    def test_unknown_endpoint(self):
        with pytest.raises(NoPathError):
            shortest_path(torus(4, 4), 0, 999)


class TestDijkstraCosts:
    def test_cost_function_changes_route(self):
        topology = ring(4)  # 0-1-2-3-0
        # Make the direct hop 0->1 very expensive.
        cost = lambda link: 100.0 if link == LinkId(0, 1) else 1.0
        path = shortest_path(topology, 0, 1, cost=cost)
        assert path.nodes == (0, 3, 2, 1)

    def test_cost_respects_max_hops(self):
        topology = ring(4)
        cost = lambda link: 100.0 if link == LinkId(0, 1) else 1.0
        constraints = RouteConstraints(max_hops=1)
        path = shortest_path(topology, 0, 1, constraints, cost=cost)
        assert path.hops == 1  # forced onto the expensive direct link

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            shortest_path(ring(4), 0, 2, cost=lambda link: -1.0)

    def test_zero_costs_allowed(self):
        path = shortest_path(ring(4), 0, 2, cost=lambda link: 0.0)
        assert path.source == 0 and path.destination == 2


class TestSequentialDisjoint:
    def test_two_disjoint_in_ring(self):
        paths = sequential_disjoint_paths(ring(6), 0, 3, count=2)
        assert len(paths) == 2
        interiors = [set(path.interior_nodes) for path in paths]
        assert interiors[0].isdisjoint(interiors[1])
        links = [set(path.links) for path in paths]
        assert links[0].isdisjoint(links[1])

    def test_three_in_ring_impossible(self):
        with pytest.raises(DisjointPathError) as info:
            sequential_disjoint_paths(ring(6), 0, 3, count=3)
        assert len(info.value.found) == 2

    def test_first_path_is_shortest(self):
        paths = sequential_disjoint_paths(torus(4, 4), 0, 5, count=2)
        assert paths[0].hops == hop_distance(torus(4, 4), 0, 5)

    def test_torus_supports_three_disjoint(self):
        paths = sequential_disjoint_paths(torus(4, 4), 0, 5, count=3)
        assert len(paths) == 3

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sequential_disjoint_paths(ring(6), 0, 3, count=0)

    def test_max_hops_limits_backups(self):
        # In a 6-ring the second disjoint path needs hops = 6 - shortest.
        constraints = RouteConstraints(max_hops=3)
        with pytest.raises(DisjointPathError):
            sequential_disjoint_paths(ring(6), 0, 2, count=2, constraints=constraints)


class TestMaxDisjoint:
    def test_matches_topology_connectivity(self):
        assert len(max_disjoint_paths(ring(6), 0, 3)) == 2
        assert len(max_disjoint_paths(torus(4, 4), 0, 5)) == 4

    def test_mesh_corner_limited_to_two(self):
        # Why the paper's 8x8 mesh cannot run double backups: corners have
        # degree 2, so at most 2 disjoint channels exist.
        assert len(max_disjoint_paths(mesh(8, 8), 0, 63)) == 2

