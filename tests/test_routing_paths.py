"""Tests for repro.routing.paths."""

from __future__ import annotations

import pytest

from repro.network import LinkId, torus
from repro.routing import Path
from repro.routing.paths import shared_component_count


class TestPathBasics:
    def test_nodes_and_endpoints(self):
        path = Path([1, 2, 3])
        assert path.source == 1
        assert path.destination == 3
        assert path.hops == 2
        assert len(path) == 2

    def test_links_in_order(self):
        path = Path([1, 2, 3])
        assert path.links == (LinkId(1, 2), LinkId(2, 3))

    def test_interior_nodes(self):
        assert Path([1, 2, 3, 4]).interior_nodes == (2, 3)
        assert Path([1, 2]).interior_nodes == ()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            Path([1])

    def test_repeated_node_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            Path([1, 2, 1])

    def test_iteration_and_equality(self):
        assert list(Path([1, 2])) == [1, 2]
        assert Path([1, 2]) == Path([1, 2])
        assert Path([1, 2]) != Path([2, 1])
        assert len({Path([1, 2]), Path([1, 2])}) == 1


class TestSlots:
    def test_no_instance_dict(self):
        path = Path([1, 2, 3])
        assert not hasattr(path, "__dict__")
        with pytest.raises(AttributeError):
            path.extra = 1

    def test_views_are_built_once(self):
        path = Path([1, 2, 3])
        assert path._links is None and path._components is None
        assert path.links is path.links
        assert path.components is path.components
        assert path.transit_components is path.transit_components

    def test_given_links_are_kept(self):
        topology = torus(3, 3)
        links = (topology.link(0, 1), topology.link(1, 2))
        path = Path([0, 1, 2], links)
        assert all(a is b for a, b in zip(path.links, links))
        assert path._components is None


class TestComponents:
    def test_component_set_counts_nodes_and_links(self):
        path = Path([1, 2, 3])
        # 3 nodes + 2 links.
        assert len(path.components) == 5
        assert path.component_count() == 5

    def test_transit_components_exclude_endpoints(self):
        path = Path([1, 2, 3])
        assert 1 not in path.transit_components
        assert 2 in path.transit_components
        assert LinkId(1, 2) in path.transit_components
        assert path.component_count(count_endpoints=False) == 3

    def test_intersects(self):
        path = Path([1, 2, 3])
        assert path.intersects(frozenset({2}))
        assert path.intersects(frozenset({LinkId(1, 2), 99}))
        assert not path.intersects(frozenset({99, LinkId(3, 2)}))

    def test_intersects_large_failure_set(self):
        path = Path([1, 2])
        big = frozenset(range(100, 200)) | {1}
        assert path.intersects(big)


class TestSharedComponentCount:
    def test_disjoint_paths_share_nothing_interior(self):
        a = Path([1, 2, 3])
        b = Path([4, 5, 6])
        assert shared_component_count(a, b) == 0

    def test_shared_link_implies_three_components(self):
        # Sharing one link implies sharing its two endpoint nodes: sc = 3.
        a = Path([1, 2, 3])
        b = Path([0, 2, 3, 4])
        shared = shared_component_count(a, b)
        assert shared == 3  # nodes 2 and 3 plus link 2->3

    def test_shared_node_only(self):
        a = Path([1, 2, 3])
        b = Path([4, 2, 5])
        assert shared_component_count(a, b) == 1

    def test_endpoint_sharing_controlled_by_flag(self):
        a = Path([1, 2])
        b = Path([1, 3])
        assert shared_component_count(a, b, count_endpoints=True) == 1
        assert shared_component_count(a, b, count_endpoints=False) == 0

    def test_opposite_direction_links_differ(self):
        a = Path([1, 2])
        b = Path([2, 1])
        # Shared components: both nodes, but not the (directed) links.
        assert shared_component_count(a, b) == 2


class TestValidate:
    def test_valid_path_accepted(self):
        topology = torus(3, 3)
        assert Path([0, 1, 2]).validate(topology) is not None

    def test_invalid_hop_rejected(self):
        topology = torus(3, 3)
        with pytest.raises(ValueError, match="non-existent"):
            Path([0, 4]).validate(topology)  # 0 and 4 are not adjacent
