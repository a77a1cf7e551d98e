"""Tests for repro.network: components, Topology, reservations."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.network import LinkId, ReservationLedger, Topology
from repro.network.reservations import InsufficientCapacityError


class TestLinkId:
    def test_reversed(self):
        assert LinkId(1, 2).reversed() == LinkId(2, 1)

    def test_endpoints(self):
        assert LinkId("a", "b").endpoints() == ("a", "b")

    def test_distinct_directions_differ(self):
        assert LinkId(1, 2) != LinkId(2, 1)

    def test_no_collision_with_tuple_nodes(self):
        # A LinkId between ints must not equal a tuple node id, from
        # either side of either operator.
        link, node = LinkId(0, 1), (0, 1)
        assert link != node and node != link
        assert not link == node and not node == link
        keyed = {node: "node", link: "link"}
        assert len(keyed) == 2
        assert keyed[node] == "node" and keyed[LinkId(0, 1)] == "link"
        assert len({node, link}) == 2

    def test_hashable_and_stable(self):
        assert len({LinkId(1, 2), LinkId(1, 2), LinkId(2, 1)}) == 2

    @pytest.mark.parametrize("src, dst", [(0, 1), ("a", "b"), ((0, 1), (2, 3))])
    def test_hash_is_the_pair_hash(self, src, dst):
        # What keeps every set and dict of links in the same order.
        assert hash(LinkId(src, dst)) == hash((src, dst))
        assert LinkId(src, dst).src == src and LinkId(src, dst).dst == dst

    def test_pickle_and_deepcopy_round_trip(self):
        import copy
        import pickle

        link = LinkId((0, 1), "b")
        for clone in (pickle.loads(pickle.dumps(link)), copy.deepcopy(link),
                      copy.copy(link)):
            assert type(clone) is LinkId
            assert clone == link and hash(clone) == hash(link)
            assert (clone.src, clone.dst) == ((0, 1), "b")

    def test_immutable(self):
        link = LinkId(1, 2)
        for name in ("src", "dst", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(link, name, 3)
        assert not hasattr(link, "__dict__")
        assert (link.src, link.dst) == (1, 2)


class TestTopologyConstruction:
    def test_add_link_creates_endpoints(self):
        topology = Topology()
        topology.add_link("a", "b", 10.0)
        assert topology.has_node("a") and topology.has_node("b")
        assert topology.num_links == 1

    def test_duplex_adds_both_directions(self):
        topology = Topology()
        forward, backward = topology.add_duplex_link(1, 2, 5.0)
        assert forward == LinkId(1, 2) and backward == LinkId(2, 1)
        assert topology.num_links == 2

    def test_duplicate_link_rejected(self):
        topology = Topology()
        topology.add_link(1, 2, 5.0)
        with pytest.raises(ValueError, match="already exists"):
            topology.add_link(1, 2, 5.0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology().add_link(1, 1, 5.0)

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            Topology().add_link(1, 2, 0.0)


class TestTopologyQueries:
    @pytest.fixture
    def triangle(self) -> Topology:
        topology = Topology("triangle")
        for a, b in [(0, 1), (1, 2), (2, 0)]:
            topology.add_duplex_link(a, b, 10.0)
        return topology

    def test_counts(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_links == 6

    def test_total_capacity(self, triangle):
        assert triangle.total_capacity() == 60.0

    def test_successors_predecessors(self, triangle):
        assert set(triangle.successors(0)) == {1, 2}
        assert set(triangle.predecessors(0)) == {1, 2}

    def test_link_lookup(self, triangle):
        assert triangle.link(0, 1) == LinkId(0, 1)
        with pytest.raises(KeyError):
            triangle.link(0, 99)

    def test_incident_links_cover_both_directions(self, triangle):
        incident = triangle.incident_links(0)
        assert LinkId(0, 1) in incident and LinkId(1, 0) in incident
        assert len(incident) == 4

    def test_contains(self, triangle):
        assert 0 in triangle
        assert LinkId(0, 1) in triangle
        assert LinkId(0, 99) not in triangle

    def test_capacity(self, triangle):
        assert triangle.capacity(LinkId(0, 1)) == 10.0


class TestNetworkxInterop:
    def test_networkx_is_optional(self):
        """The declared dependencies suffice: where ``import networkx``
        fails, a shipped experiment over ``random_regular`` still runs and
        the ``scenarios/families.json`` random-regular cell still builds."""
        script = textwrap.dedent("""
            import sys

            class BlockNetworkx:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "networkx":
                        raise ImportError("networkx is blocked")

            sys.meta_path.insert(0, BlockNetworkx())
            from repro.cli import main
            from repro.scenario.spec import TopologySpec
            assert main(["inhomogeneous", "--rows", "4", "--cols", "4"]) == 0
            spec = TopologySpec(family="random_regular", size=32, degree=3,
                                seed=7)
            assert spec.build().num_nodes == 32
            assert "networkx" not in sys.modules
        """)
        source = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run(
            [sys.executable, "-c", script], check=True, timeout=120,
            stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": source},
        )


class TestReservationLedger:
    @pytest.fixture
    def ledger(self) -> ReservationLedger:
        topology = Topology()
        topology.add_link("a", "b", 10.0)
        return ReservationLedger(topology)

    LINK = LinkId("a", "b")

    def test_initial_state(self, ledger):
        assert ledger.free(self.LINK) == 10.0
        assert ledger.primary_reserved(self.LINK) == 0.0
        assert ledger.spare_reserved(self.LINK) == 0.0

    def test_reserve_and_release_primary(self, ledger):
        ledger.reserve_primary(self.LINK, 4.0)
        assert ledger.free(self.LINK) == 6.0
        ledger.release_primary(self.LINK, 4.0)
        assert ledger.free(self.LINK) == 10.0

    def test_overcommit_rejected(self, ledger):
        with pytest.raises(InsufficientCapacityError):
            ledger.reserve_primary(self.LINK, 11.0)

    def test_release_more_than_reserved_rejected(self, ledger):
        ledger.reserve_primary(self.LINK, 1.0)
        with pytest.raises(ValueError, match="releasing"):
            ledger.release_primary(self.LINK, 2.0)

    def test_spare_is_absolute_set(self, ledger):
        ledger.set_spare(self.LINK, 3.0)
        ledger.set_spare(self.LINK, 1.0)
        assert ledger.spare_reserved(self.LINK) == 1.0

    def test_primary_plus_spare_bounded_by_capacity(self, ledger):
        ledger.reserve_primary(self.LINK, 6.0)
        with pytest.raises(InsufficientCapacityError):
            ledger.set_spare(self.LINK, 5.0)
        assert ledger.can_set_spare(self.LINK, 4.0)

    def test_primary_reservation_respects_spare(self, ledger):
        ledger.set_spare(self.LINK, 6.0)
        assert not ledger.can_reserve_primary(self.LINK, 5.0)
        assert ledger.can_reserve_primary(self.LINK, 4.0)

    def test_network_metrics(self):
        topology = Topology()
        topology.add_link("a", "b", 10.0)
        topology.add_link("b", "a", 10.0)
        ledger = ReservationLedger(topology)
        ledger.reserve_primary(LinkId("a", "b"), 5.0)
        ledger.set_spare(LinkId("b", "a"), 2.0)
        assert ledger.network_load() == pytest.approx(0.25)
        assert ledger.spare_fraction() == pytest.approx(0.10)
        assert ledger.total_spare() == 2.0

    def test_snapshot_is_a_copy(self, ledger):
        ledger.set_spare(self.LINK, 2.0)
        snapshot = ledger.snapshot_spares()
        ledger.set_spare(self.LINK, 9.0)
        assert snapshot[self.LINK] == 2.0
