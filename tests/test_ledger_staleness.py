"""Regression tests: the reservation ledger over a frozen topology.

A ledger indexes its topology's links at construction, and so does a
flat routing view.  The first of them built on a topology freezes it: a
later ``add_node`` / ``add_link`` raises ``ValueError`` and leaves the
topology as it was, in pickles too, so neither can go silently stale.
The bulk path operations added for churn
(``reserve_primary_path``/``release_primary_path``/``set_spares``) are
covered here too: validate-then-apply atomicity and single version bumps.
"""

from __future__ import annotations

import pickle

import pytest

from repro.network import LinkId, Topology, torus
from repro.network.reservations import InsufficientCapacityError, ReservationLedger
from repro.routing import flat_view


def line_topology() -> Topology:
    topology = Topology(name="line")
    for node in range(4):
        topology.add_node(node)
    for src, dst in ((0, 1), (1, 2), (2, 3)):
        topology.add_duplex_link(src, dst, capacity=10.0)
    return topology


#: What freezes a topology, and what a frozen topology refuses.
FIRST_USES = {"ledger": ReservationLedger, "flat view": flat_view}
MUTATIONS = {
    "add_node": lambda topology: topology.add_node(4),
    "add_link": lambda topology: topology.add_link(0, 3, 5.0),
    "add_duplex_link": lambda topology: topology.add_duplex_link(3, 4, 5.0),
}


class TestTopologyFreeze:
    @pytest.mark.parametrize("first_use", sorted(FIRST_USES))
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_after_first_use_raises(self, first_use, mutation):
        topology = line_topology()
        FIRST_USES[first_use](topology)
        for subject in (topology, pickle.loads(pickle.dumps(topology))):
            links = list(subject.links())
            counts = (subject.num_nodes, subject.num_links)
            with pytest.raises(ValueError, match="'line' is frozen"):
                MUTATIONS[mutation](subject)
            assert (subject.num_nodes, subject.num_links) == counts
            assert list(subject.links()) == links

    def test_building_is_free_until_first_use(self):
        topology = line_topology()
        topology.add_duplex_link(0, 3, capacity=5.0)
        ledger = ReservationLedger(topology)
        assert ledger.free(LinkId(0, 3)) == 5.0
        assert len(ledger.free_values()) == topology.num_links == 8


class TestBulkPathOperations:
    def test_reserve_path_single_version_bump(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        path = [LinkId(0, 1), LinkId(1, 2), LinkId(2, 3)]
        version = ledger.version
        ledger.reserve_primary_path(path, 2.0)
        assert ledger.version == version + 1
        assert all(ledger.primary_reserved(link) == 2.0 for link in path)

    def test_reserve_path_atomic_on_failure(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        ledger.reserve_primary(LinkId(2, 3), 9.5)  # only 0.5 left there
        path = [LinkId(0, 1), LinkId(1, 2), LinkId(2, 3)]
        version = ledger.version
        with pytest.raises(InsufficientCapacityError):
            ledger.reserve_primary_path(path, 2.0)
        # Nothing was applied, not even on the feasible prefix.
        assert ledger.primary_reserved(LinkId(0, 1)) == 0.0
        assert ledger.primary_reserved(LinkId(1, 2)) == 0.0
        assert ledger.version == version

    def test_release_path_over_release_rejected_atomically(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        ledger.reserve_primary(LinkId(0, 1), 2.0)
        version = ledger.version
        with pytest.raises(ValueError):
            ledger.release_primary_path([LinkId(0, 1), LinkId(1, 2)], 2.0)
        assert ledger.primary_reserved(LinkId(0, 1)) == 2.0
        assert ledger.version == version

    def test_release_path_roundtrip(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        path = [LinkId(0, 1), LinkId(1, 2)]
        ledger.reserve_primary_path(path, 3.0)
        ledger.release_primary_path(path, 3.0)
        assert all(ledger.primary_reserved(link) == 0.0 for link in path)
        assert ledger.audit() == []

    def test_set_spares_bulk_and_atomic(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        ledger.reserve_primary(LinkId(1, 2), 9.0)
        version = ledger.version
        with pytest.raises(InsufficientCapacityError):
            ledger.set_spares({LinkId(0, 1): 4.0, LinkId(1, 2): 2.0})
        assert ledger.spare_reserved(LinkId(0, 1)) == 0.0
        assert ledger.version == version
        ledger.set_spares({LinkId(0, 1): 4.0, LinkId(1, 2): 1.0})
        assert ledger.version == version + 1
        assert ledger.spare_reserved(LinkId(0, 1)) == 4.0
        assert ledger.spare_reserved(LinkId(1, 2)) == 1.0

    def test_set_spares_empty_is_noop(self):
        ledger = ReservationLedger(torus(3, 3))
        version = ledger.version
        ledger.set_spares({})
        assert ledger.version == version
