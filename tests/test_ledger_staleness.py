"""Regression tests: the reservation ledger under topology mutation.

The ledger used to snapshot the topology's links at construction and go
silently stale when ``add_link``/``add_node`` was called afterwards —
reservations on the new link raised ``KeyError`` and the network-wide
aggregates under-counted.  The ledger now reconciles lazily against
``topology.version``.  The bulk path operations added for churn
(``reserve_primary_path``/``release_primary_path``/``set_spares``) are
covered here too: validate-then-apply atomicity and single version bumps.
"""

from __future__ import annotations

import pytest

from repro.network import LinkId, Topology, torus
from repro.network.reservations import InsufficientCapacityError, ReservationLedger


def line_topology() -> Topology:
    topology = Topology(name="line")
    for node in range(4):
        topology.add_node(node)
    for src, dst in ((0, 1), (1, 2), (2, 3)):
        topology.add_duplex_link(src, dst, capacity=10.0)
    return topology


class TestTopologyMutation:
    def test_link_added_between_existing_nodes(self):
        """The original bug: a link added after ledger construction."""
        topology = line_topology()
        ledger = ReservationLedger(topology)
        ledger.reserve_primary(LinkId(0, 1), 2.0)
        topology.add_duplex_link(0, 3, capacity=5.0)
        # Per-link accessors see the new link immediately...
        assert ledger.free(LinkId(0, 3)) == 5.0
        ledger.reserve_primary(LinkId(0, 3), 1.0)
        assert ledger.primary_reserved(LinkId(0, 3)) == 1.0
        # ...and existing reservations are untouched.
        assert ledger.primary_reserved(LinkId(0, 1)) == 2.0
        assert ledger.audit() == []

    def test_node_added_after_construction(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        topology.add_node(4)
        topology.add_duplex_link(3, 4, capacity=7.0)
        ledger.set_spare(LinkId(3, 4), 3.0)
        assert ledger.spare_reserved(LinkId(3, 4)) == 3.0
        assert ledger.audit() == []

    def test_aggregates_cover_new_links(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        before = ledger.network_load()
        topology.add_duplex_link(1, 3, capacity=10.0)
        ledger.reserve_primary(LinkId(1, 3), 10.0)
        # Load accounts for both the new reservation and the new capacity.
        assert ledger.network_load() > before
        assert ledger.total_spare() == 0.0

    def test_free_values_alignment_after_growth(self):
        """``free_values()`` must stay positionally aligned with
        ``topology.links()`` after reconciliation (the flat routing core
        consumes it by position)."""
        topology = line_topology()
        ledger = ReservationLedger(topology)
        ledger.reserve_primary(LinkId(1, 2), 4.0)
        topology.add_duplex_link(0, 2, capacity=8.0)
        frees = list(ledger.free_values())
        links = list(topology.links())
        assert len(frees) == len(links)
        by_link = dict(zip(links, frees))
        assert by_link[LinkId(1, 2)] == 6.0
        assert by_link[LinkId(0, 2)] == 8.0

    def test_reconciliation_bumps_version_once(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        version = ledger.version
        topology.add_duplex_link(0, 2, capacity=8.0)
        topology.add_duplex_link(1, 3, capacity=8.0)
        ledger.free(LinkId(0, 2))  # triggers one reconciliation for both
        assert ledger.version == version + 1
        ledger.free(LinkId(1, 3))  # already reconciled: no further bump
        assert ledger.version == version + 1

    def test_snapshot_caches_refresh_after_growth(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        assert LinkId(0, 1) in ledger.snapshot_spares()
        topology.add_duplex_link(0, 2, capacity=8.0)
        ledger.set_spare(LinkId(0, 2), 2.0)
        assert ledger.snapshot_spares()[LinkId(0, 2)] == 2.0


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

    def test_bulk_ops_on_freshly_added_links(self):
        topology = line_topology()
        ledger = ReservationLedger(topology)
        topology.add_duplex_link(0, 2, capacity=8.0)
        ledger.reserve_primary_path([LinkId(0, 2), LinkId(2, 3)], 1.5)
        assert ledger.primary_reserved(LinkId(0, 2)) == 1.5
        assert ledger.audit() == []
