"""Backup routing searches once per candidate and hands out the
topology's own link objects.

``_route_backup`` takes the per-channel baseline path as its first
candidate instead of searching for it a second time; these tests pin
that the shortcut returns exactly what the (reference) constrained
search returns, that every case which still needs a search gets one,
and that searched paths carry interned ``LinkId`` objects without
changing how paths compare, hash or pickle.
"""

from __future__ import annotations

import pickle

import pytest

from repro import BCPNetwork, DelayQoS, FaultToleranceQoS, TrafficSpec, torus
from repro.core import establishment
from repro.experiments.workloads import all_pairs
from repro.routing import (
    Path,
    RouteConstraints,
    flat_view,
    shortest_path,
)
from tests.routing_oracle import reference_shortest_path

MUX3 = FaultToleranceQoS(num_backups=1, mux_degree=3)


def reference_backup(topology, connection, extra_excluded=(), slack=2) -> Path:
    """What the pre-shortcut procedure computes, on the reference
    kernels: the disjoint baseline, then the ``max_hops`` search."""
    primary = connection.primary.path
    excluded = dict(
        excluded_nodes=frozenset(primary.interior_nodes),
        excluded_links=frozenset(primary.links),
    )
    baseline = reference_shortest_path(
        topology, connection.source, connection.destination,
        RouteConstraints(**excluded),
    )
    excluded["excluded_links"] |= frozenset(extra_excluded)
    return reference_shortest_path(
        topology, connection.source, connection.destination,
        RouteConstraints(max_hops=baseline.hops + slack, **excluded),
    )


@pytest.fixture
def searches(monkeypatch) -> list:
    """Every ``shortest_path`` call establishment makes, as
    ``(constraints, cost)``."""
    calls = []

    def recording(topology, src, dst, constraints=None, cost=None):
        calls.append((constraints, cost))
        return shortest_path(topology, src, dst, constraints, cost)

    monkeypatch.setattr(establishment, "shortest_path", recording)
    return calls


class TestBaselineReuse:
    def test_all_4032_backups_equal_the_reference_search(self, searches):
        network = BCPNetwork(torus(8, 8, 200.0))
        topology = network.topology
        pairs = all_pairs(topology)
        assert len(pairs) == 4032
        for src, dst in pairs:
            connection = network.establish(src, dst, ft_qos=MUX3)
            assert connection.backups[0].path == reference_backup(
                topology, connection
            )
        # One primary search and one baseline search each: the baseline
        # is the backup, nothing was searched twice.
        assert len(searches) == 2 * 4032
        assert network.audit_invariants() == []

    def test_two_searches_per_establishment(self, torus4, searches):
        torus4.establish(0, 5, ft_qos=MUX3)
        (primary_constraints, _), (backup_constraints, cost) = searches
        assert primary_constraints.link_admissible is not None
        assert backup_constraints.max_hops is None and cost is None

    def test_spare_violation_on_the_baseline_excludes_and_searches(
        self, torus4, searches, monkeypatch
    ):
        connection = torus4.engine._establish_primary_only(
            0, 5, TrafficSpec(), DelayQoS(), MUX3
        )
        unconstrained = reference_backup(torus4.topology, connection)
        full = unconstrained.links[0]
        can_set_spare = torus4.ledger.can_set_spare
        monkeypatch.setattr(
            torus4.ledger, "can_set_spare",
            lambda link, amount: link != full and can_set_spare(link, amount),
        )
        del searches[:]
        path = torus4.engine._route_backup(connection, 3)
        assert full not in path.links
        assert path == reference_backup(
            torus4.topology, connection, extra_excluded=[full]
        )
        (_, _), (retry, _) = searches
        assert full in retry.excluded_links
        assert retry.max_hops == unconstrained.hops + 2

    def test_cost_biased_routing_still_runs_the_constrained_search(
        self, searches
    ):
        network = BCPNetwork(torus(4, 4, 200.0),
                             spare_aware_backup_routing=True)
        engine = network.engine
        detours = 0
        for src, dst in all_pairs(network.topology)[:80]:
            connection = engine._establish_primary_only(
                src, dst, TrafficSpec(), DelayQoS(), MUX3
            )
            del searches[:]
            path = engine._route_backup(connection, 3)
            (baseline, no_cost), (biased, cost) = searches
            assert baseline.max_hops is None and no_cost is None
            assert biased.max_hops is not None and cost is not None
            # Nothing is committed yet, so the cost closure still prices
            # links exactly as it did during the search.
            assert path == reference_shortest_path(
                network.topology, src, dst, biased, cost
            )
            detours += path != reference_backup(network.topology, connection)
            engine._commit_backup(connection, path, 3)
        assert detours   # the bias is live, not a relabelled BFS

    def test_connection_wide_baseline_still_searches(self, torus4, searches):
        qos = DelayQoS(per_channel_baseline=False)
        connection = torus4.establish(0, 1, delay_qos=qos, ft_qos=MUX3)
        (_, _), (backup_constraints, _) = searches
        assert backup_constraints.max_hops == 1 + 2
        assert connection.backups[0].path == reference_shortest_path(
            torus4.topology, 0, 1, backup_constraints
        )

    def test_second_backup_avoids_the_first(self, torus4, searches):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=3)
        )
        assert len(searches) == 3
        first, second = (backup.path for backup in connection.backups)
        assert set(first.links).isdisjoint(second.links)
        assert set(first.interior_nodes).isdisjoint(second.interior_nodes)
        assert first.links[0] in searches[2][0].excluded_links


class TestInternedLinks:
    def assert_interned(self, topology, path: Path) -> None:
        assert len(path.links) == path.hops
        for link, (u, v) in zip(path.links, zip(path.nodes, path.nodes[1:])):
            assert link is topology.link(u, v)

    def test_searched_paths_carry_the_topology_link_objects(self):
        topology = torus(4, 4, 200.0)
        for src, dst in all_pairs(topology)[:80]:
            self.assert_interned(topology, shortest_path(topology, src, dst))
            # A route-cache hit hands back the same path object.
            self.assert_interned(topology, shortest_path(topology, src, dst))
            self.assert_interned(topology, shortest_path(
                topology, src, dst, cost=lambda link: 1.0 + (link.src % 3)
            ))

    def test_established_channels_are_interned(self, torus4):
        connection = torus4.establish(0, 10, ft_qos=MUX3)
        for channel in connection.channels:
            self.assert_interned(torus4.topology, channel.path)

    def test_interned_and_derived_paths_are_the_same_value(self):
        topology = torus(4, 4, 200.0)
        searched = shortest_path(topology, 0, 10)
        derived = Path(searched.nodes)
        assert searched == derived and hash(searched) == hash(derived)
        assert searched.links == derived.links
        assert searched.components == derived.components
        assert searched.links[0] is not derived.links[0]

    def test_link_count_must_match(self):
        topology = torus(4, 4, 200.0)
        with pytest.raises(ValueError, match="links"):
            Path([0, 1, 2], [topology.link(0, 1)])

    def test_path_pickle_round_trip(self):
        topology = torus(4, 4, 200.0)
        searched = shortest_path(topology, 0, 10)
        clone = pickle.loads(pickle.dumps(searched))
        assert clone == searched and hash(clone) == hash(searched)
        assert clone.links == searched.links
        assert clone.components == searched.components

    def test_network_pickle_round_trip(self, loaded_torus4):
        clone = pickle.loads(pickle.dumps(loaded_torus4))
        originals = loaded_torus4.connections()
        copies = clone.connections()
        assert len(copies) == len(originals) == 240
        for original, copy in zip(originals, copies):
            for ours, theirs in zip(original.channels, copy.channels):
                assert theirs.path == ours.path
                assert hash(theirs.path) == hash(ours.path)
                assert theirs.path.links == ours.path.links
        assert clone.ledger.snapshot_pools() == (
            loaded_torus4.ledger.snapshot_pools()
        )
        assert clone.audit_invariants() == []
        # The shard keeps working: same admission as the original.
        first = originals[0]
        again = clone.establish(first.source, first.destination, ft_qos=MUX3)
        twin = loaded_torus4.establish(first.source, first.destination,
                                       ft_qos=MUX3)
        assert again.backups[0].path == twin.backups[0].path
        assert again.achieved_pr == twin.achieved_pr
        view = flat_view(clone.topology)
        view._sync_free(clone.ledger)
        assert sorted(view._free) == sorted(clone.ledger.free_values())
