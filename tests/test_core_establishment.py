"""Tests for D-connection establishment, negotiation schemes, and the
BCPNetwork facade."""

from __future__ import annotations

import json
import random

import pytest

from repro import (
    BCPNetwork,
    ChannelRole,
    ConnectionState,
    DelayQoS,
    EstablishmentError,
    FaultToleranceQoS,
    TrafficSpec,
    torus,
)
from repro.core import BatchRequest
from repro.routing.shortest import hop_distance
from repro.serve import snapshot_network
from tests.switchover_oracle import switch_to_backup


class TestPrimaryEstablishment:
    def test_primary_takes_shortest_path(self, torus4):
        connection = torus4.establish(0, 5)
        assert connection.primary.path.hops == hop_distance(torus4.topology, 0, 5)

    def test_bandwidth_reserved_along_path(self, torus4):
        connection = torus4.establish(0, 1, traffic=TrafficSpec(bandwidth=7.0))
        link = connection.primary.path.links[0]
        assert torus4.ledger.primary_reserved(link) == 7.0

    def test_same_endpoints_rejected(self, torus4):
        with pytest.raises(EstablishmentError):
            torus4.establish(3, 3)

    def test_connection_ids_unique(self, torus4):
        a = torus4.establish(0, 1)
        b = torus4.establish(1, 2)
        assert a.connection_id != b.connection_id

    def test_unreachable_destination(self):
        from repro.network import Topology

        topology = Topology()
        topology.add_node("a")
        topology.add_node("b")
        network = BCPNetwork(topology)
        with pytest.raises(EstablishmentError):
            network.establish("a", "b")


class TestBackupEstablishment:
    def test_backup_disjoint_from_primary(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=3)
        )
        primary = connection.primary.path
        backup = connection.backups[0].path
        assert set(primary.interior_nodes).isdisjoint(backup.interior_nodes)
        assert set(primary.links).isdisjoint(backup.links)

    def test_double_backups_mutually_disjoint(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=3)
        )
        paths = [channel.path for channel in connection.channels]
        for i in range(3):
            for j in range(i + 1, 3):
                assert set(paths[i].links).isdisjoint(paths[j].links)

    def test_backup_serials_ascend(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=3)
        )
        assert [backup.serial for backup in connection.backups] == [1, 2]

    def test_spare_reserved_on_backup_links(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=3)
        )
        for link in connection.backups[0].path.links:
            assert torus4.ledger.spare_reserved(link) >= 1.0

    def test_no_disjoint_path_rolls_back_everything(self, line4):
        # A line has no disjoint backup path at all.
        with pytest.raises(EstablishmentError):
            line4.establish(0, 3, ft_qos=FaultToleranceQoS(num_backups=1))
        assert line4.num_connections == 0
        assert line4.network_load() == 0.0
        assert line4.spare_fraction() == 0.0
        assert len(line4.registry) == 0

    def test_delay_qos_global_baseline_bounds_backup_length(self, ring6):
        # In a 6-ring the disjoint backup for an adjacent pair needs 5
        # hops; under the strict (connection-global) baseline, slack 2
        # over shortest 1 allows only 3 and the backup is rejected.
        with pytest.raises(EstablishmentError):
            ring6.establish(
                0, 1,
                delay_qos=DelayQoS(slack_hops=2, per_channel_baseline=False),
                ft_qos=FaultToleranceQoS(num_backups=1),
            )
        relaxed = ring6.establish(
            0, 1,
            delay_qos=DelayQoS(slack_hops=4, per_channel_baseline=False),
            ft_qos=FaultToleranceQoS(num_backups=1),
        )
        assert relaxed.backups[0].path.hops == 5

    def test_delay_qos_per_channel_baseline_admits_long_disjoint_backup(
        self, ring6
    ):
        # Default (paper-consistent) semantics: the backup is judged
        # against ITS shortest feasible disjoint route (5 hops here), so
        # slack 2 admits it.
        connection = ring6.establish(
            0, 1, delay_qos=DelayQoS(slack_hops=2),
            ft_qos=FaultToleranceQoS(num_backups=1),
        )
        assert connection.backups[0].path.hops == 5

    def test_achieved_pr_filled_in(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        assert connection.achieved_pr is not None
        assert 0.0 < connection.achieved_pr <= 1.0

    def test_capacity_exhaustion_detected(self):
        network = BCPNetwork(torus(4, 4, capacity=2.0))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=0)
        established = 0
        with pytest.raises(EstablishmentError):
            for src in range(16):
                for dst in range(16):
                    if src != dst:
                        network.establish(src, dst, ft_qos=qos)
                        established += 1
        assert 0 < established < 240


class TestMultiplexingDuringEstablishment:
    def test_disjoint_connections_share_spare(self):
        network = BCPNetwork(torus(8, 8))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
        # Two far-apart connections with disjoint primaries.
        a = network.establish(0, 1, ft_qos=qos)
        b = network.establish(34, 35, ft_qos=qos)
        spare_total = network.ledger.total_spare()
        # Their backups never meet, so sharing or not, the invariant that
        # matters: each backup link holds >= 1 unit.
        assert spare_total >= max(a.backups[0].path.hops, b.backups[0].path.hops)

    def test_higher_degree_never_needs_more_spare(self):
        def total_spare(degree: int) -> float:
            network = BCPNetwork(torus(4, 4))
            qos = FaultToleranceQoS(num_backups=1, mux_degree=degree)
            for src in range(16):
                for dst in range(16):
                    if src != dst:
                        network.establish(src, dst, ft_qos=qos)
            return network.ledger.total_spare()

        spares = [total_spare(degree) for degree in (0, 1, 3, 6)]
        assert spares == sorted(spares, reverse=True)
        assert spares[-1] < spares[0]  # multiplexing actually saves

    def test_mux0_spare_is_sum_of_backups(self):
        network = BCPNetwork(torus(4, 4))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=0)
        connections = [network.establish(0, 5, ft_qos=qos),
                       network.establish(1, 6, ft_qos=qos)]
        for connection in connections:
            for link in connection.backups[0].path.links:
                backups_here = [
                    channel
                    for channel in network.registry.on_component(link)
                    if channel.role is ChannelRole.BACKUP
                ]
                expected = sum(channel.bandwidth for channel in backups_here)
                assert network.ledger.spare_reserved(link) == pytest.approx(expected)


class TestTeardown:
    def test_teardown_releases_everything(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=3)
        )
        torus4.teardown(connection)
        assert torus4.network_load() == 0.0
        assert torus4.spare_fraction() == 0.0
        assert torus4.num_connections == 0
        assert connection.state is ConnectionState.CLOSED

    def test_teardown_by_id(self, torus4):
        connection = torus4.establish(0, 5)
        torus4.teardown(connection.connection_id)
        assert torus4.num_connections == 0

    def test_teardown_shrinks_shared_spare_correctly(self, torus4):
        qos = FaultToleranceQoS(num_backups=1, mux_degree=6)
        keep = torus4.establish(0, 5, ft_qos=qos)
        drop = torus4.establish(0, 5, ft_qos=qos)
        torus4.teardown(drop)
        # The surviving backup still has its full reservation.
        for link in keep.backups[0].path.links:
            assert torus4.ledger.spare_reserved(link) >= 1.0

    def test_unknown_connection_id(self, torus4):
        with pytest.raises(KeyError):
            torus4.teardown(999)

    def test_several_connections_in_one_call(self, torus4):
        first, second, third = (torus4.establish(0, dst) for dst in (5, 6, 7))
        torus4.teardown(third.connection_id, first)
        assert torus4.connections() == [second]
        assert first.state is third.state is ConnectionState.CLOSED

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    def test_non_int_id_rejected(self, torus4, bad):
        torus4.establish(0, 5)
        torus4.establish(0, 6)  # id 1: what ``True`` would alias
        version = torus4.ledger.version
        with pytest.raises(TypeError, match="must be an int"):
            torus4.teardown(bad)
        assert torus4.num_connections == 2
        assert torus4.ledger.version == version

    @pytest.mark.parametrize("ids, error", [
        ((0, 999), KeyError), ((0, 1.0), TypeError), ((0, 1, 0), ValueError),
    ])
    def test_every_id_checked_before_any_teardown(self, torus4, ids, error):
        torus4.establish(0, 5)
        torus4.establish(0, 6)
        version = torus4.ledger.version
        with pytest.raises(error):
            torus4.teardown(*ids)
        assert torus4.num_connections == 2
        assert torus4.ledger.version == version

    def test_repeated_id_rejected(self, torus4):
        connection = torus4.establish(0, 5)
        with pytest.raises(ValueError, match="twice"):
            torus4.teardown(connection.connection_id, connection)
        assert torus4.num_connections == 1

    def test_teardown_needs_a_connection(self, torus4):
        with pytest.raises(TypeError, match="at least one"):
            torus4.teardown()


class TestLiteralScheme:
    def test_meets_requirement(self, torus4):
        qos = FaultToleranceQoS(required_pr=1 - 1e-9, max_backups=2)
        connection = torus4.establish(0, 5, ft_qos=qos)
        assert connection.achieved_pr >= qos.required_pr
        assert connection.num_backups >= 1

    def test_modest_requirement_needs_no_backup(self, torus4):
        # A single channel's reliability already exceeds a loose target.
        qos = FaultToleranceQoS(required_pr=0.9, max_backups=2)
        connection = torus4.establish(0, 5, ft_qos=qos)
        assert connection.num_backups == 0
        assert connection.achieved_pr >= 0.9

    def test_impossible_requirement_rejected_and_rolled_back(self, torus4):
        qos = FaultToleranceQoS(required_pr=1.0, max_backups=1)
        with pytest.raises(EstablishmentError, match="renegotiate"):
            torus4.establish(0, 5, ft_qos=qos)
        assert torus4.num_connections == 0
        assert torus4.spare_fraction() == 0.0

    def test_picks_cheap_degree_when_alone(self, torus4):
        # With no other traffic there are no multiplexed peers, so even the
        # largest degree meets the target; the chosen degree should be large.
        qos = FaultToleranceQoS(required_pr=1 - 1e-9, max_backups=1)
        connection = torus4.establish(0, 5, ft_qos=qos)
        assert connection.backups[0].mux_degree > 0


class TestLooseScheme:
    def test_offer_satisfied_when_feasible(self, torus4):
        offer = torus4.negotiate(0, 5, required_pr=1 - 1e-9)
        assert offer.satisfied
        assert torus4.num_connections == 1

    def test_offer_reports_achieved_pr(self, torus4):
        offer = torus4.negotiate(0, 5, required_pr=0.5)
        assert offer.achieved_pr == pytest.approx(
            torus4.connection_reliability(offer.connection)
        )

    def test_reject_tears_down(self, torus4):
        offer = torus4.negotiate(0, 5, required_pr=1 - 1e-12)
        offer.reject()
        assert torus4.network_load() == 0.0

    def test_infeasible_topology_raises(self, line4):
        with pytest.raises(EstablishmentError):
            line4.negotiate(0, 3, required_pr=0.999999)


class TestSwitchover:
    def test_switch_promotes_backup(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=3)
        )
        backup = connection.backups[0]
        old_primary_path = connection.primary.path
        report = switch_to_backup(torus4, connection)
        assert connection.primary is backup
        assert connection.primary.role is ChannelRole.PRIMARY
        assert connection.backups == []
        assert report.fully_restored
        # Old primary bandwidth released, new path carries primary traffic.
        for link in old_primary_path.links:
            assert torus4.ledger.primary_reserved(link) == 0.0
        for link in backup.path.links:
            assert torus4.ledger.primary_reserved(link) == 1.0

    def test_switch_without_backups_rejected(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=0, mux_degree=0)
        )
        with pytest.raises(EstablishmentError, match="no backups"):
            switch_to_backup(torus4, connection)

    def test_switch_prefers_lowest_serial(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=3)
        )
        switch_to_backup(torus4, connection)
        assert connection.primary.serial == 1
        assert [backup.serial for backup in connection.backups] == [2]

    def test_switch_keeps_network_accounting_consistent(self, torus4):
        qos = FaultToleranceQoS(num_backups=1, mux_degree=6)
        connections = [
            torus4.establish(0, 5, ft_qos=qos),
            torus4.establish(0, 5, ft_qos=qos),
        ]
        load_before = torus4.network_load()
        switch_to_backup(torus4, connections[0])
        # Load is conserved: the promoted path now carries the bandwidth.
        assert torus4.network_load() == pytest.approx(load_before, rel=0.5)
        # The sibling's backup must still be fully covered.
        sibling = connections[1].backups[0]
        for link in sibling.path.links:
            assert torus4.ledger.spare_reserved(link) >= 1.0


class TestLeakAudit:
    """``audit_invariants`` sees bandwidth and channels that no live
    connection owns — what a batch aborted mid-way used to leave."""

    def test_primary_beyond_the_live_connections_is_reported(self, torus4):
        connection = torus4.establish(0, 5)
        on_path = connection.primary.path.links[0]
        off_path = torus4.topology.link(10, 11)
        assert off_path not in connection.primary.path.links
        torus4.ledger.reserve_primary(on_path, 0.5)
        torus4.ledger.reserve_primary(off_path, 2.0)
        assert torus4.audit_invariants() == [
            f"link {on_path}: ledger holds 1.5 primary but live "
            f"connections carry 1.0",
            f"link {off_path}: ledger holds 2.0 primary but live "
            f"connections carry 0.0",
        ]

    def test_channel_of_a_connection_that_is_not_live(self, torus4):
        connection = torus4.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=3)
        )
        del torus4._connections[connection.connection_id]
        assert set(torus4.audit_invariants()) == {
            f"link {link}: ledger holds 1.0 primary but live connections "
            f"carry 0.0"
            for link in connection.primary.path.links
        } | {
            f"channel {channel.channel_id} is registered but its "
            f"connection {connection.connection_id} is not live"
            for channel in connection.channels
        }

    def test_switchover_is_not_a_leak(self, torus4):
        qos = FaultToleranceQoS(num_backups=2, mux_degree=3)
        connections = [torus4.establish(0, 5, ft_qos=qos) for _ in range(3)]
        switch_to_backup(torus4, connections[1])
        assert torus4.audit_invariants() == []


def contended_batch(seed: int) -> tuple[float, list[BatchRequest]]:
    """A seeded contended batch on a 4x4 torus: a capacity of 2, 3 or 4,
    3 to 12 requests over 3 node pairs, one backup at mux 0, 1 or 3."""
    rng = random.Random(seed)
    capacity = rng.choice((2.0, 3.0, 4.0))
    qos = FaultToleranceQoS(num_backups=1, mux_degree=rng.choice((0, 1, 3)))
    pairs = [tuple(rng.sample(range(16), 2)) for _ in range(3)]
    requests = [
        BatchRequest(*rng.choice(pairs), ft_qos=qos)
        for _ in range(rng.randint(3, 12))
    ]
    return capacity, requests


class TestBatchEstablishment:
    """establish_batch is one establish per request, in order: the same
    results, connection and channel ids, and network state."""

    def make_network(self, capacity=200.0):
        return BCPNetwork(torus(4, 4, capacity=capacity))

    def run_sequential(self, network, requests):
        results = []
        for request in requests:
            try:
                results.append(
                    network.establish(
                        request.src, request.dst, traffic=request.traffic,
                        delay_qos=request.delay_qos, ft_qos=request.ft_qos,
                    )
                )
            except EstablishmentError as error:
                results.append(error)
        return results

    def assert_equivalent(self, batch, sequential, requests):
        """Admit ``requests`` as one batch on ``batch`` and one by one on
        ``sequential``; returns the batch's results."""
        got_results = batch.establish_batch(requests)
        want_results = self.run_sequential(sequential, requests)
        assert len(got_results) == len(want_results) == len(requests)
        for got, want in zip(got_results, want_results):
            if isinstance(want, EstablishmentError):
                assert isinstance(got, EstablishmentError)
                assert str(got) == str(want)
                continue
            assert got.connection_id == want.connection_id
            assert [c.channel_id for c in got.channels] == [
                c.channel_id for c in want.channels
            ]
            assert [c.path.nodes for c in got.channels] == [
                c.path.nodes for c in want.channels
            ]
        assert json.dumps(snapshot_network(batch)) == json.dumps(
            snapshot_network(sequential)
        )
        return got_results

    def test_matches_sequential_same_pair(self):
        requests = [
            BatchRequest(0, 5, ft_qos=FaultToleranceQoS(num_backups=1))
            for _ in range(4)
        ]
        batch = self.make_network()
        sequential = self.make_network()
        self.assert_equivalent(batch, sequential, requests)
        assert batch.network_load() == sequential.network_load()
        assert batch.spare_fraction() == sequential.spare_fraction()

    def test_matches_sequential_mixed_pairs(self):
        requests = [
            BatchRequest(0, 5),
            BatchRequest(2, 9, ft_qos=FaultToleranceQoS(num_backups=2)),
            BatchRequest(0, 5),
            BatchRequest(11, 3, traffic=TrafficSpec(bandwidth=2.0)),
            BatchRequest(0, 5, traffic=TrafficSpec(bandwidth=2.0)),
        ]
        batch = self.make_network()
        sequential = self.make_network()
        self.assert_equivalent(batch, sequential, requests)
        assert batch.ledger.audit() == []

    def test_matches_sequential_under_saturation(self):
        # Node 0 has 4 outgoing links of capacity 3; each admitted
        # connection consumes one primary plus one backup unit of that
        # budget, so well before 16 same-pair requests the batch must
        # start failing exactly where sequential admission does.
        requests = [BatchRequest(0, 1) for _ in range(16)]
        batch = self.make_network(capacity=3.0)
        sequential = self.make_network(capacity=3.0)
        batch_results = self.assert_equivalent(batch, sequential, requests)
        assert any(isinstance(r, EstablishmentError) for r in batch_results)
        assert batch.ledger.audit() == []

    def test_declarative_requests_admitted_individually(self):
        qos = FaultToleranceQoS(required_pr=1 - 1e-9, max_backups=2)
        requests = [BatchRequest(0, 5, ft_qos=qos) for _ in range(2)]
        batch = self.make_network()
        sequential = self.make_network()
        self.assert_equivalent(batch, sequential, requests)

    def test_contended_batch_blocks_what_sequential_blocks(self):
        """Requests of three pairs interleaved on a tight torus: admitting
        them pair by pair, not in arrival order, blocks the sixth."""
        qos = FaultToleranceQoS(num_backups=1, mux_degree=3)
        pairs = [(2, 4), (2, 4), (3, 7), (2, 4), (3, 7), (3, 7), (14, 7),
                 (2, 4), (14, 7)]
        requests = [BatchRequest(src, dst, ft_qos=qos) for src, dst in pairs]
        batch = self.make_network(capacity=2.0)
        sequential = self.make_network(capacity=2.0)
        results = self.assert_equivalent(batch, sequential, requests)
        assert not isinstance(results[5], EstablishmentError)
        assert batch.spare_fraction() == sequential.spare_fraction()

    @pytest.mark.parametrize("block", range(4))
    def test_seeded_contended_batches_match_sequential(self, block):
        for seed in range(50 * block, 50 * (block + 1)):
            capacity, requests = contended_batch(seed)
            self.assert_equivalent(
                self.make_network(capacity), self.make_network(capacity),
                requests,
            )

    def test_results_align_with_requests(self):
        network = self.make_network()
        requests = [BatchRequest(0, 5), BatchRequest(7, 2), BatchRequest(0, 5)]
        results = network.establish_batch(requests)
        assert [(r.source, r.destination) for r in results] == [
            (0, 5), (7, 2), (0, 5)
        ]
        assert network.num_connections == 3

    def test_empty_batch(self):
        assert self.make_network().establish_batch([]) == []

    def test_unknown_node_fails_alone_and_leaks_nothing(self):
        network = BCPNetwork(torus(4, 4))
        admitted, unknown = network.establish_batch(
            [BatchRequest(0, 5), BatchRequest(99, 0)]
        )
        assert isinstance(unknown, EstablishmentError)
        assert "unknown endpoint" in str(unknown)
        assert network.connections() == [admitted]
        assert network.audit_invariants() == []
        network.teardown(admitted)
        assert network.network_load() == 0.0
        assert network.audit_invariants() == []

    def test_unknown_destination_is_not_called_disconnected(self, torus4):
        with pytest.raises(EstablishmentError, match="unknown endpoint"):
            torus4.establish(0, 99)

    def test_bulk_teardown_releases_with_two_version_bumps(self):
        network = self.make_network()
        connection = network.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=3)
        )
        version = network.ledger.version
        network.teardown(connection)
        # One set_spares for all backups + one release_primary_path.
        assert network.ledger.version == version + 2
        assert network.network_load() == 0.0
        assert network.spare_fraction() == 0.0
        assert network.ledger.audit() == []
