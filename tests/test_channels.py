"""Tests for repro.channels: traffic, QoS, channels, registry, admission."""

from __future__ import annotations

import pytest

from repro.channels import (
    AdmissionController,
    Channel,
    ChannelRegistry,
    ChannelRole,
    DelayQoS,
    FaultToleranceQoS,
    TrafficSpec,
)
from repro.channels.qos import NO_FAULT_TOLERANCE
from repro.network import LinkId, ReservationLedger, Topology
from repro.routing import Path


def make_channel(channel_id=0, connection_id=0, role=ChannelRole.PRIMARY,
                 serial=0, nodes=(1, 2, 3), bandwidth=1.0, mux_degree=0):
    return Channel(
        channel_id=channel_id,
        connection_id=connection_id,
        role=role,
        serial=serial,
        path=Path(nodes),
        traffic=TrafficSpec(bandwidth=bandwidth),
        mux_degree=mux_degree,
    )


class TestTrafficSpec:
    def test_defaults(self):
        spec = TrafficSpec()
        assert spec.bandwidth == 1.0

    @pytest.mark.parametrize("field", ["bandwidth", "max_message_size",
                                       "max_message_rate"])
    def test_positivity(self, field):
        with pytest.raises(ValueError, match=field):
            TrafficSpec(**{field: 0.0})


class TestDelayQoS:
    def test_paper_default_slack(self):
        qos = DelayQoS()
        assert qos.slack_hops == 2
        assert qos.max_hops(shortest_possible=4) == 6

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            DelayQoS(slack_hops=-1)

    @pytest.mark.parametrize("slack", [2.5, 2.0, True])
    def test_non_int_slack_rejected(self, slack):
        with pytest.raises(ValueError, match="slack_hops must be an int"):
            DelayQoS(slack_hops=slack)


class TestFaultToleranceQoS:
    def test_prescriptive_default(self):
        qos = FaultToleranceQoS()
        assert not qos.is_declarative
        assert qos.num_backups == 1

    def test_declarative(self):
        qos = FaultToleranceQoS(required_pr=0.99999, max_backups=2)
        assert qos.is_declarative

    def test_no_fault_tolerance_constant(self):
        assert NO_FAULT_TOLERANCE.num_backups == 0

    def test_invalid_pr_rejected(self):
        with pytest.raises(ValueError):
            FaultToleranceQoS(required_pr=1.5)

    def test_declarative_needs_backup_budget(self):
        with pytest.raises(ValueError, match="max_backups"):
            FaultToleranceQoS(required_pr=0.9, max_backups=0)

    @pytest.mark.parametrize("field", ["num_backups", "mux_degree", "max_backups"])
    def test_negative_counts_rejected(self, field):
        with pytest.raises(ValueError):
            FaultToleranceQoS(**{field: -1})

    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2"])
    @pytest.mark.parametrize("field", ["num_backups", "mux_degree", "max_backups"])
    def test_non_int_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            FaultToleranceQoS(**{field: value})


class TestChannel:
    def test_properties(self):
        channel = make_channel(bandwidth=3.0)
        assert channel.bandwidth == 3.0
        assert channel.role is ChannelRole.PRIMARY

    def test_fails_under(self):
        channel = make_channel(nodes=(1, 2, 3))
        assert channel.fails_under({2})
        assert channel.fails_under({LinkId(1, 2)})
        assert not channel.fails_under({99})

    def test_negative_serial_rejected(self):
        with pytest.raises(ValueError):
            make_channel(serial=-1)


class TestChannelRegistry:
    def test_add_get_remove(self):
        registry = ChannelRegistry()
        channel = make_channel(channel_id=registry.allocate_id())
        registry.add(channel)
        assert registry.get(channel.channel_id) is channel
        assert len(registry) == 1
        registry.remove(channel.channel_id)
        assert len(registry) == 0
        with pytest.raises(KeyError):
            registry.get(channel.channel_id)

    def test_duplicate_id_rejected(self):
        registry = ChannelRegistry()
        registry.add(make_channel(channel_id=0))
        with pytest.raises(ValueError, match="duplicate"):
            registry.add(make_channel(channel_id=0))

    def test_id_allocation_monotonic(self):
        registry = ChannelRegistry()
        assert registry.allocate_id() < registry.allocate_id()

    def test_link_index(self):
        registry = ChannelRegistry()
        primary = make_channel(channel_id=0, nodes=(1, 2, 3))
        backup = make_channel(channel_id=1, role=ChannelRole.BACKUP,
                              serial=1, nodes=(1, 4, 3))
        registry.add(primary)
        registry.add(backup)
        assert registry.primaries_on_link(LinkId(1, 2)) == [primary]
        assert registry.primaries_on_link(LinkId(1, 4)) == []
        assert registry.channel_count_on_link(LinkId(1, 2)) == 1
        assert registry.channel_count_on_link(LinkId(1, 4)) == 1

    def test_role_filters_are_dynamic_after_promotion(self):
        registry = ChannelRegistry()
        backup = make_channel(channel_id=0, role=ChannelRole.BACKUP, serial=1)
        registry.add(backup)
        link = backup.path.links[0]
        assert registry.primaries_on_link(link) == []
        backup.role = ChannelRole.PRIMARY
        assert registry.primaries_on_link(link) == [backup]

    def test_component_index_and_affected_by(self):
        registry = ChannelRegistry()
        a = make_channel(channel_id=0, nodes=(1, 2, 3))
        b = make_channel(channel_id=1, nodes=(4, 2, 5))
        registry.add(a)
        registry.add(b)
        assert registry.affected_by([2]) == {0, 1}
        assert registry.affected_by([LinkId(1, 2)]) == {0}
        assert registry.affected_by([99]) == set()

    def test_remove_cleans_indexes(self):
        registry = ChannelRegistry()
        channel = make_channel(channel_id=0, nodes=(1, 2))
        registry.add(channel)
        registry.remove(0)
        assert registry.channel_count_on_link(LinkId(1, 2)) == 0
        assert registry.affected_by([1]) == set()

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            ChannelRegistry().remove(5)

    def test_node_lists_a_transit_channel_once_in_id_order(self):
        registry = ChannelRegistry()
        # Registered out of id order; 5 and 2 each cross two links at 2.
        five = registry.add(make_channel(channel_id=5, nodes=(1, 2, 3)))
        two = registry.add(make_channel(channel_id=2, nodes=(4, 2, 5)))
        seven = registry.add(make_channel(channel_id=7, nodes=(2, 6)))
        assert registry.on_component(2) == [two, five, seven]
        assert all(
            a is b for a, b in zip(registry.on_component(2), (two, five, seven))
        )
        assert registry.on_component(LinkId(1, 2)) == [five]
        assert registry.affected_by([2, LinkId(1, 2)]) == {2, 5, 7}

    def test_remove_unknown_leaves_every_index(self):
        registry = ChannelRegistry()
        for channel_id, nodes in ((0, (1, 2, 3)), (1, (3, 2, 1)),
                                  (2, (2, 3, 4))):
            registry.add(make_channel(channel_id=channel_id, nodes=nodes))
        registry.remove(1)
        components = [1, 2, 3, 4, *(LinkId(a, b) for a in range(1, 5)
                                    for b in range(1, 5) if a != b)]

        def indexes():
            return (
                [channel.channel_id for channel in registry.channels()],
                {link: list(ids) for link, ids in registry._by_link.items()},
                {node: set(links) for node, links in registry._links_at.items()},
                [[channel.channel_id for channel in registry.on_component(c)]
                 for c in components],
            )

        before = indexes()
        for unknown in (1, 9):
            with pytest.raises(KeyError):
                registry.remove(unknown)
            assert indexes() == before


class TestAdmissionController:
    @pytest.fixture
    def setup(self):
        topology = Topology()
        topology.add_link(1, 2, 10.0)
        topology.add_link(2, 3, 2.0)
        ledger = ReservationLedger(topology)
        return ledger, AdmissionController(ledger)

    def test_reserve_release_round_trip(self, setup):
        ledger, admission = setup
        traffic = TrafficSpec(bandwidth=2.0)
        admission.reserve_primary(Path([1, 2, 3]), traffic)
        assert ledger.primary_reserved(LinkId(1, 2)) == 2.0
        admission.release_primary(Path([1, 2, 3]), traffic)
        assert ledger.primary_reserved(LinkId(1, 2)) == 0.0

    def test_reserve_is_atomic(self, setup):
        ledger, admission = setup
        traffic = TrafficSpec(bandwidth=3.0)  # fits link 1->2, not 2->3
        with pytest.raises(Exception):
            admission.reserve_primary(Path([1, 2, 3]), traffic)
        assert ledger.primary_reserved(LinkId(1, 2)) == 0.0

    def test_link_predicate(self, setup):
        _, admission = setup
        predicate = admission.primary_link_predicate(TrafficSpec(bandwidth=5.0))
        assert predicate(LinkId(1, 2))
        assert not predicate(LinkId(2, 3))
