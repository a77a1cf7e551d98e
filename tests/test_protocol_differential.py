"""Differential tests: the plan-driven protocol runtime against the
fresh-construction oracle (``tests/protocol_oracle.py``), event for event
and record for record, plus the plan's lifetime — when it is compiled,
shared, recompiled, and what a simulation may and may not share with it."""

from __future__ import annotations

import pickle
import random
from functools import partial

import pytest

from repro import BCPNetwork, FaultToleranceQoS
from repro.core import plan as core_plan
from repro.core.plan import network_plan
from repro.network.generators import torus
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.protocol import (
    InvariantAuditor,
    ProtocolConfig,
    ProtocolSimulation,
    SwitchingScheme,
)
from repro.protocol import plan as plan_module
from repro.protocol.daemon import BackupInfo
from repro.protocol.plan import node_tables
from repro.serve.state import restore_network, snapshot_network
from repro.sim import TraceLog
from tests.planted import (
    LossyOracleSimulation,
    LossySimulation,
    RepairDeafOracleSimulation,
    RepairDeafSimulation,
    UnguardedOracleSimulation,
    UnguardedSimulation,
)
from tests.protocol_oracle import OracleAuditor, OracleSimulation
from tests.test_recovery_differential import TOPOLOGIES, build_network

#: name -> (config, which of ``schedules_for`` it runs: the default scheme
#: takes all five, every other variant the ones that stress it).
CONFIGS = {
    "scheme1": (ProtocolConfig(scheme=SwitchingScheme.SCHEME_1), (0, 1, 3)),
    "scheme2": (ProtocolConfig(scheme=SwitchingScheme.SCHEME_2), (0, 1, 4)),
    "scheme3": (ProtocolConfig(scheme=SwitchingScheme.SCHEME_3),
                (0, 1, 2, 3, 4)),
    # Every RCC link drops 15 % of its frames (see ``SIMULATIONS``).
    "lossy": (ProtocolConfig(), (2, 3)),
    "preemption": (ProtocolConfig(
        preemption=True, activation_delay_per_degree=0.25,
    ), (2, 3)),
    # Preemption without the delay variant: activations race for spare.
    "preemption-prompt": (ProtocolConfig(preemption=True), (2, 4)),
    # The planted race (``tests/planted.py``, see ``SIMULATIONS``) makes
    # the auditor report multiple-active and endpoint-disagreement
    # violations: the touched-only sweep must list them exactly as the
    # full sweep does.
    "unguarded": (ProtocolConfig(), (3, 4)),
    # Daemons deaf to repair notices (``tests/planted.py``): the
    # schedules with repairs leave ``repair-not-rejoined`` violations.
    "deaf": (ProtocolConfig(), (3, 4)),
}

#: name -> (product simulation, oracle simulation), where they are not
#: the plain pair: both run the same planted mixin.
SIMULATIONS = {
    "lossy": (partial(LossySimulation, loss=0.15),
              partial(LossyOracleSimulation, loss=0.15)),
    "unguarded": (UnguardedSimulation, UnguardedOracleSimulation),
    "deaf": (RepairDeafSimulation, RepairDeafOracleSimulation),
}

HORIZON = 400.0


def schedules_for(network: BCPNetwork, seed: int) -> list[list[tuple]]:
    """Seeded ``(time, "fail" | "repair", component)`` schedules: a single
    node, a single link, a node + link double failure, and repairs early
    enough to rejoin (inside the rejoin timeout) and late enough not to."""
    rng = random.Random(seed)
    topology = network.topology
    busy = network.registry
    nodes = sorted(topology.nodes(),
                   key=lambda node: -len(busy.on_component(node)))[:6]
    links = sorted(topology.links(),
                   key=lambda link: -busy.channel_count_on_link(link))[:12]
    node, other = rng.sample(nodes, 2)
    link, second = rng.sample(links, 2)
    return [
        [(1.0, "fail", node)],
        [(1.0, "fail", link)],
        [(1.0, "fail", node), (1.0, "fail", link)],
        [(1.0, "fail", node), (6.0, "fail", other),
         (20.0, "repair", node), (150.0, "repair", other)],
        [(1.0, "fail", link), (4.0, "fail", second),
         (12.0, "repair", link), (30.0, "fail", link),
         (45.0, "repair", link), (60.0, "repair", second)],
    ]


def run(simulation_class, auditor_class, network, config, seed, schedule):
    registry = MetricsRegistry()
    simulation = simulation_class(
        network, config, seed=seed, trace=TraceLog(), metrics=registry,
    )
    auditor = auditor_class(simulation)
    auditor.attach()
    for time, action, component in schedule:
        getattr(simulation, action)(component, at=time)
        # The auditor's sweep right after each injection, as the chaos
        # engine runs it.
        simulation.engine.schedule_at(time, auditor.check_event)
    simulation.run(until=HORIZON)
    auditor.check_quiescent(drained=simulation.engine.pending == 0)
    return simulation, auditor, registry.snapshot()["counters"]


def assert_same_run(got, want, context) -> None:
    (sim, auditor, counters), (ref, ref_auditor, ref_counters) = got, want
    assert sim.trace.rows == ref.trace.rows, context
    assert sim.metrics.recoveries == ref.metrics.recoveries, context
    assert sim.rcc_totals() == ref.rcc_totals(), context
    assert sim.engine.events_processed == ref.engine.events_processed, context
    assert sim.engine.now == ref.engine.now, context
    assert counters == ref_counters, context
    assert auditor.violations == ref_auditor.violations, context
    assert sim._draws == ref._draws, context
    for node, reference in ref.daemons.items():
        daemon = sim.daemons[node]
        # Full iteration is in registration order and materialises the
        # rest; every record and view ends as the eager install's did.
        assert list(daemon.records) == list(reference.records), context
        assert list(daemon.views) == list(reference.views), context
        for channel_id, record in daemon.records.items():
            expected = reference.records[channel_id]
            # Dataclass equality: state, reported, mux_failed_link and the
            # identifying fields; the path position is compared apart.
            assert record == expected, (context, node, channel_id)
            assert record.index == expected.index, (context, node, channel_id)
        assert dict(daemon.views.items()) == reference.views, (context, node)
    channels = {
        channel.channel_id: channel
        for connection in sim.network.connections()
        for channel in connection.channels
    }
    for channel_id, owned in ref._owned_links.items():
        # What the product seeds a channel's set with on first touch.
        channel = channels[channel_id]
        seeded = set() if channel.serial else set(channel.path.links)
        assert sim._owned_links.get(channel_id, seeded) == owned, (
            context, channel_id)


def touched_bound(simulation) -> int:
    """Records the touched connections own, network-wide: the most a run
    plus its audit may materialise."""
    connections = {
        record.connection_id
        for daemon in simulation.daemons.values()
        for record in daemon.records.touched()
    }
    return sum(
        len(channel.path.nodes)
        for connection_id in connections
        for channel in simulation.network.connection(connection_id).channels
    )


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_fresh_construction_oracle(kind, seed):
    network = build_network(kind, seed)
    assert {0, 1} <= {c.num_backups for c in network.connections()}
    total_records = sum(
        len(channel.path.nodes)
        for connection in network.connections()
        for channel in connection.channels
    )
    mux_failures = demotions = rejoins = violations = preemptions = 0
    schedules = schedules_for(network, seed)
    for name, (config, chosen) in CONFIGS.items():
        product, oracle = SIMULATIONS.get(
            name, (ProtocolSimulation, OracleSimulation)
        )
        for schedule in (schedules[index] for index in chosen):
            context = (kind, seed, name, schedule)
            got = run(product, InvariantAuditor,
                      network, config, seed, schedule)
            simulation = got[0]
            # Neither the run nor the audit materialised the world.
            live = sum(
                len(daemon.records.touched())
                for daemon in simulation.daemons.values()
            )
            assert live <= touched_bound(simulation), context
            if len(schedule) == 1:
                assert live < total_records, context
            want = run(oracle, OracleAuditor,
                       network, config, seed, schedule)
            assert_same_run(got, want, context)
            mux_failures += simulation.metrics.mux_failures
            demotions += got[2].get("switchover.demotions", 0)
            rejoins += simulation.metrics.rejoins
            preemptions += simulation.metrics.preemptions
            violations += len(got[1].violations)
    # The sweep must actually reach contention, the stale-primary scan,
    # the rejoin append, preemption and a non-empty violation list.
    assert mux_failures and demotions and rejoins, (
        mux_failures, demotions, rejoins)
    assert preemptions and violations, (preemptions, violations)


def test_audit_stays_proportional_to_the_failure():
    """A loaded 6x6 torus: one link failure touches a small share of the
    records and views, and ``check_quiescent`` keeps it that way."""
    network = BCPNetwork(torus(6, 6, capacity=200.0))
    qos = FaultToleranceQoS(num_backups=1, mux_degree=3)
    for src in range(36):
        for dst in range(36):
            if src != dst:
                network.establish(src, dst, ft_qos=qos)
    simulation = ProtocolSimulation(network, seed=0, metrics=NULL_REGISTRY)
    daemons = simulation.daemons.values()
    auditor = InvariantAuditor(simulation)
    auditor.attach()
    simulation.fail(network.topology.link(0, 1), at=1.0)
    simulation.run(until=HORIZON)
    assert simulation.metrics.recovered_count() > 10

    connections = {
        record.connection_id
        for daemon in daemons for record in daemon.records.touched()
    }
    auditor.check_quiescent(drained=simulation.engine.pending == 0)
    assert auditor.ok
    # The audit read siblings and far-end views of the touched
    # connections, and nothing else.
    records = sum(len(daemon.records.touched()) for daemon in daemons)
    views = sum(len(daemon.views.touched()) for daemon in daemons)
    assert records <= touched_bound(simulation)
    assert views <= 2 * len(connections)
    assert {
        record.connection_id
        for daemon in daemons for record in daemon.records.touched()
    } == connections
    assert records < sum(len(daemon.records) for daemon in daemons) / 5
    assert views < sum(len(daemon.views) for daemon in daemons) / 5


# ----------------------------------------------------------------------
# plan lifetime
# ----------------------------------------------------------------------
@pytest.fixture
def count_compiles(monkeypatch):
    compiled = []
    real_init = core_plan.NetworkPlan.__init__

    def counting_init(self, network):
        compiled.append(network)
        real_init(self, network)

    monkeypatch.setattr(core_plan.NetworkPlan, "__init__", counting_init)
    return lambda: len(compiled)


class TestPlanLifetime:
    def test_compiled_once_per_network_state(self, loaded_torus4,
                                             count_compiles):
        simulations = [
            ProtocolSimulation(loaded_torus4, seed=seed, metrics=NULL_REGISTRY)
            for seed in range(4)
        ]
        assert count_compiles() == 1
        assert len({id(simulation.plan) for simulation in simulations}) == 1
        assert simulations[0].plan is network_plan(loaded_torus4)
        # ... and so is the daemons' index on it.
        assert len({id(simulation.tables) for simulation in simulations}) == 1
        assert simulations[0].tables is simulations[0].plan.tables

        # The plan is recompiled exactly when ledger.version moves.
        version = loaded_torus4.ledger.version
        extra = loaded_torus4.establish(0, 5)
        assert loaded_torus4.ledger.version != version
        after = ProtocolSimulation(loaded_torus4, metrics=NULL_REGISTRY)
        ProtocolSimulation(loaded_torus4, metrics=NULL_REGISTRY)
        assert count_compiles() == 2
        assert after.plan is not simulations[0].plan
        assert extra.connection_id in after.plan.position_of
        assert extra.connection_id not in simulations[0].plan.position_of
        loaded_torus4.teardown(extra)
        ProtocolSimulation(loaded_torus4, metrics=NULL_REGISTRY)
        assert count_compiles() == 3

    def test_plan_not_pickled_or_shared_between_networks(self, torus4):
        torus4.establish(0, 5)
        plan = network_plan(torus4)
        assert network_plan(torus4) is plan
        clone = pickle.loads(pickle.dumps(torus4))
        assert clone._plan is None
        assert network_plan(clone) is not plan
        assert network_plan(torus4) is plan

    def test_simulation_keeps_running_on_its_pinned_plan(self, torus4):
        qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
        first = torus4.establish(0, 5, ft_qos=qos)
        victim = first.primary.path.links[0]

        def outcome(simulation):
            simulation.fail(victim, at=1.0)
            simulation.run(until=HORIZON)
            return (simulation.trace.rows, simulation.metrics.recoveries,
                    simulation.engine.events_processed)

        reference = outcome(
            ProtocolSimulation(torus4, seed=0, trace=TraceLog()))
        assert set(reference[1]) == {first.connection_id}
        assert reference[1][first.connection_id].recovered

        # Build, then change the network twice before running.
        pinned = ProtocolSimulation(torus4, seed=0, trace=TraceLog())
        second = torus4.establish(0, 5, ft_qos=qos)
        torus4.teardown(second)
        third = torus4.establish(5, 0, ft_qos=qos)
        assert pinned.plan is not network_plan(torus4)
        assert third.primary.channel_id not in pinned.daemons[5].records
        assert outcome(pinned) == reference
        torus4.teardown(third)

        # A connection established afterwards over the failed link is not
        # the run's: no daemon of it ever installed the connection.
        pinned = ProtocolSimulation(torus4, seed=0, trace=TraceLog())
        again = torus4.establish(0, 5, ft_qos=qos)
        assert victim in again.primary.path.links
        assert outcome(pinned) == reference
        torus4.teardown(again)

        # A connection torn down afterwards is still the run's: its
        # primary fails and it recovers, exactly as before.
        pinned = ProtocolSimulation(torus4, seed=0, trace=TraceLog())
        torus4.teardown(first)
        assert outcome(pinned) == reference

    def test_pinned_run_outlives_its_network(self):
        """A run built on a network that is then emptied runs exactly as
        it would have on the network it was built on — its failures, its
        episodes and its audit (here the planted race's endpoint
        disagreements) included."""
        network = build_network("torus", 0)
        schedule = schedules_for(network, 0)[3]

        def outcome(simulation, auditor):
            for time, action, component in schedule:
                getattr(simulation, action)(component, at=time)
            simulation.run(until=HORIZON)
            auditor.check_quiescent(drained=simulation.engine.pending == 0)
            return (simulation.trace.rows, simulation.metrics.recoveries,
                    simulation.engine.events_processed, auditor.violations)

        def built():
            simulation = UnguardedSimulation(
                network, seed=0, trace=TraceLog(), metrics=NULL_REGISTRY)
            auditor = InvariantAuditor(simulation)
            auditor.attach()
            return simulation, auditor

        reference = outcome(*built())
        assert any(violation.invariant == "endpoint-disagreement"
                   for violation in reference[3])
        pinned = built()
        network.teardown(*network.connections())
        assert network.num_connections == 0
        assert outcome(*pinned) == reference

    def test_lazy_table_fills_on_touch_and_reads_like_the_full_table(
        self, ring6
    ):
        qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
        connections = [ring6.establish(0, dst, ft_qos=qos) for dst in (2, 3)]
        channel_ids = [
            channel.channel_id
            for connection in connections for channel in connection.channels
        ]
        node_table = node_tables(
            network_plan(ring6), ring6.topology.nodes())[0]
        built = []
        real_record = node_table._record

        def fill(channel_id):
            record = real_record(channel_id)  # KeyError: not a row
            built.append(channel_id)
            return record

        table = plan_module.LazyTable(node_table.channels, fill)
        # Untouched, it already reads like the whole table ...
        assert len(table) == 4 and list(table) == channel_ids
        assert all(channel_id in table for channel_id in channel_ids)
        assert list(table.keys()) == channel_ids
        assert table.touched() == [] and not built
        # ... ``[]`` and ``get`` build an entry once, later hits are the
        # dict's own ...
        third = table[channel_ids[2]]
        assert table[channel_ids[2]] is third
        first = table.get(channel_ids[0])
        assert table.get(channel_ids[0]) is first
        assert built == [channel_ids[2], channel_ids[0]]
        assert dict.__len__(table) == 2
        # ... ``touched()`` is in registration order, not touch order ...
        assert table.touched() == [first, third]
        # ... and an unknown key builds nothing.
        unknown = max(channel_ids) + 1
        assert unknown not in table
        assert table.get(unknown) is None
        assert table.get(unknown, "default") == "default"
        with pytest.raises(KeyError):
            table[unknown]
        assert len(built) == 2 and dict.__len__(table) == 2
        # Whole-table reads build what is left, in registration order.
        assert [record.channel_id for record in table.values()] == channel_ids
        assert [key for key, _ in table.items()] == channel_ids
        assert sorted(built) == channel_ids and len(table.touched()) == 4

    @pytest.mark.parametrize("restored", [False, True],
                             ids=["established", "restored"])
    def test_connection_lookup_at_a_node(self, torus4, restored):
        qos = FaultToleranceQoS(num_backups=2, mux_degree=3)
        for src in (0, 5):
            for dst in range(16):
                if dst != src:
                    torus4.establish(src, dst, ft_qos=qos)
        network = torus4
        if restored:
            network = BCPNetwork(torus4.topology)
            restore_network(network, snapshot_network(torus4))
        connections = network.connections()
        assert len(connections) == 30
        assert all(len(connection.backups) == 2 for connection in connections)
        tables = node_tables(network_plan(network), network.topology.nodes())
        for node, table in tables.items():
            records = table.records()
            for connection in connections:
                through = [
                    channel for channel in connection.channels
                    if node in channel.path.nodes
                ]
                assert table.channels_of(connection.connection_id) == [
                    channel.channel_id for channel in through
                ]
                for channel in through:
                    # The network's own channel, and its position on the
                    # path read off it.
                    assert table.channels[channel.channel_id] is channel
                    assert records[channel.channel_id].index == (
                        channel.path.nodes.index(node)
                    )

    def test_simulation_state_never_aliases_the_plan(self, ring6):
        qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
        connection = ring6.establish(0, 2, ft_qos=qos)
        primary = connection.primary
        backup = connection.backups[0]
        source = connection.source
        installed = [BackupInfo(
            channel_id=backup.channel_id, serial=backup.serial,
            mux_degree=backup.mux_degree,
        )]

        first = ProtocolSimulation(ring6, seed=0, metrics=NULL_REGISTRY)
        plan = first.plan
        position = plan.position_of[connection.connection_id]
        snapshot = (plan.channels(position), plan.degrees[position])
        assert snapshot == ((primary, backup), (1, 1))
        # Fail and repair the primary inside the rejoin window: the healed
        # primary is appended to the source view's backups (the rejoin
        # append), the record reports, the view's health sets change.
        first.fail(primary.path.links[0], at=1.0)
        first.repair(primary.path.links[0], at=10.0)
        first.run(until=HORIZON)
        assert first.metrics.rejoins
        view = first.daemons[source].views[connection.connection_id]
        assert [info.channel_id for info in view.backups] == [
            backup.channel_id, primary.channel_id,
        ]
        assert view.attempted == {backup.channel_id}
        # ... and mutate by hand everything a simulation owns.
        record = first.daemons[source].records[primary.channel_id]
        untouched = first.daemons[source].records[backup.channel_id]
        assert record.reported is untouched.reported  # the shared empty set
        with pytest.raises(AttributeError):
            record.reported.add("anything")  # ... which nobody can write to
        record.reported = record.reported | {"anything"}
        assert not untouched.reported
        view.unhealthy.add(12345)
        first._owned(record).clear()
        first._owned(untouched).add(primary.path.links[0])

        # The plan, and the network's channels it points at, are as
        # establishment left them.
        assert (plan.channels(position), plan.degrees[position]) == snapshot
        assert connection.backups == [backup]
        assert primary.path.links == tuple(
            ring6.topology.link(a, b)
            for a, b in zip(primary.path.nodes, primary.path.nodes[1:])
        )
        with pytest.raises(TypeError):
            plan.degrees[position] = ()
        with pytest.raises(TypeError):
            plan.position_of[connection.connection_id] = 0

        second = ProtocolSimulation(ring6, seed=0, metrics=NULL_REGISTRY)
        assert second.plan is plan
        fresh_view = second.daemons[source].views[connection.connection_id]
        assert fresh_view is not view
        assert fresh_view.backups == installed
        assert fresh_view.backups is not view.backups
        assert not fresh_view.unhealthy and not fresh_view.attempted
        fresh_record = second.daemons[source].records[primary.channel_id]
        assert fresh_record is not record
        assert not fresh_record.reported
        assert second._owned(fresh_record) == set(primary.path.links)
        assert second._owned(
            second.daemons[source].records[backup.channel_id]) == set()
        # The second simulation behaves like one on a fresh network.
        reference = OracleSimulation(ring6, seed=0, metrics=NULL_REGISTRY)
        for simulation in (second, reference):
            simulation.fail(primary.path.links[0], at=1.0)
            simulation.run(until=HORIZON)
        assert second.metrics.recoveries == reference.metrics.recoveries
        assert second.engine.events_processed == (
            reference.engine.events_processed
        )
