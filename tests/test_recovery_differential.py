"""Differential tests: the plan-driven evaluator against the full-scan
oracle (``tests/recovery_oracle.py``), per scenario and bit for bit, plus
the plan's lifetime — when it is compiled, shared and recompiled — and
what of it is filled, when."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro import BCPNetwork, FaultToleranceQoS, TrafficSpec
from repro.channels.channel import Channel, ChannelRole
from repro.core import plan as plan_module
from repro.core.plan import network_plan
from repro.core.establishment import EstablishmentError
from repro.faults import (
    FailureScenario,
    all_single_link_failures,
    all_single_node_failures,
    sample_double_node_failures,
)
from repro.network.generators import hypercube, mesh, ring, torus
from repro.obs import NULL_REGISTRY
from repro.recovery import ActivationOrder, RecoveryEvaluator, evaluate_scenarios
from repro.recovery import evaluator as evaluator_module
from repro.routing.paths import Path
from tests.recovery_oracle import OracleEvaluator
from tests.switchover_oracle import switch_to_backup

TOPOLOGIES = {
    "torus": lambda: torus(4, 4, capacity=12.0),
    "mesh": lambda: mesh(3, 4, capacity=16.0),
    "ring": lambda: ring(7, capacity=30.0),
    "hypercube": lambda: hypercube(3, capacity=12.0),
}


def build_network(kind: str, seed: int) -> BCPNetwork:
    """A seeded mix of 0/1/2-backup connections with mixed multiplexing
    degrees and bandwidths, on links tight enough that activations
    contend (and some requests are rejected — those are skipped)."""
    rng = random.Random(seed)
    network = BCPNetwork(TOPOLOGIES[kind]())
    nodes = list(network.topology.nodes())
    for _ in range(70):
        src, dst = rng.sample(nodes, 2)
        try:
            network.establish(
                src, dst,
                traffic=TrafficSpec(bandwidth=rng.choice((1.0, 1.0, 2.4))),
                ft_qos=FaultToleranceQoS(
                    num_backups=rng.choice((0, 1, 1, 2)),
                    mux_degree=rng.choice((1, 3, 6, 15)),
                ),
            )
        except EstablishmentError:
            continue
    assert network.num_connections > 20
    return network


def scenarios_for(network: BCPNetwork, seed: int) -> list[FailureScenario]:
    topology = network.topology
    return (
        all_single_link_failures(topology)
        + all_single_node_failures(topology)
        + sample_double_node_failures(topology, 12, seed=seed)
        + [FailureScenario()]
    )


def overrides_for(network: BCPNetwork, seed: int) -> list:
    rng = random.Random(seed)
    links = list(network.topology.links())
    partial = {link: rng.choice((0.0, 1.0, 2.4, 5.0)) for link in links[::2]}
    return [None, 1.5, float("inf"), partial]


def compare_with_oracle(network, scenarios, seed=0, overrides=(None,)) -> list:
    """Hold the evaluator to the oracle over every activation order and
    both draw modes, per scenario and bit for bit; returns the
    evaluator's results."""
    results = []
    for override in overrides:
        for order in ActivationOrder:
            for fallback in (False, True):
                evaluator = RecoveryEvaluator(
                    network, order=order, spare_override=override,
                    free_capacity_fallback=fallback, seed=seed,
                    metrics=NULL_REGISTRY,
                )
                oracle = OracleEvaluator(
                    network, order=order, spare_override=override,
                    free_capacity_fallback=fallback, seed=seed,
                )
                for scenario in scenarios:
                    got = evaluator.evaluate(scenario)
                    want = oracle.evaluate(scenario)
                    context = (seed, override, order, fallback, scenario)
                    assert list(got.outcomes.items()) == list(
                        want.outcomes.items()
                    ), context
                    assert list(got.activated_serial.items()) == list(
                        want.activated_serial.items()
                    ), context
                    # The tally kept while classifying is the count of
                    # the outcomes it produced (the oracle's result is
                    # hand-built, so its numbers are re-walked).
                    assert want._tally is None
                    assert got.tally() == want.tally(), context
                    assert got.failed_primaries == want.failed_primaries
                    assert got.r_fast == want.r_fast
                    results.append(got)
    return results


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_full_scan_oracle(kind, seed):
    network = build_network(kind, seed)
    backup_counts = {c.num_backups for c in network.connections()}
    assert {0, 1} <= backup_counts
    results = compare_with_oracle(
        network, scenarios_for(network, seed), seed,
        overrides_for(network, seed),
    )
    # The sweep must actually reach the contention and k-backup paths.
    assert any(got.tally().mux_failures for got in results)
    assert 2 not in backup_counts or any(
        2 in got.activated_serial.values() for got in results
    )


def mixed_scenarios(network: BCPNetwork, seed: int) -> list[FailureScenario]:
    """Scenarios naming more than one kind of component: a node with one
    of its own incident links, a link with a node at neither of its
    ends, and two links."""
    rng = random.Random(seed)
    topology = network.topology
    nodes, links = list(topology.nodes()), list(topology.links())
    scenarios = []
    for node in rng.sample(nodes, 4):
        scenarios.append(FailureScenario(
            failed_nodes=frozenset([node]),
            failed_links=frozenset([rng.choice(topology.incident_links(node))]),
        ))
    for link in rng.sample(links, 4):
        node = rng.choice([n for n in nodes if n not in (link.src, link.dst)])
        scenarios.append(FailureScenario(
            failed_nodes=frozenset([node]), failed_links=frozenset([link]),
        ))
    scenarios += [
        FailureScenario.of_links(rng.sample(links, 2)) for _ in range(6)
    ]
    return scenarios


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_mixed_scenarios_match_full_scan_oracle(kind, seed):
    network = build_network(kind, seed)
    results = compare_with_oracle(
        network, mixed_scenarios(network, seed), seed, (None, 1.5)
    )
    # Each scenario kind hits somebody; some exclude, some contend.
    assert all(got.outcomes for got in results[:14])
    assert any(got.tally().excluded for got in results)
    assert any(got.tally().mux_failures for got in results)


class TestLazyDetail:
    """A drawn result keeps only its compact record; the per-connection
    dicts are built when first read, once."""

    def test_evaluate_many_builds_no_per_connection_dict(self, monkeypatch):
        network = build_network("torus", 0)
        evaluator = RecoveryEvaluator(network, metrics=NULL_REGISTRY)
        drawn, builds = [], []
        real_evaluate = RecoveryEvaluator._evaluate
        real_build = evaluator_module.ScenarioResult.__getattr__

        def keep(self, scenario):
            drawn.append(real_evaluate(self, scenario))
            return drawn[-1]

        def counting_build(self, name):
            builds.append(name)
            return real_build(self, name)

        monkeypatch.setattr(RecoveryEvaluator, "_evaluate", keep)
        monkeypatch.setattr(
            evaluator_module.ScenarioResult, "__getattr__", counting_build
        )
        scenarios = scenarios_for(network, 0)
        stats = evaluator.evaluate_many(scenarios)
        assert stats.scenarios == len(drawn) == len(scenarios)
        assert stats.fast_recovered and stats.mux_failures
        assert builds == []
        for result in drawn:
            assert "outcomes" not in vars(result)
            assert "activated_serial" not in vars(result)
        # Read afterwards, the detail is the oracle's.
        oracle = OracleEvaluator(network)
        for result, scenario in zip(drawn, scenarios):
            want = oracle.evaluate(scenario)
            assert list(result.outcomes.items()) == list(want.outcomes.items())
            assert list(result.activated_serial.items()) == list(
                want.activated_serial.items()
            )
        assert len(builds) == len(drawn)  # one build per result, not two

    @pytest.mark.parametrize("first", ["outcomes", "activated_serial"])
    def test_second_read_returns_the_cached_object(self, first):
        network = build_network("torus", 0)
        evaluator = RecoveryEvaluator(network, metrics=NULL_REGISTRY)
        scenario = all_single_node_failures(network.topology)[5]
        result = evaluator.evaluate(scenario)
        built = getattr(result, first)
        assert getattr(result, first) is built
        outcomes, activated = result.outcomes, result.activated_serial
        assert result.outcomes is outcomes
        assert result.activated_serial is activated
        assert "_record" not in vars(result)
        assert outcomes and activated
        with pytest.raises(AttributeError):
            result.no_such_field


# ----------------------------------------------------------------------
# what a scenario can see, and in what order it activates
# ----------------------------------------------------------------------
def test_connection_whose_channels_left_the_registry_is_invisible():
    network = build_network("torus", 0)
    ghost = network.connections()[3]
    # The engine's teardown deregisters the channels; the facade still
    # lists the connection.
    network.engine.teardown(ghost)
    assert ghost in network.connections()
    scenarios = scenarios_for(network, 0)
    for got in compare_with_oracle(network, scenarios):
        assert ghost.connection_id not in got.outcomes


def test_channel_registered_outside_any_connection_is_invisible():
    network = build_network("torus", 0)
    live, other = network.connections()[:2]
    # Two strays carrying a live connection's id: one along that
    # connection's own primary, one where only a backup of another runs.
    for path in (live.primary.path, other.backups[0].path):
        network.registry.add(Channel(
            channel_id=network.registry.allocate_id(),
            connection_id=live.connection_id, role=ChannelRole.PRIMARY,
            serial=0, path=path, traffic=live.traffic,
        ))
    results = compare_with_oracle(network, scenarios_for(network, 0))
    assert any(live.connection_id in got.outcomes for got in results)


def test_failure_must_hit_the_promoted_primary():
    network = build_network("torus", 1)
    switched = [c for c in network.connections() if c.backups][:6]
    for connection in switched:
        retired = connection.primary.path
        switch_to_backup(network, connection)
        assert connection.primary.path != retired
    results = compare_with_oracle(network, scenarios_for(network, 1))
    for connection in switched:
        promoted = set(connection.primary.path.links)
        for got in results:
            if got.scenario.failed_links:  # a single-link scenario
                hit = connection.connection_id in got.outcomes
                assert hit == bool(got.scenario.failed_links & promoted)


def mixed_degree_network(degrees) -> BCPNetwork:
    """All ordered pairs of a 4x4 torus's first rows, one block of
    connections per entry of ``degrees``, established in that order."""
    network = BCPNetwork(torus(4, 4, capacity=12.0))
    for mux_degree in degrees:
        for src in range(8):
            for dst in range(8):
                if src != dst:
                    try:
                        network.establish(src, dst, ft_qos=FaultToleranceQoS(
                            num_backups=1, mux_degree=mux_degree,
                        ))
                    except EstablishmentError:
                        pass
    return network


@pytest.fixture
def count_priority_keys(monkeypatch):
    """How often ``ActivationOrder.PRIORITY`` computed a sort key."""
    calls = []
    real_key = evaluator_module._by_priority

    def counting_key(record):
        calls.append(record.connection_id)
        return real_key(record)

    monkeypatch.setattr(evaluator_module, "_by_priority", counting_key)
    return lambda: len(calls)


def test_priority_sorts_when_establishment_order_is_not_priority_order(
    count_priority_keys,
):
    network = mixed_degree_network((6, 3, 1))
    assert {c.mux_degree for c in network.connections()} == {6, 3, 1}
    assert not network_plan(network).priority_ordered
    results = compare_with_oracle(network, scenarios_for(network, 0))
    assert count_priority_keys() > 0
    # Somewhere the activation order really differs from connections()
    # order, and it matters: contention is reached.
    assert any(
        list(got.outcomes) != sorted(got.outcomes) for got in results
    )
    assert any(got.tally().mux_failures for got in results)


@pytest.mark.parametrize("degrees", [(3,), (1, 3, 6)])
def test_priority_does_not_sort_a_network_already_in_priority_order(
    count_priority_keys, degrees
):
    network = mixed_degree_network(degrees)
    assert network_plan(network).priority_ordered
    compare_with_oracle(network, scenarios_for(network, 0))
    assert count_priority_keys() == 0


def test_backup_with_an_off_topology_hop_never_draws():
    network = BCPNetwork(torus(4, 4, capacity=12.0))
    bare = network.establish(0, 5, ft_qos=FaultToleranceQoS(num_backups=0))
    covered = network.establish(
        0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
    )
    assert not network.topology.has_link(0, 10)
    for connection, serial in ((bare, 1), (covered, 2)):
        # 0 -> 10 is no link of the torus: its pool is empty whatever the
        # override says, so this backup is healthy but never activates.
        connection.backups.append(Channel(
            channel_id=network.registry.allocate_id(),
            connection_id=connection.connection_id, role=ChannelRole.BACKUP,
            serial=serial, path=Path([0, 10, 5]), traffic=connection.traffic,
            mux_degree=1,
        ))
    scenarios = scenarios_for(network, 0)
    results = compare_with_oracle(
        network, scenarios, overrides=(None, float("inf"))
    )
    outcomes = {got.outcomes.get(bare.connection_id) for got in results}
    assert outcomes == {
        None, evaluator_module.ConnectionOutcome.MUX_FAILURE,
        evaluator_module.ConnectionOutcome.EXCLUDED,
    }
    assert all(
        got.activated_serial.get(covered.connection_id, 1) == 1
        for got in results
    )


# ----------------------------------------------------------------------
# plan lifetime
# ----------------------------------------------------------------------
@pytest.fixture
def count_compiles(monkeypatch, tmp_path):
    """Count ``NetworkPlan`` compilations in this process *and* in any
    forked worker (each appends a line to a shared file)."""
    log = tmp_path / "compiles.log"
    log.touch()
    real_init = plan_module.NetworkPlan.__init__

    def counting_init(self, network):
        with open(log, "a") as handle:
            handle.write("compile\n")
        real_init(self, network)

    monkeypatch.setattr(plan_module.NetworkPlan, "__init__", counting_init)
    return lambda: len(log.read_text().splitlines())


class TestPlanLifetime:
    def test_stale_evaluator_reads_live_connections_and_snapshot_spares(
        self, torus4, count_compiles
    ):
        qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
        first = torus4.establish(0, 5, ft_qos=qos)
        evaluator = RecoveryEvaluator(torus4, metrics=NULL_REGISTRY)
        scenario = FailureScenario.of_links([first.primary.path.links[0]])

        assert evaluator.evaluate(scenario).outcomes.keys() == {
            first.connection_id
        }
        evaluator.evaluate(scenario)
        assert count_compiles() == 1  # unchanged ledger: plan reused

        # Establish after construction: the stale evaluator sees the new
        # connection (live), but its spare pools are still the snapshot —
        # on links the snapshot had no spare for, activation mux-fails.
        second = torus4.establish(0, 5, ft_qos=qos)
        assert second.primary.path == first.primary.path
        stale = evaluator.evaluate(scenario)
        assert count_compiles() == 2  # ledger.version moved: recompiled once
        assert set(stale.outcomes) == {first.connection_id, second.connection_id}
        assert stale.tally().fast_recovered == 1  # one unit of old spare
        assert stale.tally().mux_failures == 1
        want = OracleEvaluator(torus4)
        want._base_spares = dict(evaluator._base_spares)
        assert list(stale.outcomes.items()) == list(
            want.evaluate(scenario).outcomes.items()
        )
        # A fresh evaluator sees the resized pools and reuses the plan.
        fresh = RecoveryEvaluator(torus4, metrics=NULL_REGISTRY)
        assert fresh.evaluate(scenario).tally().fast_recovered == 2
        assert count_compiles() == 2

        # Teardown after construction: the departed connection is gone
        # from the stale evaluator's results too.
        torus4.teardown(first)
        gone = evaluator.evaluate(scenario)
        assert count_compiles() == 3
        assert set(gone.outcomes) == {second.connection_id}

    def test_plan_not_pickled_or_shared_between_networks(self, torus4):
        import pickle

        torus4.establish(0, 5)
        plan = network_plan(torus4)
        assert network_plan(torus4) is plan
        clone = pickle.loads(pickle.dumps(torus4))
        assert clone._plan is None
        assert network_plan(clone) is not plan
        assert network_plan(torus4) is plan

    def test_plan_built_once_per_network_state_not_per_shard(
        self, loaded_torus4, count_compiles
    ):
        scenarios = all_single_link_failures(loaded_torus4.topology)
        stats = evaluate_scenarios(loaded_torus4, scenarios)
        assert stats.scenarios == len(scenarios) == 64
        assert count_compiles() == 1
        # A second sweep (a second evaluator) over the unchanged network
        # builds nothing.
        again = evaluate_scenarios(loaded_torus4, scenarios)
        assert again == stats
        assert count_compiles() == 1


# ----------------------------------------------------------------------
# demand fill
# ----------------------------------------------------------------------
@pytest.fixture
def count_fills(monkeypatch):
    """``count_fills(network)`` -> a reader of (records constructed,
    ``registry.on_component`` calls) since the previous reading."""
    records = []
    real_record = plan_module.ConnectionRecord

    def counting_record(*args):
        records.append(args[0])
        return real_record(*args)

    monkeypatch.setattr(plan_module, "ConnectionRecord", counting_record)

    def attach(network):
        reads = []
        real_read = network.registry.on_component

        def counting_read(component):
            reads.append(component)
            return real_read(component)

        monkeypatch.setattr(network.registry, "on_component", counting_read)

        def reading():
            counts = (len(records), len(reads))
            records.clear()
            reads.clear()
            return counts

        return reading

    return attach


class TestDemandFill:
    @pytest.mark.parametrize("pairs", [12, 240])
    def test_fill_follows_the_scenarios_not_the_population(
        self, torus4, count_fills, pairs
    ):
        qos = FaultToleranceQoS(num_backups=1, mux_degree=3)
        wanted = [(s, d) for s in range(16) for d in range(16) if s != d]
        for src, dst in random.Random(5).sample(wanted, pairs):
            torus4.establish(src, dst, ft_qos=qos)
        reading = count_fills(torus4)
        links = random.Random(7).sample(list(torus4.topology.links()), 16)
        scenarios = [FailureScenario.of_links([link]) for link in links]
        evaluator = RecoveryEvaluator(torus4, metrics=NULL_REGISTRY)
        evaluator.evaluate_many(scenarios)  # fills the previous plan
        reading()

        torus4.teardown(torus4.connections()[0])  # the ledger moves
        registry = torus4.registry
        hit = {
            channel.connection_id
            for link in links
            for channel in registry.primaries_on_link(link)
        }
        assert 0 < len(hit) < torus4.num_connections
        stats = evaluator.evaluate_many(scenarios)
        assert stats.scenarios == 16
        assert reading() == (len(hit), 16)

        # A second sweep over the unchanged network reads what is there,
        # through any evaluator.
        assert evaluator.evaluate_many(scenarios) == stats
        fresh = evaluate_scenarios(torus4, scenarios, metrics=NULL_REGISTRY)
        assert fresh == stats
        assert reading() == (0, 0)

    def test_plan_does_not_keep_the_network_alive(self):
        gc.collect()
        gc.disable()
        try:
            network = build_network("torus", 0)
            evaluator = RecoveryEvaluator(network, metrics=NULL_REGISTRY)
            evaluator.evaluate_many(scenarios_for(network, 0))
            assert network._plan is not None
            freed = weakref.ref(network)
            del network, evaluator
            # No cycle runs through the plan: dropping the last reference
            # frees the network without the collector.
            assert freed() is None
        finally:
            gc.enable()
