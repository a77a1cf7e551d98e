"""Differential tests: the plan-driven evaluator against the full-scan
oracle (``tests/recovery_oracle.py``), per scenario and bit for bit, plus
the plan's lifetime — when it is compiled, shared and recompiled."""

from __future__ import annotations

import random

import pytest

from repro import BCPNetwork, FaultToleranceQoS, TrafficSpec
from repro.core.establishment import EstablishmentError
from repro.faults import (
    FailureScenario,
    all_single_link_failures,
    all_single_node_failures,
    sample_double_node_failures,
)
from repro.network.generators import hypercube, mesh, ring, torus
from repro.obs import NULL_REGISTRY
from repro.parallel import evaluate_scenarios
from repro.recovery import ActivationOrder, RecoveryEvaluator
from repro.recovery import plan as plan_module
from repro.recovery.plan import recovery_plan
from tests.recovery_oracle import OracleEvaluator

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


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_full_scan_oracle(kind, seed):
    network = build_network(kind, seed)
    scenarios = scenarios_for(network, seed)
    backup_counts = {c.num_backups for c in network.connections()}
    assert {0, 1} <= backup_counts
    saw_mux_failure = saw_second_backup = False
    for override in overrides_for(network, seed):
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
                    context = (kind, seed, override, order, fallback, scenario)
                    assert list(got.outcomes.items()) == list(
                        want.outcomes.items()
                    ), context
                    assert list(got.activated_serial.items()) == list(
                        want.activated_serial.items()
                    ), context
                    # The tally kept while classifying is the count of
                    # the outcomes it produced.
                    assert got.tally() == want.tally(), context
                    assert got.failed_primaries == got.tally().failed_primaries
                    saw_mux_failure |= got.tally().mux_failures > 0
                    saw_second_backup |= 2 in got.activated_serial.values()
    # The sweep must actually reach the contention and k-backup paths.
    assert saw_mux_failure
    assert saw_second_backup or 2 not in backup_counts


# ----------------------------------------------------------------------
# plan lifetime
# ----------------------------------------------------------------------
@pytest.fixture
def count_compiles(monkeypatch, tmp_path):
    """Count ``RecoveryPlan`` compilations in this process *and* in any
    forked worker (each appends a line to a shared file)."""
    log = tmp_path / "compiles.log"
    log.touch()
    real_init = plan_module.RecoveryPlan.__init__

    def counting_init(self, network):
        with open(log, "a") as handle:
            handle.write("compile\n")
        real_init(self, network)

    monkeypatch.setattr(plan_module.RecoveryPlan, "__init__", counting_init)
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
        assert not evaluator.is_stale

        # Establish after construction: the stale evaluator sees the new
        # connection (live), but its spare pools are still the snapshot —
        # on links the snapshot had no spare for, activation mux-fails.
        second = torus4.establish(0, 5, ft_qos=qos)
        assert evaluator.is_stale
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
        plan = recovery_plan(torus4)
        assert recovery_plan(torus4) is plan
        clone = pickle.loads(pickle.dumps(torus4))
        assert clone._recovery_plan is None
        assert recovery_plan(clone) is not plan
        assert recovery_plan(torus4) is plan

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plan_built_once_per_network_state_not_per_shard(
        self, loaded_torus4, count_compiles, workers
    ):
        scenarios = all_single_link_failures(loaded_torus4.topology)
        stats = evaluate_scenarios(
            loaded_torus4, scenarios, workers=workers, shard_size=8,
        )
        assert stats.scenarios == len(scenarios) == 64  # 8 shards
        assert count_compiles() == 1
        # A second sweep over the unchanged network builds nothing.
        again = evaluate_scenarios(
            loaded_torus4, scenarios, workers=workers, shard_size=8,
        )
        assert again == stats
        assert count_compiles() == 1
