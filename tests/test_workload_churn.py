"""Tests for the churn workload engine (repro.workload)."""

from __future__ import annotations

import json

import pytest

from repro.core.bcp import BCPNetwork
from repro.network import torus
from repro.obs.registry import MetricsRegistry
from repro.workload import ChurnConfig, ChurnEngine, ChurnStats


def make_network(rows: int = 4, cols: int = 4, capacity: float = 200.0) -> BCPNetwork:
    return BCPNetwork(torus(rows, cols, capacity=capacity))


def run_once(config: ChurnConfig) -> tuple[ChurnStats, dict]:
    registry = MetricsRegistry()
    engine = ChurnEngine(make_network(), config, metrics=registry)
    stats = engine.run()
    return stats, registry.snapshot()


class TestChurnConfig:
    def test_defaults_valid(self):
        config = ChurnConfig()
        assert config.arrival_rate == 50.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival_rate": 0.0},
            {"holding_time": -1.0},
            {"duration": 0.0},
            {"bandwidth": 0.0},
            {"epoch_interval": 0.0},
            {"batch_window": -0.1},
            {"holding_time": 0.0},
            {"num_backups": -1},
            {"mux_degree": -1},
            {"eval_scenarios": -1},
            {"pairs": -2},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChurnConfig(**kwargs)


class TestChurnRun:
    def test_smoke_run_is_clean(self):
        config = ChurnConfig(
            arrival_rate=20.0, holding_time=2.0, duration=10.0,
            epoch_interval=2.0, seed=3, pairs=8,
        )
        stats, snapshot = run_once(config)
        assert stats.arrivals > 0
        assert stats.established + stats.blocked == stats.arrivals
        assert stats.clean
        assert stats.epochs == 5
        assert stats.established >= stats.departures + stats.final_connections
        assert snapshot["counters"]["churn.arrivals"] == stats.arrivals
        # Epoch boundaries sampled the time series.
        assert snapshot["series"]["churn.blocking"]["count"] == stats.epochs
        assert snapshot["series"]["churn.connections"]["count"] == stats.epochs

    def test_clean_and_healthy_are_distinct_gates(self):
        # ``clean`` is invariants only; ``healthy`` also requires every
        # SLO target met.  A breached SLO must not look "clean but
        # failing" to one caller and "fine" to another.
        stats = ChurnStats()
        assert stats.clean and stats.healthy
        stats.slo_breaches.append("epoch 2: churn.blocking.last <= 0")
        assert stats.clean
        assert not stats.healthy
        stats = ChurnStats()
        stats.audit_violations.append("link (0, 1): over-reserved")
        assert not stats.clean
        assert not stats.healthy

    def test_paused_run_resumes_to_the_same_outcome(self):
        # run(until=...) pauses without drawing RNG or reordering
        # events: pause + resume must equal one uninterrupted run.
        config = ChurnConfig(
            arrival_rate=20.0, holding_time=2.0, duration=10.0,
            epoch_interval=2.0, seed=3, pairs=8,
        )
        baseline, _ = run_once(config)
        engine = ChurnEngine(make_network(), config, metrics=MetricsRegistry())
        partial = engine.run(until=4.0)
        assert partial.arrivals < baseline.arrivals
        resumed = engine.run()
        assert resumed.to_dict() == baseline.to_dict()

    def test_batching_groups_arrivals(self):
        # A small pair pool and a wide batch window force same-pair
        # requests through a shared routing pass.
        config = ChurnConfig(
            arrival_rate=100.0, holding_time=5.0, duration=5.0,
            batch_window=0.5, epoch_interval=5.0, seed=1, pairs=4,
        )
        stats, snapshot = run_once(config)
        assert stats.arrivals > 20
        assert stats.batches < stats.arrivals
        assert snapshot["histograms"]["churn.batch_size"]["max"] > 1.0

    def test_saturation_blocks_but_stays_clean(self):
        # Capacity 2 with unit-bandwidth primaries + backups saturates
        # quickly; the invariants must hold even under heavy rejection.
        registry = MetricsRegistry()
        network = make_network(capacity=2.0)
        config = ChurnConfig(
            arrival_rate=50.0, holding_time=50.0, duration=5.0,
            epoch_interval=1.0, seed=2, pairs=4,
        )
        stats = ChurnEngine(network, config, metrics=registry).run()
        assert stats.blocked > 0
        assert 0.0 < stats.blocking_probability <= 1.0
        assert stats.clean
        assert network.ledger.audit() == []

    def test_departures_release_capacity(self):
        # Short holds on a long run: connections cycle, so departures
        # dominate and the final live count stays far below the peak.
        config = ChurnConfig(
            arrival_rate=30.0, holding_time=0.5, duration=10.0,
            epoch_interval=10.0, seed=5, pairs=8,
        )
        stats, _ = run_once(config)
        assert stats.departures > 0
        assert stats.final_connections <= stats.peak_connections
        assert stats.departures + stats.final_connections == stats.established

    def test_epoch_evaluation_merges_recovery(self):
        config = ChurnConfig(
            arrival_rate=20.0, holding_time=5.0, duration=4.0,
            epoch_interval=2.0, seed=4, pairs=8, eval_scenarios=4,
        )
        stats, snapshot = run_once(config)
        assert stats.recovery.scenarios == 4 * stats.epochs
        # Evaluation counters fold into the session registry, but its
        # wall-clock timers must not (they would break determinism).
        assert snapshot["counters"]["evaluator.scenarios"] > 0
        assert "evaluator.scenario_s" not in snapshot["histograms"]

    def test_rejects_single_node_topology(self):
        from repro.network import Topology

        topology = Topology(name="lonely")
        topology.add_node(0)
        with pytest.raises(ValueError):
            ChurnEngine(
                BCPNetwork(topology), ChurnConfig(), metrics=MetricsRegistry()
            )


class TestChurnStats:
    def test_blocking_probability_zero_when_no_arrivals(self):
        assert ChurnStats().blocking_probability == 0.0

    def test_to_dict_round_trips_through_json(self):
        stats = ChurnStats(arrivals=10, established=8, blocked=2)
        payload = json.loads(json.dumps(stats.to_dict(), sort_keys=True))
        assert payload["blocking_probability"] == 0.2
        assert payload["recovery"]["scenarios"] == 0


class TestInvariantChecks:
    def test_detects_injected_spare_mismatch(self):
        registry = MetricsRegistry()
        network = make_network()
        config = ChurnConfig(
            arrival_rate=10.0, holding_time=5.0, duration=2.0,
            epoch_interval=1.0, seed=7,
        )
        engine = ChurnEngine(network, config, metrics=registry)
        engine.run()
        assert engine._check_invariants() == []
        # Corrupt the ledger's mirrored spare behind the mux engine's back.
        link = next(iter(network.topology.links()))
        network.ledger.set_spare(link, network.mux.spare_required(link) + 1.0)
        violations = engine._check_invariants()
        assert violations
        assert any("spare" in violation for violation in violations)
