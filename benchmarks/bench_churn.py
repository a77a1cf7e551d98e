"""Microbenchmarks of the churn workload path.

Gated by ``scripts/check_bench_regression.py`` against the committed
``benchmarks/BENCH_churn.json`` baseline (pass ``--baseline`` to point
the gate at it).  The reference-kernel benchmark is the same calibration
anchor the routing baseline uses: medians are normalised by it so the
runner's absolute speed cancels out and only a genuine slowdown of the
churn path relative to the reference kernel trips the gate.
"""

from __future__ import annotations

from repro.core import BCPNetwork, BatchRequest
from repro.network import torus
from repro.obs.registry import MetricsRegistry
from repro.workload import ChurnConfig, ChurnEngine
from tests.routing_oracle import reference_shortest_path

TOPOLOGY = torus(8, 8, capacity=200.0)
DEEP_PAIR = (0, 36)  # torus antipode: the deepest search

CHURN_CONFIG = ChurnConfig(
    arrival_rate=50.0,
    holding_time=2.0,
    duration=10.0,
    epoch_interval=2.0,
    seed=0,
    pairs=16,
)

BATCH = [BatchRequest(0, 36) for _ in range(16)]


def test_calibration_reference_bfs(benchmark):
    """Calibration anchor — the retained dict-based reference kernel."""
    benchmark(reference_shortest_path, TOPOLOGY, *DEEP_PAIR)


def test_churn_run(benchmark):
    """A complete ~500-arrival churn run, fresh network each round."""

    def run():
        network = BCPNetwork(torus(8, 8, capacity=200.0))
        engine = ChurnEngine(network, CHURN_CONFIG, metrics=MetricsRegistry())
        return engine.run()

    stats = benchmark(run)
    assert stats.clean


def test_establish_batch_same_pair(benchmark):
    """16 same-pair admissions through one shared routing pass."""

    def run():
        network = BCPNetwork(torus(8, 8, capacity=200.0))
        return network.establish_batch(BATCH)

    results = benchmark(run)
    assert len(results) == len(BATCH)


def test_establish_sequential_same_pair(benchmark):
    """The same 16 admissions routed one at a time (the baseline cost)."""

    def run():
        network = BCPNetwork(torus(8, 8, capacity=200.0))
        return [network.establish(r.src, r.dst) for r in BATCH]

    results = benchmark(run)
    assert len(results) == len(BATCH)


def test_churn_cycle_establish_teardown(benchmark):
    """One establish → teardown cycle with backups (the bulk-release path)."""
    from repro.channels.qos import FaultToleranceQoS

    network = BCPNetwork(torus(8, 8, capacity=200.0))
    qos = FaultToleranceQoS(num_backups=2, mux_degree=3)

    def cycle():
        connection = network.establish(0, 36, ft_qos=qos)
        network.teardown(connection)

    benchmark(cycle)
    assert network.network_load() == 0.0
