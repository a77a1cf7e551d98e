#!/usr/bin/env python
"""CI gate: parallel evaluation must not change any result.

Runs the same scenario evaluations with ``--workers 1`` and
``--workers N`` (default 2) and fails loudly if anything diverges:

* ``RecoveryStats`` dataclass equality (every field, including the
  float accumulators — the shard structure is worker-count independent,
  so even non-associative float sums must match bit-for-bit),
* ``repro.metrics/1`` counter maps,
* grouped (per-mux-degree) evaluation,
* the fully formatted Table 1 panel produced by the experiment driver,
* a complete churn run with per-epoch recovery evaluation (stats dict
  and the full ``repro.metrics/1`` snapshot, series included),
* a chaos campaign under non-default switchover retry/backoff knobs
  with re-establishment fallback enabled (summary, per-run violation
  and materialized-event streams, merged metrics snapshot).

Usage: PYTHONPATH=src python scripts/check_worker_determinism.py [N]
"""

from __future__ import annotations

import sys
from time import perf_counter

from repro.channels.qos import FaultToleranceQoS
from repro.experiments.setup import NetworkConfig, load_network
from repro.experiments.table1 import run_table1
from repro.faults import all_single_link_failures, all_single_node_failures
from repro.obs.registry import MetricsRegistry
from repro.parallel import evaluate_scenarios, evaluate_scenarios_grouped
from repro.recovery import ActivationOrder
from repro.recovery.grouping import by_mux_degree

CONFIG = NetworkConfig(topology="torus", rows=4, cols=4)
SEED = 0


def _fail(what: str, one, many) -> None:
    print(f"DIVERGENCE in {what}:")
    print(f"  workers=1: {one!r}")
    print(f"  workers=N: {many!r}")
    sys.exit(1)


def check_stats(network, scenarios, workers: int) -> None:
    for order in (ActivationOrder.PRIORITY, ActivationOrder.RANDOM):
        reg1, regn = MetricsRegistry(), MetricsRegistry()
        one = evaluate_scenarios(
            network, scenarios, workers=1, order=order, seed=SEED,
            metrics=reg1,
        )
        many = evaluate_scenarios(
            network, scenarios, workers=workers, order=order, seed=SEED,
            metrics=regn,
        )
        if one != many:
            _fail(f"RecoveryStats ({order.name} order)", one, many)
        counters1 = reg1.snapshot()["counters"]
        countersn = regn.snapshot()["counters"]
        if counters1 != countersn:
            _fail(f"metric counters ({order.name} order)",
                  counters1, countersn)
        print(f"  stats + counters identical ({order.name} order, "
              f"{one.scenarios} scenarios)")


def check_grouped(network, scenarios, workers: int) -> None:
    one = evaluate_scenarios_grouped(
        network, scenarios, key=by_mux_degree, workers=1, seed=SEED,
        metrics=MetricsRegistry(),
    )
    many = evaluate_scenarios_grouped(
        network, scenarios, key=by_mux_degree, workers=workers, seed=SEED,
        metrics=MetricsRegistry(),
    )
    if one != many:
        _fail("grouped RecoveryStats", one, many)
    print(f"  grouped stats identical ({len(one)} groups)")


def check_table1(workers: int) -> None:
    start = perf_counter()
    one = run_table1(CONFIG, double_node_samples=20, seed=SEED,
                     workers=1).format()
    serial = perf_counter() - start
    start = perf_counter()
    many = run_table1(CONFIG, double_node_samples=20, seed=SEED,
                      workers=workers).format()
    parallel = perf_counter() - start
    if one != many:
        _fail("formatted Table 1 panel", one, many)
    print(f"  Table 1 panels identical "
          f"(serial {serial:.2f}s, workers={workers} {parallel:.2f}s)")


def check_churn(workers: int) -> None:
    """A churn run's exports must not depend on the worker count."""
    from repro.core import BCPNetwork
    from repro.network import torus
    from repro.workload import ChurnConfig, ChurnEngine

    def run(count: int) -> tuple[dict, dict]:
        config = ChurnConfig(
            arrival_rate=30.0, holding_time=2.0, duration=6.0,
            epoch_interval=2.0, seed=SEED, pairs=8, eval_scenarios=8,
            workers=count,
        )
        registry = MetricsRegistry()
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        stats = ChurnEngine(network, config, metrics=registry).run()
        return stats.to_dict(), registry.snapshot()

    stats1, snapshot1 = run(1)
    statsn, snapshotn = run(workers)
    if stats1 != statsn:
        _fail("churn stats", stats1, statsn)
    if snapshot1 != snapshotn:
        _fail("churn metrics snapshot", snapshot1, snapshotn)
    print(f"  churn stats + snapshot identical "
          f"({stats1['arrivals']} arrivals, {stats1['epochs']} epochs)")


def check_chaos_switchover(workers: int) -> None:
    """A chaos campaign under non-default switchover retry/backoff knobs
    (plus re-establishment fallback) must not depend on the worker
    count: summaries, per-run violations, materialized event streams,
    and the merged metrics snapshot — switchover.* counters, retry
    span points, episode ids — all bit-identical."""
    from repro.chaos import build_campaign, campaign_summary, run_campaign
    from repro.core import BCPNetwork
    from repro.network import torus
    from repro.protocol import ProtocolConfig

    config = ProtocolConfig(
        switchover_ack_timeout=7.0,
        switchover_retry_limit=3,
        switchover_backoff=1.5,
        reestablish_unrecoverable=True,
    )

    def run(count: int) -> tuple[dict, list, dict]:
        from repro.channels.qos import FaultToleranceQoS as QoS

        registry = MetricsRegistry()
        network = BCPNetwork(torus(4, 4, capacity=200.0))
        nodes = sorted(network.topology.nodes())
        for index in range(6):
            network.establish(
                nodes[index], nodes[(index + 8) % 16],
                ft_qos=QoS(num_backups=2, mux_degree=1),
            )
        schedules = build_campaign(SEED, 6, network, config)
        results = run_campaign(
            schedules, network, config, workers=count, metrics=registry,
        )
        per_run = [
            (
                result.schedule.profile,
                tuple(result.materialized),
                tuple(
                    (v.invariant, v.subject, v.time)
                    for v in result.violations
                ),
                result.final_time,
                result.drained,
            )
            for result in results
        ]
        snapshot = registry.snapshot()
        # Timer histograms are wall-clock, and the route cache is
        # process-global (the hit/miss split depends on which process
        # computed a route, not on what was computed) — neither is part
        # of the determinism contract.
        snapshot.pop("histograms", None)
        snapshot["counters"] = {
            name: value
            for name, value in snapshot["counters"].items()
            if not name.startswith("route_cache.")
        }
        return campaign_summary(results), per_run, snapshot

    summary1, runs1, snapshot1 = run(1)
    summaryn, runsn, snapshotn = run(workers)
    if summary1 != summaryn:
        _fail("chaos campaign summary (switchover knobs)",
              summary1, summaryn)
    if runs1 != runsn:
        _fail("chaos per-run streams (switchover knobs)", runs1, runsn)
    if snapshot1 != snapshotn:
        _fail("chaos metrics snapshot (switchover knobs)",
              snapshot1, snapshotn)
    switchover = {
        name: value
        for name, value in snapshot1["counters"].items()
        if name.startswith("switchover.")
    }
    print(f"  chaos campaign identical under retry/backoff knobs "
          f"({summary1['runs']} runs, switchover counters {switchover})")


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    if workers < 2:
        raise SystemExit("worker count under test must be >= 2")
    print(f"Checking workers=1 vs workers={workers} on {CONFIG.label}...")
    network, _ = load_network(
        CONFIG, FaultToleranceQoS(num_backups=1, mux_degree=3)
    )
    scenarios = (
        all_single_link_failures(network.topology)
        + all_single_node_failures(network.topology)
    )
    check_stats(network, scenarios, workers)
    check_grouped(network, scenarios, workers)
    check_table1(workers)
    check_churn(workers)
    check_chaos_switchover(workers)
    print("OK: parallel evaluation is deterministic.")


if __name__ == "__main__":
    main()
