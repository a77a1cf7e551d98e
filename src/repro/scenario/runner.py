"""Execute scenario cells through the existing engines, with shared
compiled-topology caching and deterministic sharding.

One :func:`run_cell` call executes one :class:`~repro.scenario.spec.
ScenarioSpec` through the engine its workload kind names — the recovery
evaluator (``eval``), the churn engine (``churn``), or the chaos
campaign machinery (``chaos``) — and folds the outcome into a
:class:`CellResult` whose ``to_dict()`` is a pure function of the spec.

**Compiled-cell caching.**  Cells of the same topology family + size
share one :class:`~repro.network.topology.Topology` instance through a
:class:`TopologyCache`; the first cell pays the build *and* the CSR
compilation (:func:`repro.routing.flatgraph.flat_view` caches the
compiled view on the topology), and every later cell reuses both.
Sharing is safe because a topology never changes once a view or ledger
uses it — each cell builds its own :class:`~repro.core.bcp.BCPNetwork`
(ledger, channel registry, mux state) on top, and the flat view's
ledger-dependent tables are keyed by ledger identity + version.

**Deterministic sharding.**  :func:`run_cells` fans the lattice over
:func:`repro.parallel.parallel_map`: each cell runs under a fresh
registry, snapshots fold back in cell order, and therefore results,
metrics, and trace exports are byte-identical for any worker count.
:func:`~repro.scenario.matrix.select_shard` splits a lattice across CI
runners the same way — cell membership depends only on position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.delay import network_delay_bound
from repro.baselines.bruteforce import brute_force_evaluator
from repro.chaos.engine import (
    build_campaign,
    campaign_summary,
    establish_antipodal,
    run_campaign,
)
from repro.chaos.profiles import DEFAULT_PROFILES
from repro.core.bcp import BCPNetwork
from repro.experiments.workloads import all_pairs, establish_workload
from repro.network.topology import Topology
from repro.obs.registry import get_registry
from repro.obs.slo import SLOEngine
from repro.parallel import parallel_map
from repro.recovery import RecoveryEvaluator
from repro.routing.flatgraph import flat_view
from repro.scenario.spec import FAILURE_MODELS as SPEC_FAILURE_MODELS
from repro.scenario.spec import ScenarioSpec, TopologySpec
from repro.workload.churn import ChurnConfig, ChurnEngine

#: Result-row schema identifier (bumped on incompatible format changes).
RESULT_SCHEMA = "repro.scenario-result/1"

class TopologyCache:
    """Compiled topologies shared across cells of the same family/size.

    ``builds`` counts actual topology constructions — the cross-cell
    cache-reuse tests assert it stays at one per distinct
    :attr:`~repro.scenario.spec.TopologySpec.cache_key`.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, Topology] = {}
        self.builds = 0

    def get(self, spec: TopologySpec) -> Topology:
        key = spec.cache_key
        topology = self._cache.get(key)
        if topology is None:
            topology = spec.build()
            # Compile the CSR view eagerly; it is cached on the topology
            # (which it freezes), so every cell sharing this instance
            # reuses the compiled form.
            flat_view(topology)
            self.builds += 1
            self._cache[key] = topology
        return topology

    def clear(self) -> None:
        self._cache.clear()
        self.builds = 0


#: Process-wide cache used by :func:`run_cells`; forked workers inherit
#: whatever the parent compiled before the pool started.  Purely a
#: performance artifact — results never depend on cache hits.
_SHARED_CACHE = TopologyCache()


@dataclass
class CellResult:
    """Deterministic outcome of one scenario cell."""

    spec: ScenarioSpec
    #: Per-kind summary (ChurnStats dict, campaign summary, eval stats).
    outcome: dict = field(default_factory=dict)
    #: Invariant violations, human-readable, in detection order.
    violations: tuple = ()
    #: SLO breaches against the cell's own registry snapshot.
    slo_breaches: tuple = ()
    #: Deterministic scalar measures (the CLI's measures column).
    measures: dict = field(default_factory=dict)
    #: Flight recordings from failing chaos runs (``repro.flight/2``
    #: dicts); excluded from :meth:`to_dict`, dumped as
    #: diagnosis artifacts by the CLI.
    flights: tuple = field(default=(), compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.slo_breaches

    def to_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA,
            "cell": self.spec.name,
            "seed": self.spec.seed,
            "kind": self.spec.workload.kind,
            "ok": self.ok,
            "outcome": self.outcome,
            "violations": list(self.violations),
            "slo_breaches": list(self.slo_breaches),
            "measures": self.measures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# spec -> engine-configuration bridges (the CLI consumes these too)
# ----------------------------------------------------------------------
def churn_config_from_spec(spec: ScenarioSpec) -> ChurnConfig:
    """The :class:`ChurnConfig` a churn cell pins.

    SLOs are *not* threaded into the per-epoch engine here — matrix cells
    evaluate them once, against the finished cell's snapshot, so every
    workload kind shares one SLO mechanism.  ``repro churn`` passes its
    ``--slo`` flags separately.
    """
    workload = spec.workload
    return ChurnConfig(
        arrival_rate=workload.arrival_rate,
        holding_time=workload.holding_time,
        duration=workload.duration,
        seed=spec.seed,
        bandwidth=workload.bandwidth,
        num_backups=spec.protocol.num_backups,
        mux_degree=spec.protocol.mux_degree,
        batch_window=workload.batch_window,
        epoch_interval=workload.epoch_interval,
        eval_scenarios=workload.eval_scenarios,
        pairs=workload.pairs,
    )


def build_loaded_network(
    spec: ScenarioSpec, cache: "TopologyCache | None" = None
) -> BCPNetwork:
    """The network a chaos cell runs against: its topology, from
    ``cache``, carrying the deterministic chaos connection set
    (:func:`~repro.chaos.engine.establish_antipodal`).  ``repro chaos``,
    matrix cells and artifact replays all build it here, so one spec is
    one network."""
    cache = cache if cache is not None else _SHARED_CACHE
    network = BCPNetwork(cache.get(spec.topology))
    establish_antipodal(network, spec.workload.connections, spec.protocol.qos())
    return network


# ----------------------------------------------------------------------
# per-kind cell executors (each runs under the *current* registry)
# ----------------------------------------------------------------------
def _run_eval_cell(spec: ScenarioSpec, cache: TopologyCache):
    # The one executor that is an experiment imports it when it runs: a
    # server or a churn client loads no table (tests/test_import_budget.py).
    from repro.experiments.setup import FAILURE_MODELS, standard_failure_models

    workload = spec.workload
    topology = cache.get(spec.topology)
    network = BCPNetwork(topology)
    report = establish_workload(network, all_pairs(topology), spec.protocol.qos())
    # The tables' own failure models and evaluators: a cell is a cell of
    # Table 1 or, under ``spare_mode="bruteforce"``, of Table 3.
    table_row = dict(zip(SPEC_FAILURE_MODELS, FAILURE_MODELS))
    models = standard_failure_models(topology, workload.samples, spec.seed)
    if workload.spare_mode == "bruteforce":
        evaluator = brute_force_evaluator(network, seed=spec.seed)
    else:
        evaluator = RecoveryEvaluator(network, seed=spec.seed)
    stats = evaluator.evaluate_many(models[table_row[workload.failure_model]])
    outcome = {
        "requested": report.requested,
        "established": report.established,
        "rejected": report.rejected,
        "complete": report.essentially_complete,
        "spare_fraction": network.spare_fraction(),
        "network_load": network.network_load(),
        "scenarios": stats.scenarios,
        "failed_primaries": stats.failed_primaries,
        "fast_recovered": stats.fast_recovered,
        "mux_failures": stats.mux_failures,
        "channels_lost": stats.channels_lost,
        "r_fast": stats.r_fast,
    }
    measures = {
        "spare_fraction": network.spare_fraction(),
        "network_load": network.network_load(),
    }
    if stats.r_fast is not None:
        measures["r_fast"] = stats.r_fast
    if report.requested:
        measures["rejected_fraction"] = report.rejected / report.requested
    return network, outcome, (), measures, ()


def _run_churn_cell(spec: ScenarioSpec, cache: TopologyCache):
    topology = cache.get(spec.topology)
    network = BCPNetwork(topology)
    engine = ChurnEngine(network, churn_config_from_spec(spec))
    stats = engine.run()
    return (
        network,
        stats.to_dict(),
        tuple(stats.audit_violations),
        {
            "blocking_probability": stats.blocking_probability,
            **({"r_fast": stats.recovery.r_fast}
               if stats.recovery.scenarios and stats.recovery.r_fast
               is not None else {}),
        },
        (),
    )


def _run_chaos_cell(spec: ScenarioSpec, cache: TopologyCache):
    workload = spec.workload
    network = build_loaded_network(spec, cache)
    config = spec.protocol.config()
    profiles = workload.profiles or DEFAULT_PROFILES
    schedules = build_campaign(
        spec.seed, workload.campaign_size, network, config,
        profiles=profiles,
    )
    # Cells are already the parallel unit — campaigns run inline.
    results = run_campaign(schedules, network, config, workers=1)
    summary = campaign_summary(results)
    violations = tuple(
        f"run {index} ({result.schedule.profile}) "
        f"[{violation.time:.3f}] {violation.invariant} @ "
        f"{violation.subject}: {violation.detail}"
        for index, result in enumerate(results)
        for violation in result.violations
    )
    flights = tuple(
        result.flight for result in results if result.flight is not None
    )
    runs = summary["runs"]
    recovered = summary["recovered"]
    attempted = recovered + summary["unrecoverable"]
    measures = {
        "failing_runs_fraction": summary["failing_runs"] / runs,
        "undrained_fraction": summary["undrained"] / runs,
    }
    if attempted:
        measures["recovered_fraction"] = recovered / attempted
    return network, summary, violations, measures, flights


_EXECUTORS = {
    "eval": _run_eval_cell,
    "churn": _run_churn_cell,
    "chaos": _run_chaos_cell,
}


def slo_results(spec: ScenarioSpec, network: BCPNetwork, snapshot: dict):
    """``(gamma, results)``: the cell's SLO targets judged against
    ``snapshot``, where the symbolic ``gamma`` threshold is the network's
    worst-case analytic recovery bound at the cell's ``d_max``."""
    gamma = network_delay_bound(network, spec.protocol.d_max)
    return gamma, SLOEngine(spec.slos).evaluate(
        snapshot, constants={"gamma": gamma})


def run_cell(
    spec: ScenarioSpec, cache: "TopologyCache | None" = None
) -> CellResult:
    """Execute one cell under the current registry/trace session.

    The cell's SLO targets are evaluated against the registry snapshot
    *after* the run; ``gamma`` resolves to the cell network's worst-case
    analytic recovery bound.
    """
    cache = cache if cache is not None else _SHARED_CACHE
    registry = get_registry()
    registry.counter("matrix.cells").inc()
    network, outcome, violations, measures, flights = _EXECUTORS[
        spec.workload.kind
    ](spec, cache)
    if violations:
        registry.counter("matrix.cell_violations").inc(len(violations))
    slo_breaches: tuple = ()
    if spec.slos:
        _, results = slo_results(spec, network, registry.snapshot())
        slo_breaches = tuple(
            f"{result.target.spec()} observed {result.observed!r}"
            + (f" ({result.detail})" if result.detail else "")
            for result in results if result.ok is False
        )
        if slo_breaches:
            registry.counter("matrix.slo_breaches").inc(len(slo_breaches))
    return CellResult(
        spec=spec,
        outcome=outcome,
        violations=violations,
        slo_breaches=slo_breaches,
        measures=measures,
        flights=flights,
    )


def _run_cell_item(spec: ScenarioSpec) -> CellResult:
    return run_cell(spec, cache=_SHARED_CACHE)


def run_cells(specs, workers: "int | None" = 1) -> list[CellResult]:
    """Run a lattice, optionally across worker processes.

    Results come back in cell order and are byte-identical for any
    worker count: each cell runs under a fresh registry and the per-cell
    snapshots fold into the session registry in cell order — see
    :func:`repro.parallel.parallel_map`.
    """
    return parallel_map(_run_cell_item, list(specs), workers=workers)

