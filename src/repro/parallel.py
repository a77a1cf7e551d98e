"""Deterministic parallel scenario evaluation.

Experiment sweeps replay thousands of independent failure scenarios
against a loaded network — embarrassingly parallel work that the serial
drivers leave on the table.  This module shards a scenario stream across
a process pool while keeping one hard guarantee:

**results are bit-identical for any worker count.**

The guarantee rests on three rules:

1. *Shard boundaries never depend on the worker count.*  The stream is
   chunked into fixed-size shards (:data:`DEFAULT_SHARD_SIZE`), so shard
   ``k`` holds the same scenarios whether one worker or sixteen exist.
2. *Randomness is per-shard.*  Each shard gets its own integer seed
   drawn from one parent RNG (``repro.util.rng.make_rng(seed)``), and
   the shard's evaluator is built with that seed — no RNG is ever
   threaded *across* shards, so scheduling order cannot leak into
   ``ActivationOrder.RANDOM`` shuffles.
3. *Merging is ordered.*  Shard outputs are folded in shard-index order
   via :meth:`~repro.recovery.metrics.RecoveryStats.merge` and
   :meth:`~repro.obs.registry.MetricsRegistry.absorb`, regardless of
   completion order.  Trace events are captured into a private
   :class:`~repro.sim.trace.TraceLog` per shard and replayed into the
   caller's trace sink in the same order, so ``--trace-out`` exports are
   also identical for any worker count.

``workers=1`` runs the identical per-shard code inline (fresh registry
per shard, per-shard seeds, ordered merge) without creating a pool, so
the serial path *is* the parallel path — there is no second code path to
drift.  Worker processes receive the pickled network and evaluator
configuration once, at pool initialisation, not per shard; per-worker
construction cost is then amortised by the ledger's version-cached
spare snapshots (:meth:`~repro.network.reservations.ReservationLedger.
shared_spares`) and the network's version-cached recovery plan
(:func:`~repro.recovery.plan.recovery_plan`), both built once per network
state rather than once per shard; the plan's lookup tables fill as the
shards touch them.

Failures in a worker are *surfaced*, never swallowed: the parent blocks
on ``Future.result()`` which re-raises the worker's exception (or
``BrokenProcessPool`` when the child died hard), so a poisoned scenario
aborts the sweep loudly instead of hanging it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor

from repro.core.bcp import BCPNetwork
from repro.faults.models import FailureScenario
from repro.network.components import LinkId
from repro.obs.registry import (
    MetricsRegistry,
    get_registry,
    get_trace_sink,
    obs_session,
)
from repro.recovery.evaluator import ActivationOrder, RecoveryEvaluator
from repro.recovery.grouping import GroupKey, by_mux_degree, evaluate_grouped
from repro.recovery.metrics import RecoveryStats
from repro.recovery.plan import recovery_plan
from repro.sim.trace import TraceLog
from repro.util.rng import make_rng

#: Scenarios per shard.  Fixed (never derived from the worker count) so
#: that shard contents — and therefore per-shard seeds and merge order —
#: are invariant across worker counts.  Small enough to load-balance a
#: few hundred scenarios over a handful of workers, large enough that
#: per-shard overhead (evaluator construction, snapshot transfer) stays
#: well under the evaluation cost.
DEFAULT_SHARD_SIZE = 32


def resolve_workers(workers: "int | None") -> int:
    """Turn a ``--workers`` value into a concrete worker count.

    ``None`` means *auto*: every available CPU.  Explicit values must be
    positive.
    """
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _mp_context():
    # fork keeps worker start cheap and inherits loaded modules (so
    # exceptions defined in test modules unpickle fine on the way back);
    # platforms without fork fall back to their default start method.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# worker-side machinery
# ----------------------------------------------------------------------
# One shared-state dict per worker process, installed by the pool
# initializer from a payload pickled exactly once in the parent.
_SHARED: "dict | None" = None


def _init_shared(payload: bytes) -> None:
    global _SHARED
    _SHARED = pickle.loads(payload)


def _make_evaluator(shared: dict, shard_seed: int, registry: MetricsRegistry):
    return RecoveryEvaluator(
        shared["network"],
        order=shared["order"],
        spare_override=shared["spare_override"],
        free_capacity_fallback=shared["free_capacity_fallback"],
        seed=shard_seed,
        metrics=registry,
    )


def _shard_stats(
    shared: dict, index: int, scenarios: list, shard_seed: int
) -> tuple:
    registry = MetricsRegistry()
    trace = TraceLog()
    evaluator = _make_evaluator(shared, shard_seed, registry)
    with obs_session(registry, trace):
        stats = evaluator.evaluate_many(scenarios)
    return index, stats, registry.snapshot(), trace.events, trace.spans.spans


def _shard_groups(
    shared: dict, index: int, scenarios: list, shard_seed: int
) -> tuple:
    registry = MetricsRegistry()
    trace = TraceLog()
    evaluator = _make_evaluator(shared, shard_seed, registry)
    with obs_session(registry, trace):
        groups = evaluate_grouped(
            shared["network"], evaluator, scenarios, shared["key"]
        )
    return index, groups, registry.snapshot(), trace.events, trace.spans.spans


def _pool_shard_stats(index: int, scenarios: list, shard_seed: int) -> tuple:
    return _shard_stats(_SHARED, index, scenarios, shard_seed)


def _pool_shard_groups(index: int, scenarios: list, shard_seed: int) -> tuple:
    return _shard_groups(_SHARED, index, scenarios, shard_seed)


def _map_one(func: Callable, item: object) -> tuple:
    registry = MetricsRegistry()
    trace = TraceLog()
    with obs_session(registry, trace):
        result = func(item)
    return result, registry.snapshot(), trace.events, trace.spans.spans


def _replay_trace(sink, events, spans=()) -> None:
    """Append a shard's captured trace events (and spans) to the caller's
    sink.

    Each shard records into a private :class:`TraceLog` (worker *or*
    inline — same capture either way), and the parent replays the events
    in shard order, so the session trace is identical for any worker
    count.  Captured spans are absorbed the same way — span ids are
    remapped in merge order (see :meth:`repro.obs.spans.SpanLog.absorb`),
    so span streams are also worker-count invariant.
    """
    if sink is None:
        return
    for event in events:
        sink.record(event.time, event.category, event.node,
                    event.description)
    if spans:
        sink.spans.absorb(spans)


# ----------------------------------------------------------------------
# parent-side orchestration
# ----------------------------------------------------------------------
def _run_sharded(
    network: BCPNetwork,
    scenarios: Iterable[FailureScenario],
    *,
    workers: "int | None",
    order: ActivationOrder,
    spare_override: "Mapping[LinkId, float] | float | None",
    free_capacity_fallback: bool,
    seed: "int | None",
    shard_size: int,
    metrics: "MetricsRegistry | None",
    key: "GroupKey | None",
) -> list:
    """Shard, evaluate (inline or pooled), and merge snapshots in order.

    Returns the per-shard payloads (stats or group dicts) in shard order;
    the caller folds those into its result shape.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    scenario_list = list(scenarios)
    registry = metrics if metrics is not None else get_registry()
    shards = [
        scenario_list[start : start + shard_size]
        for start in range(0, len(scenario_list), shard_size)
    ]
    parent_rng = make_rng(seed)
    seeds = [parent_rng.getrandbits(64) for _ in shards]
    shared = {
        "network": network,
        "order": order,
        "spare_override": spare_override,
        "free_capacity_fallback": free_capacity_fallback,
        "key": key,
    }
    shard_fn = _shard_stats if key is None else _shard_groups
    worker_count = min(resolve_workers(workers), max(1, len(shards)))
    if worker_count <= 1 or len(shards) <= 1:
        outputs = [
            shard_fn(shared, index, shard, shard_seed)
            for index, (shard, shard_seed) in enumerate(zip(shards, seeds))
        ]
    else:
        pool_fn = _pool_shard_stats if key is None else _pool_shard_groups
        context = _mp_context()
        if context.get_start_method() == "fork":
            # Fork inherits the parent's address space, so the shared
            # state can be installed as a module global before the pool
            # forks — no pickle round-trip of the (potentially large)
            # network at all.  Every worker is forked during the submit
            # loop, strictly inside the window where ``_SHARED`` is set;
            # the previous value is restored once all results are in.
            # The recovery plan rides along the same way: its eager part
            # is compiled here, once, and every worker inherits it; the
            # demand-filled tables are then filled per worker, copy-on-
            # write, for the components of that worker's shards only.
            recovery_plan(network)
            global _SHARED
            previous = _SHARED
            _SHARED = shared
            try:
                with ProcessPoolExecutor(
                    max_workers=worker_count, mp_context=context
                ) as pool:
                    futures = [
                        pool.submit(pool_fn, index, shard, shard_seed)
                        for index, (shard, shard_seed) in enumerate(
                            zip(shards, seeds)
                        )
                    ]
                    # result() re-raises worker exceptions — a poisoned
                    # scenario aborts the sweep instead of hanging it.
                    outputs = [future.result() for future in futures]
            finally:
                _SHARED = previous
        else:  # pragma: no cover - non-fork platforms
            payload = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
            with ProcessPoolExecutor(
                max_workers=worker_count,
                mp_context=context,
                initializer=_init_shared,
                initargs=(payload,),
            ) as pool:
                futures = [
                    pool.submit(pool_fn, index, shard, shard_seed)
                    for index, (shard, shard_seed) in enumerate(zip(shards, seeds))
                ]
                outputs = [future.result() for future in futures]
    outputs.sort(key=lambda output: output[0])
    sink = get_trace_sink()
    for _, _, snapshot, events, spans in outputs:
        registry.absorb(snapshot)
        _replay_trace(sink, events, spans)
    return [payload_part for _, payload_part, _, _, _ in outputs]


def evaluate_scenarios(
    network: BCPNetwork,
    scenarios: Iterable[FailureScenario],
    *,
    workers: "int | None" = 1,
    order: ActivationOrder = ActivationOrder.PRIORITY,
    spare_override: "Mapping[LinkId, float] | float | None" = None,
    free_capacity_fallback: bool = False,
    seed: "int | None" = 0,
    shard_size: int = DEFAULT_SHARD_SIZE,
    metrics: "MetricsRegistry | None" = None,
) -> RecoveryStats:
    """Evaluate a scenario stream, optionally across worker processes.

    The parallel twin of
    :meth:`~repro.recovery.evaluator.RecoveryEvaluator.evaluate_many`:
    same parameters as the evaluator constructor, plus ``workers``
    (``None`` = one per CPU) and ``shard_size``.  Returns the merged
    :class:`~repro.recovery.metrics.RecoveryStats`; per-shard metric
    snapshots are folded into ``metrics`` (default: session registry) in
    shard order, so counters are bit-identical across worker counts.
    """
    stats_list = _run_sharded(
        network,
        scenarios,
        workers=workers,
        order=order,
        spare_override=spare_override,
        free_capacity_fallback=free_capacity_fallback,
        seed=seed,
        shard_size=shard_size,
        metrics=metrics,
        key=None,
    )
    merged = RecoveryStats()
    for stats in stats_list:
        merged = merged.merge(stats)
    return merged


def evaluate_scenarios_grouped(
    network: BCPNetwork,
    scenarios: Iterable[FailureScenario],
    *,
    key: GroupKey = by_mux_degree,
    workers: "int | None" = 1,
    order: ActivationOrder = ActivationOrder.PRIORITY,
    spare_override: "Mapping[LinkId, float] | float | None" = None,
    free_capacity_fallback: bool = False,
    seed: "int | None" = 0,
    shard_size: int = DEFAULT_SHARD_SIZE,
    metrics: "MetricsRegistry | None" = None,
) -> dict[object, RecoveryStats]:
    """Parallel twin of :func:`repro.recovery.grouping.evaluate_grouped`.

    ``key`` must be picklable (a module-level function, like the ones in
    :mod:`repro.recovery.grouping`) so worker processes can apply it.
    """
    group_lists = _run_sharded(
        network,
        scenarios,
        workers=workers,
        order=order,
        spare_override=spare_override,
        free_capacity_fallback=free_capacity_fallback,
        seed=seed,
        shard_size=shard_size,
        metrics=metrics,
        key=key,
    )
    merged: dict[object, RecoveryStats] = {}
    for groups in group_lists:
        for group, stats in groups.items():
            merged[group] = merged.get(group, RecoveryStats()).merge(stats)
    return merged


def parallel_map(
    func: Callable,
    items: Iterable,
    *,
    workers: "int | None" = 1,
    metrics: "MetricsRegistry | None" = None,
) -> list:
    """Ordered map over independent tasks, optionally across processes.

    For drivers whose unit of work is a whole simulation or sweep cell
    (reliability, message-loss, delay-bound, inhomogeneous workloads)
    rather than a scenario stream.  ``func`` and every item must be
    picklable; each task runs under its own fresh metrics registry
    (worker *or* inline — same semantics), and the per-task snapshots
    are folded into ``metrics`` (default: session registry) in item
    order.  Results come back in item order; a task exception propagates
    to the caller.
    """
    item_list = list(items)
    registry = metrics if metrics is not None else get_registry()
    worker_count = min(resolve_workers(workers), max(1, len(item_list)))
    if worker_count <= 1 or len(item_list) <= 1:
        outputs = [_map_one(func, item) for item in item_list]
    else:
        with ProcessPoolExecutor(
            max_workers=worker_count, mp_context=_mp_context()
        ) as pool:
            futures = [
                pool.submit(_map_one, func, item) for item in item_list
            ]
            outputs = [future.result() for future in futures]
    sink = get_trace_sink()
    results = []
    for result, snapshot, events, spans in outputs:
        registry.absorb(snapshot)
        _replay_trace(sink, events, spans)
        results.append(result)
    return results
