"""Ordered process-pool map for tasks that build their own network.

A pool pays when each task does its own expensive set-up — a matrix cell
or a reliability configuration establishes a whole network — because the
set-up is the work and it parallelises.  Work against one *shared* loaded
network (scenario evaluation, failure injection) does not: the per-failure
answer is a lookup in the plan compiled once per network state
(:mod:`repro.core.plan`), the plan is dropped from pickles, and a worker
would recompile it to save microseconds.  Such work runs in-process
(:func:`repro.recovery.evaluate_scenarios`); the measurements are in
docs/architecture.md, "Parallel evaluation".

:func:`parallel_map` keeps one hard guarantee: **results are bit-identical
for any worker count.**  Every task runs under its own fresh
:class:`~repro.obs.registry.MetricsRegistry` — and, when the caller has a
trace sink, its own :class:`~repro.sim.trace.TraceLog` — in a worker *or*
inline, the same code, and the parent folds the per-task snapshots and
rows into the caller's registry and sink in item order, regardless of
completion order.  Without a sink a task keeps no rows.  ``workers=1``
creates no pool.

Failures in a worker are *surfaced*, never swallowed: the parent blocks on
``Future.result()``, which re-raises the worker's exception (or
``BrokenProcessPool`` when the child died hard).
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor

from repro.obs.registry import (
    MetricsRegistry,
    get_registry,
    get_trace_sink,
    obs_session,
)
from repro.sim.trace import TraceLog


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


def _map_one(func: Callable, item: object, traced: bool) -> tuple:
    """Run one task under a fresh registry and, when ``traced``, a fresh
    log (else no session sink at all); returns the result, the snapshot
    and the rows the task recorded."""
    registry = MetricsRegistry()
    trace = TraceLog() if traced else None
    with obs_session(registry, trace):
        result = func(item)
    return result, registry.snapshot(), () if trace is None else trace.rows


def parallel_map(
    func: Callable,
    items: Iterable,
    *,
    workers: "int | None" = 1,
) -> list:
    """Ordered map over independent tasks, optionally across processes.

    For drivers whose unit of work is a whole cell — a scenario-matrix
    cell, a reliability configuration (each establishes its own network)
    or a chaos schedule.  ``func`` and every item must be picklable; each
    task runs under its own fresh metrics registry (worker *or* inline —
    same semantics), and the per-task snapshots are folded into the
    session registry in item order.  Results come back in item order; a
    task exception propagates to the caller.
    """
    item_list = list(items)
    registry = get_registry()
    sink = get_trace_sink()
    traced = sink is not None
    worker_count = min(resolve_workers(workers), max(1, len(item_list)))
    if worker_count <= 1 or len(item_list) <= 1:
        outputs = [_map_one(func, item, traced) for item in item_list]
    else:
        with ProcessPoolExecutor(
            max_workers=worker_count, mp_context=_mp_context()
        ) as pool:
            futures = [
                pool.submit(_map_one, func, item, traced)
                for item in item_list
            ]
            outputs = [future.result() for future in futures]
    results = []
    for result, snapshot, rows in outputs:
        registry.absorb(snapshot)
        if traced:
            # Renumbered in item order: the session log is the same for
            # any worker count.
            sink.absorb(rows)
        results.append(result)
    return results
