"""Tests for repro.parallel (the ordered process-pool map, metric
merges) and for :func:`repro.recovery.evaluate_scenarios`, the in-process
call that replaced the scenario-shard pool.

``parallel_map``'s load-bearing property is that ``workers=1`` and
``workers=N`` produce *identical* results and identical
``repro.metrics/1`` counters; ``evaluate_scenarios`` is exactly one
:class:`RecoveryEvaluator` and one ``evaluate_many``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.faults import (
    FailureScenario,
    all_single_link_failures,
    all_single_node_failures,
)
from repro.obs.registry import MetricsRegistry, get_trace_sink, obs_session
from repro.parallel import _map_one, parallel_map, resolve_workers
from repro.recovery import ActivationOrder, RecoveryEvaluator, evaluate_scenarios
from repro.sim.trace import TraceLog


@pytest.fixture
def scenarios(loaded_torus4):
    return (
        all_single_link_failures(loaded_torus4.topology)
        + all_single_node_failures(loaded_torus4.topology)
    )


# ----------------------------------------------------------------------
# worker-count resolution
# ----------------------------------------------------------------------
class TestResolveWorkers:
    def test_auto_is_at_least_one(self):
        assert resolve_workers(None) >= 1

    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


# ----------------------------------------------------------------------
# evaluate_scenarios is one evaluator, one evaluate_many
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_matches_direct_evaluator(self, loaded_torus4, scenarios):
        """Same stats (float accumulators included), registry counters and
        trace as a directly built evaluator, for every activation order;
        for ``RANDOM`` that means same seed, same single RNG stream."""

        def observed(evaluate) -> tuple:
            registry, trace = MetricsRegistry(), TraceLog()
            with obs_session(registry, trace):
                stats = evaluate(registry)
            return stats, registry.snapshot()["counters"], trace

        for order in ActivationOrder:
            direct_stats, direct_counters, direct_trace = observed(
                lambda registry: RecoveryEvaluator(
                    loaded_torus4, order=order, seed=11, metrics=registry
                ).evaluate_many(scenarios)
            )
            stats, counters, trace = observed(
                lambda registry: evaluate_scenarios(
                    loaded_torus4, scenarios, order=order, seed=11, metrics=registry
                )
            )
            assert stats == direct_stats, order
            assert counters == direct_counters, order
            assert counters["evaluator.scenarios"] == len(scenarios)
            assert trace.to_jsonl() == direct_trace.to_jsonl(), order
            # One evaluator per call: the scenario ordinal runs over the
            # whole stream.
            assert [row.t for row in trace.rows] == list(
                range(len(scenarios))
            )

    def test_empty_scenario_stream(self, loaded_torus4):
        stats = evaluate_scenarios(loaded_torus4, [], metrics=MetricsRegistry())
        assert stats.scenarios == 0


# ----------------------------------------------------------------------
# failure surfacing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PoisonedScenario(FailureScenario):
    """A scenario whose component expansion explodes."""

    def components(self, topology):
        raise RuntimeError("poisoned scenario")


class TestCrashSurfacing:
    def test_inline_exception_propagates(self, loaded_torus4):
        with pytest.raises(RuntimeError, match="poisoned"):
            evaluate_scenarios(
                loaded_torus4, [_PoisonedScenario()], metrics=MetricsRegistry()
            )


# ----------------------------------------------------------------------
# parallel_map
# ----------------------------------------------------------------------
def _square(value: int) -> int:
    return value * value


def _record_and_square(value: int) -> int:
    from repro.obs.registry import get_registry

    get_registry().counter("test.map_calls").inc()
    get_registry().histogram("test.values").record(float(value))
    return value * value


def _explode(value: int) -> int:
    raise ValueError(f"bad item {value}")


class TestParallelMap:
    def test_preserves_item_order(self):
        assert parallel_map(_square, range(7), workers=3) == [
            0, 1, 4, 9, 16, 25, 36,
        ]

    def test_folds_worker_metrics_in_order(self):
        reg1, reg2 = MetricsRegistry(), MetricsRegistry()
        with obs_session(reg1):
            parallel_map(_record_and_square, range(5), workers=1)
        with obs_session(reg2):
            parallel_map(_record_and_square, range(5), workers=2)
        snap1, snap2 = reg1.snapshot(), reg2.snapshot()
        assert snap1["counters"] == snap2["counters"] == {
            "test.map_calls": 5
        }
        for snap in (snap1, snap2):
            histogram = snap["histograms"]["test.values"]
            assert histogram["count"] == 5
            assert histogram["sum"] == 10.0
            assert histogram["min"] == 0.0
            assert histogram["max"] == 4.0

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="bad item"):
            parallel_map(_explode, [1], workers=2)


# ----------------------------------------------------------------------
# metrics merge primitives
# ----------------------------------------------------------------------
class TestRegistryMerge:
    def _worker_snapshot(self, offset: int) -> dict:
        registry = MetricsRegistry()
        registry.counter("c").inc(3 + offset)
        registry.gauge("g").set(10.0 * (offset + 1))
        for value in range(4):
            registry.timer("h_s").record(float(value + offset))
        return registry.snapshot()

    def test_absorb_preserves_counter_and_histogram_totals(self):
        parent = MetricsRegistry()
        parent.counter("c").inc(1)
        parent.timer("h_s").record(100.0)
        for offset in (0, 5):
            parent.absorb(self._worker_snapshot(offset))
        snapshot = parent.snapshot()
        assert snapshot["counters"]["c"] == 1 + 3 + 8
        histogram = snapshot["histograms"]["h_s"]
        assert histogram["count"] == 1 + 4 + 4
        assert histogram["sum"] == 100.0 + 6.0 + 26.0
        assert histogram["min"] == 0.0
        assert histogram["max"] == 100.0
        gauge = snapshot["gauges"]["g"]
        assert gauge == {"value": 60.0, "min": 10.0, "max": 60.0}

    def test_absorbed_histogram_usable_as_timer_and_histogram(self):
        parent = MetricsRegistry()
        parent.absorb(self._worker_snapshot(0))
        # The absorbed name must resolve under either kind afterwards.
        parent.timer("h_s").record(1.0)
        parent.histogram("h_s").record(2.0)
        assert parent.snapshot()["histograms"]["h_s"]["count"] == 6

    def test_absorb_empty_summaries_is_noop(self):
        parent = MetricsRegistry()
        parent.absorb(MetricsRegistry().snapshot())
        empty = MetricsRegistry()
        empty.gauge("g")
        empty.histogram("h")
        parent.absorb(empty.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"].get("g", {}).get("value") is None


# ----------------------------------------------------------------------
# trace capture
# ----------------------------------------------------------------------
def _sink_kind(value: int) -> str:
    """Record one row into the task's sink, if it has one; say which."""
    sink = get_trace_sink()
    if sink is None:
        return "none"
    sink.point("scenario", "test", float(value))
    return "kept"


class TestTraceCapture:
    def test_no_sink_is_fine(self, loaded_torus4, scenarios):
        stats = evaluate_scenarios(
            loaded_torus4, scenarios[:4], metrics=MetricsRegistry()
        )
        assert stats.scenarios == 4

    def test_task_keeps_rows_only_under_a_caller_sink(self):
        """Disabled means disabled: without a caller sink a task runs with
        no session sink and hands back no rows; with one, its rows are
        absorbed in item order."""
        result, _, rows = _map_one(_sink_kind, 3, False)
        assert result == "none" and rows == ()
        assert parallel_map(_sink_kind, range(3), workers=2) == ["none"] * 3
        sink = TraceLog()
        with obs_session(MetricsRegistry(), sink):
            kinds = parallel_map(_sink_kind, range(3), workers=2)
        assert kinds == ["kept"] * 3
        assert [(row.id, row.t) for row in sink.rows] == [
            (1, 0.0), (2, 1.0), (3, 2.0)]
