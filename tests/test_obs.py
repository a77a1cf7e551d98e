"""Tests for the observability subsystem: registry instruments, export
formats, session plumbing, cross-layer instrumentation, and the
determinism guarantees the metrics schema promises."""

from __future__ import annotations

import json

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.faults import FailureScenario
from repro.network import LinkId
from repro.obs import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    SNAPSHOT_SCHEMA,
    format_metrics,
    get_registry,
    get_trace_sink,
    obs_session,
    write_metrics,
    write_trace,
)
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.recovery import RecoveryEvaluator, RecoveryStats
from repro.sim import EventEngine, TraceLog


def small_network():
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    connection = network.establish(
        0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
    )
    return network, connection


class TestCounterGauge:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("x") is counter

    def test_gauge_watermarks(self):
        gauge = MetricsRegistry().gauge("depth")
        assert gauge.summary() == {"value": None, "min": None, "max": None}
        for value in (3, 1, 7, 5):
            gauge.set(value)
        assert gauge.summary() == {"value": 5, "min": 1, "max": 7}

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestHistogram:
    def test_exact_stats_small(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.record(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.0
        assert summary["p99"] == 4.0

    def test_memory_bounded_but_count_exact(self):
        histogram = MetricsRegistry().histogram("h")
        n = 100_000
        for i in range(n):
            histogram.record(float(i))
        assert histogram.count == n
        assert histogram.min == 0.0 and histogram.max == float(n - 1)
        assert len(histogram._samples) <= histogram.max_samples
        # The decimated sample still spans the distribution.
        p50 = histogram.percentile(50)
        assert n * 0.4 < p50 < n * 0.6

    def test_decimation_is_deterministic(self):
        def fill():
            histogram = MetricsRegistry().histogram("h")
            for i in range(10_000):
                histogram.record(float(i % 97))
            return histogram.summary()

        assert fill() == fill()

    def test_timer_records_seconds(self):
        timer = MetricsRegistry().timer("t")
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.summary()["max"] >= 0.0

    def test_empty_summary(self):
        assert MetricsRegistry().histogram("h").summary()["count"] == 0


class TestNullRegistry:
    def test_everything_is_noop(self):
        null = NullRegistry()
        assert not null.enabled
        null.counter("c").inc()
        null.gauge("g").set(5)
        null.histogram("h").record(1.0)
        with null.timer("t").time():
            pass
        snapshot = null.snapshot()
        assert snapshot["counters"] == {} and snapshot["histograms"] == {}

    def test_shared_instance(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")


class TestSession:
    def test_session_scopes_registry_and_sink(self):
        outer = get_registry()
        sink = TraceLog()
        with obs_session(trace_sink=sink) as registry:
            assert get_registry() is registry
            assert get_registry() is not outer
            assert get_trace_sink() is sink
        assert get_registry() is outer
        assert get_trace_sink() is not sink

    def test_components_default_to_session_registry(self):
        with obs_session() as registry:
            engine = EventEngine()
            engine.schedule(1.0, lambda: None)
            engine.run()
        assert registry.snapshot()["counters"]["engine.events_fired"] == 1


class TestSnapshotAndExport:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c").record(3.0)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot["counters"] == {"a": 2}
        assert snapshot["gauges"]["b"]["value"] == 1.5
        assert snapshot["histograms"]["c"]["count"] == 1

    def test_write_metrics_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        target = write_metrics(registry, tmp_path / "m.json", command="test")
        document = json.loads(target.read_text())
        assert document["command"] == "test"
        assert document["counters"] == {"a": 1}

    def test_write_trace_jsonl(self, tmp_path):
        trace = TraceLog()
        trace.point("failure", LinkId(0, 1), 1.0)
        trace.point("repair", 3, 2.0, cause="fixed")
        target = write_trace(trace, tmp_path / "t.jsonl")
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert rows[0] == {"id": 1, "parent": None, "kind": "failure",
                           "node": "0->1", "t": 1.0, "t_end": 1.0,
                           "attrs": {}}
        assert rows[1]["node"] == 3 and rows[1]["attrs"] == {"cause": "fixed"}

    def test_format_metrics_renders_tables(self):
        registry = MetricsRegistry()
        registry.counter("protocol.activations").inc(7)
        registry.histogram("protocol.recovery_delay").record(2.0)
        text = format_metrics(registry.snapshot())
        assert "protocol.activations" in text and "7" in text
        assert "p95" in text


class TestEngineInstrumentation:
    def test_counters_and_heap_gauge(self):
        registry = MetricsRegistry()
        engine = EventEngine(metrics=registry)
        handle = engine.schedule(2.0, lambda: None)
        engine.schedule(1.0, lambda: None)
        handle.cancel()
        engine.run()
        counters = registry.snapshot()["counters"]
        assert counters["engine.events_scheduled"] == 2
        assert counters["engine.events_cancelled"] == 1
        assert counters["engine.events_fired"] == 1
        assert registry.gauge("engine.heap_depth").max == 2

    def test_callback_wall_time_by_category(self):
        registry = MetricsRegistry()
        engine = EventEngine(metrics=registry)

        def tick():
            pass

        engine.schedule(1.0, tick)
        engine.schedule(2.0, tick)
        engine.run()
        histograms = registry.snapshot()["histograms"]
        names = [n for n in histograms if n.startswith("engine.callback_s.")]
        assert any("tick" in n for n in names)
        assert sum(histograms[n]["count"] for n in names) == 2


class TestProtocolInstrumentation:
    def run_once(self, registry):
        network, connection = small_network()
        simulation = ProtocolSimulation(network, ProtocolConfig(),
                                        metrics=registry)
        scenario = FailureScenario.of_links(
            [connection.primary.path.links[1]]
        )
        simulation.inject_scenario(scenario, at=5.0)
        simulation.run(until=300.0)
        return simulation

    def test_counters_and_recovery_histogram(self):
        registry = MetricsRegistry()
        simulation = self.run_once(registry)
        counters = registry.snapshot()["counters"]
        assert counters["protocol.primary_failures"] == 1
        assert counters["protocol.recoveries"] == 1
        assert counters["protocol.activations"] >= 1
        assert counters["protocol.detections"] >= 1
        assert counters["protocol.reports_sent"] >= 1
        assert counters["rcc.messages_sent"] >= 1
        assert counters["engine.events_fired"] > 0
        delay = registry.snapshot()["histograms"]["protocol.recovery_delay"]
        assert delay["count"] == 1
        assert delay["max"] == pytest.approx(
            simulation.metrics.max_service_disruption()
        )

    def test_counters_deterministic_across_identical_runs(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        self.run_once(first)
        self.run_once(second)
        a, b = first.snapshot(), second.snapshot()
        assert a["counters"] == b["counters"]
        # Histogram counts (not wall-clock timer values) also agree.
        assert ({n: h["count"] for n, h in a["histograms"].items()}
                == {n: h["count"] for n, h in b["histograms"].items()})

    def test_session_trace_sink_captures_protocol_run(self):
        sink = TraceLog()
        with obs_session(trace_sink=sink):
            self.run_once(None)
        kinds = {row.kind for row in sink.rows}
        assert {"failure", "episode", "recovered"} <= kinds
        # And the sink exports as parseable JSONL.
        for line in sink.to_jsonl().splitlines():
            json.loads(line)


class TestEvaluatorInstrumentation:
    def test_scenario_counters_and_timing(self):
        network, connection = small_network()
        registry = MetricsRegistry()
        evaluator = RecoveryEvaluator(network, metrics=registry)
        evaluator.evaluate(
            FailureScenario.of_links([connection.primary.path.links[0]])
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["evaluator.scenarios"] == 1
        assert snapshot["counters"]["evaluator.fast_recovered"] == 1
        assert snapshot["histograms"]["evaluator.scenario_s"]["count"] == 1

    def test_trace_sink_gets_scenario_summaries(self):
        network, connection = small_network()
        sink = TraceLog()
        with obs_session(trace_sink=sink):
            evaluator = RecoveryEvaluator(network)
            evaluator.evaluate(
                FailureScenario.of_links([connection.primary.path.links[0]])
            )
        (row,) = sink.select("scenario")
        assert row.node == "evaluator" and row.attrs["fast"] == 1

    def test_null_registry_disables_instrumentation(self):
        network, connection = small_network()
        evaluator = RecoveryEvaluator(network, metrics=NULL_REGISTRY)
        result = evaluator.evaluate(
            FailureScenario.of_links([connection.primary.path.links[0]])
        )
        assert result.r_fast == 1.0


class TestRecoveryStatsMerge:
    def test_merge_preserves_mean_of_ratios(self):
        # The pooled ratio after a parallel-sweep merge covers *all*
        # scenarios: it does not average the two shards (they hold
        # different scenario counts).
        left, right, whole = RecoveryStats(), RecoveryStats(), RecoveryStats()
        shards = [
            (left, [(4, 2, 1, 1), (2, 2, 0, 0)]),     # ratios 0.5, 1.0
            (right, [(10, 1, 9, 0)]),                  # ratio 0.1
        ]
        for stats, scenarios in shards:
            for failed, fast, mux, lost in scenarios:
                for target in (stats, whole):
                    target.add_scenario(
                        failed_primaries=failed, fast_recovered=fast,
                        mux_failures=mux, channels_lost=lost,
                        excluded_connections=0,
                    )
        merged = left.merge(right)
        assert merged.r_fast == whole.r_fast == 5 / 16
        assert merged.scenarios == 3

    def test_merge_with_empty_scenarios(self):
        stats = RecoveryStats()
        stats.add_scenario(failed_primaries=0, fast_recovered=0,
                           mux_failures=0, channels_lost=0,
                           excluded_connections=1)
        merged = stats.merge(RecoveryStats())
        assert merged.r_fast is None
        assert merged.excluded_connections == 1


class TestSeries:
    def make(self, max_points=8):
        from repro.obs import Series

        class Small(Series):
            __slots__ = ()

        Small.max_points = max_points
        return Small("test")

    def test_append_and_points(self):
        series = self.make()
        series.append(1.0, 0.5)
        series.append(2.0, 0.75)
        assert series.count == 2
        assert series.points() == [(1.0, 0.5), (2.0, 0.75)]
        assert series.last_time == 2.0
        assert series.last_value == 0.75

    def test_decimation_keeps_first_and_latest(self):
        series = self.make(max_points=8)
        for i in range(100):
            series.append(float(i), float(i) * 2.0)
        assert series.count == 100
        points = series.points()
        assert len(points) <= 8 + 1  # retained buffer + appended latest
        assert points[0] == (0.0, 0.0)       # first sample survives
        assert points[-1] == (99.0, 198.0)   # latest always reported
        times = [time for time, _ in points]
        assert times == sorted(times)

    def test_summary_shape(self):
        series = self.make()
        series.append(3.0, 1.0)
        summary = series.summary()
        assert summary == {"count": 1, "points": [[3.0, 1.0]]}

    def test_absorb_preserves_exact_count(self):
        other = self.make()
        for i in range(50):
            other.append(float(i), 1.0)
        series = self.make()
        series.append(-1.0, 0.0)
        series.absorb(other.summary())
        # Exact count survives even though only the retained subsample
        # crossed the summary boundary.
        assert series.count == 51
        assert series.points()[0] == (-1.0, 0.0)
        assert series.last_time == 49.0

    def test_registry_series_in_snapshot(self):
        registry = MetricsRegistry()
        series = registry.series("churn.blocking")
        series.append(10.0, 0.1)
        assert registry.series("churn.blocking") is series
        snapshot = registry.snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot["series"]["churn.blocking"] == {
            "count": 1, "points": [[10.0, 0.1]],
        }

    def test_registry_absorb_series(self):
        source = MetricsRegistry()
        source.series("s").append(1.0, 2.0)
        target = MetricsRegistry()
        target.series("s").append(0.5, 1.0)
        target.absorb(source.snapshot())
        assert target.series("s").summary() == {
            "count": 2, "points": [[0.5, 1.0], [1.0, 2.0]],
        }

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.series("name")
        with pytest.raises(TypeError):
            registry.counter("name")

    def test_null_registry_series_is_inert(self):
        series = NULL_REGISTRY.series("anything")
        series.append(1.0, 2.0)
        assert NULL_REGISTRY.snapshot()["series"] == {}

    def test_merged_series_rendered_in_export(self):
        registry = MetricsRegistry()
        registry.series("churn.blocking").append(5.0, 0.25)
        rendered = format_metrics(registry.snapshot())
        assert "churn.blocking" in rendered
        assert "0.25" in rendered
