"""Tests of the causal span layer and its consumers: recovery-episode
reconstruction (with the Γ-bound verdicts), the declarative SLO engine,
the flight recorder, quantile surfacing, and the byte-identity of span
exports across worker counts."""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    build_campaign,
    build_schedule,
    run_campaign,
    run_schedule,
)
from repro.obs import (
    EpisodeReconstructor,
    FlightRecorder,
    MetricsRegistry,
    NULL_SPAN_LOG,
    SLOEngine,
    SLOTarget,
    SpanLog,
    format_results,
    obs_session,
)
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.scenario import build_loaded_network
from repro.sim.trace import TraceLog
from tests.planted import DoubleReleaseSimulation, plant
from tests.test_chaos import SPEC


@pytest.fixture(scope="module")
def chaos_network():
    return build_loaded_network(SPEC)


# ----------------------------------------------------------------------
# the span log
# ----------------------------------------------------------------------
class TestSpanLog:
    def test_begin_end_point(self):
        log = SpanLog()
        parent = log.begin("episode", 1.0, connection=3)
        child = log.point("detect", 1.5, parent=parent, node="2")
        log.end(parent, 4.0, outcome="recovered")
        assert parent == 1 and child == 2
        episode = log.get(parent)
        assert episode.t_end == 4.0
        assert episode.attrs["outcome"] == "recovered"
        detect = log.get(child)
        assert detect.t_start == detect.t_end == 1.5
        assert detect.parent_id == parent

    def test_to_dict_row_shape(self):
        log = SpanLog()
        span_id = log.point("failure", 2.0, component="0->1")
        row = log.get(span_id).to_dict()
        assert set(row) == {"span", "parent", "kind", "t_start", "t_end",
                            "attrs"}
        assert row["span"] == span_id and row["parent"] is None

    def test_disabled_log_is_inert(self):
        log = SpanLog(enabled=False)
        assert log.begin("episode", 1.0) == 0
        log.end(0, 2.0)
        log.point("detect", 1.5)
        assert len(log) == 0
        assert NULL_SPAN_LOG.begin("x", 0.0) == 0
        assert len(NULL_SPAN_LOG) == 0

    def test_end_of_unknown_span_is_noop(self):
        log = SpanLog()
        log.end(99, 1.0)
        assert len(log) == 0

    def test_tail(self):
        log = SpanLog()
        for t in range(5):
            log.point("failure", float(t))
        assert [s.t_start for s in log.tail(2)] == [3.0, 4.0]
        assert log.tail(0) == []

    def test_absorb_remaps_ids_and_parents(self):
        """Merging worker shards must equal the sequential recording."""
        sequential = SpanLog()
        merged = SpanLog()
        shards = [SpanLog(), SpanLog()]
        for shard in shards:
            parent = shard.begin("episode", 1.0)
            shard.point("detect", 1.5, parent=parent)
            shard.end(parent, 2.0)
        for shard in shards:
            parent = sequential.begin("episode", 1.0)
            sequential.point("detect", 1.5, parent=parent)
            sequential.end(parent, 2.0)
        for shard in shards:
            merged.absorb(shard.spans)
        assert list(merged.to_dicts()) == list(sequential.to_dicts())

    def test_empty_spanlog_is_falsy_but_real(self):
        """SpanLog defines __len__, so an empty log is falsy — consumers
        must use explicit None checks, never ``log or NULL_SPAN_LOG``."""
        log = SpanLog()
        assert not log
        assert log.enabled


# ----------------------------------------------------------------------
# trace-log export
# ----------------------------------------------------------------------
class TestTraceFilters:
    def _traced(self):
        trace = TraceLog(enabled=True)
        trace.record(1.0, "failure", 0, "link 0->1 down")
        trace.record(2.0, "detection", 1, "daemon noticed")
        trace.record(3.0, "failure", 2, "node 5 down")
        trace.spans.point("detect", 2.0)
        trace.spans.point("activate", 2.5)
        return trace

    def test_to_jsonl_mixes_event_and_span_rows(self):
        trace = self._traced()
        rows = [json.loads(line) for line in
                trace.to_jsonl().strip().splitlines()]
        event_rows = [row for row in rows if "span" not in row]
        span_rows = [row for row in rows if "span" in row]
        assert len(event_rows) == 3 and len(span_rows) == 2
        assert span_rows[0]["kind"] == "detect"


# ----------------------------------------------------------------------
# the SLO engine
# ----------------------------------------------------------------------
class TestSLOTarget:
    def test_parse_roundtrip(self):
        target = SLOTarget.parse("protocol.recovery_delay.p99 <= gamma")
        assert target.metric == "protocol.recovery_delay"
        assert target.stat == "p99"
        assert target.op == "<="
        assert target.threshold == "gamma"
        assert SLOTarget.parse(target.spec()) == target

    def test_parse_numeric_and_ge(self):
        target = SLOTarget.parse("churn.arrivals.count >= 100")
        assert target.op == ">=" and target.threshold == 100.0

    @pytest.mark.parametrize("spec", [
        "no-operator-here", "a.b < 1", "x <= 1", ".p99 <= 1",
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            SLOTarget.parse(spec)


class TestSLOEngine:
    def _snapshot(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("protocol.recovery_delay")
        for value in (0.5, 1.0, 2.0):
            histogram.record(value)
        registry.counter("protocol.recoveries").inc(3)
        registry.series("churn.blocking").append(10.0, 0.25)
        return registry.snapshot()

    def test_numeric_pass_and_breach(self):
        engine = SLOEngine([
            "protocol.recovery_delay.p99 <= 9.0",
            "protocol.recovery_delay.max <= 1.0",
        ])
        results = engine.evaluate(self._snapshot())
        assert [r.ok for r in results] == [True, False]
        assert len(engine.breaches(self._snapshot())) == 1

    def test_symbolic_threshold_resolution(self):
        engine = SLOEngine(["protocol.recovery_delay.p99 <= gamma"])
        ok = engine.evaluate(self._snapshot(), constants={"gamma": 9.0})
        assert ok[0].ok is True and ok[0].threshold == 9.0
        unresolved = engine.evaluate(self._snapshot())
        assert unresolved[0].ok is False
        assert "gamma" in unresolved[0].detail

    def test_missing_metric_is_a_breach(self):
        engine = SLOEngine(["nope.missing.p99 <= 1.0"])
        result = engine.evaluate(self._snapshot())[0]
        assert result.ok is False

    def test_empty_metric_is_skipped(self):
        registry = MetricsRegistry()
        registry.histogram("protocol.recovery_delay")
        engine = SLOEngine(["protocol.recovery_delay.p99 <= 1.0"])
        result = engine.evaluate(registry.snapshot())[0]
        assert result.ok is None

    def test_series_and_counter_stats(self):
        engine = SLOEngine([
            "churn.blocking.last <= 0.5",
            "protocol.recoveries.count >= 3",
        ])
        assert all(r.ok for r in engine.evaluate(self._snapshot()))

    def test_format_results_renders(self):
        engine = SLOEngine(["protocol.recovery_delay.max <= 1.0"])
        text = format_results(engine.evaluate(self._snapshot()))
        assert "BREACH" in text


# ----------------------------------------------------------------------
# the flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_keeps_last_n(self):
        trace = TraceLog(enabled=True)
        recorder = FlightRecorder(capacity=3)
        recorder.attach(trace)
        for t in range(10):
            trace.record(float(t), "failure", 0, f"event {t}")
        recorder.detach()
        snapshot = recorder.snapshot(reason="test")
        assert [event["time"] for event in snapshot["events"]] == [
            7.0, 8.0, 9.0]
        assert snapshot["reason"] == "test"

    def test_records_even_when_trace_disabled(self):
        trace = TraceLog(enabled=False)
        recorder = FlightRecorder(capacity=4)
        recorder.attach(trace)
        trace.record(1.0, "failure", 0, "invisible to the log")
        recorder.detach()
        assert len(trace) == 0
        assert len(recorder) == 1

    def test_snapshot_carries_span_tail_and_context(self):
        spans = SpanLog()
        spans.point("detect", 1.0)
        recorder = FlightRecorder(capacity=2)
        snapshot = recorder.snapshot(spans=spans, context={"seed": 7})
        assert snapshot["spans"][0]["kind"] == "detect"
        assert snapshot["context"] == {"seed": 7}
        assert snapshot["schema"] == "repro.flight/1"

    def test_dump_writes_json(self, tmp_path):
        recorder = FlightRecorder(capacity=2)
        target = tmp_path / "flight.json"
        recorder.dump(target, reason="unit")
        assert json.loads(target.read_text())["reason"] == "unit"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# ----------------------------------------------------------------------
# episode reconstruction on planted schedules
# ----------------------------------------------------------------------
def _reconstruct(trace: TraceLog) -> EpisodeReconstructor:
    return EpisodeReconstructor().add_jsonl(trace.to_jsonl())


def _assert_breakdown_telescopes(episode) -> None:
    parts = (episode.detect_delay + episode.propagate_delay
             + episode.activate_delay + episode.restore_delay)
    assert parts == pytest.approx(episode.total)


class TestEpisodeReconstruction:
    def test_single_planted_failure(self, chaos_network):
        """One primary link failure -> exactly one episode whose
        component delays sum to the observed recovery delay and respect
        the Γ bound."""
        simulation = ProtocolSimulation(
            chaos_network, ProtocolConfig(), seed=3, trace=True)
        connection = simulation.network.connections()[0]
        failed_link = connection.primary.path.links[1]
        simulation.fail(failed_link, at=5.0)
        simulation.run(until=60.0)
        reconstructor = _reconstruct(simulation.trace)
        episodes = [e for e in reconstructor.episodes
                    if e.connection_id == connection.connection_id]
        assert len(episodes) == 1
        episode = episodes[0]
        assert episode.outcome == "recovered"
        assert episode.component == str(failed_link)
        assert episode.failed_at == 5.0
        _assert_breakdown_telescopes(episode)
        assert episode.within_bound is True
        assert episode.gamma <= episode.bound
        assert reconstructor.violations() == []

    def test_unrecoverable_episode_has_no_verdict(self, chaos_network):
        """Killing the primary and every backup at once leaves an
        unrecoverable episode: no resumption, no bound verdict, and it
        must not count as a Γ violation."""
        simulation = ProtocolSimulation(
            chaos_network, ProtocolConfig(), seed=3, trace=True)
        connection = simulation.network.connections()[0]
        for channel in connection.channels:
            simulation.fail(channel.path.links[0], at=5.0)
        simulation.run(until=60.0)
        reconstructor = _reconstruct(simulation.trace)
        episodes = [e for e in reconstructor.episodes
                    if e.connection_id == connection.connection_id]
        assert len(episodes) == 1
        episode = episodes[0]
        assert episode.outcome == "unrecoverable"
        assert episode.total is None
        assert episode.within_bound is None
        assert reconstructor.violations() == []

    @pytest.mark.parametrize("profile", [
        "failure_during_recovery", "repair_race"])
    def test_profile_schedules_respect_gamma(self, chaos_network, profile):
        """The multi-failure profiles: every recovered episode's clock
        (dated from the latest failure signal) stays within its bound,
        and the breakdown telescopes."""
        config = ProtocolConfig()
        recovered = 0
        for seed in (1, 2, 3):
            schedule = build_schedule(profile, seed, chaos_network, config)
            trace = TraceLog(enabled=True)
            with obs_session(MetricsRegistry(), trace):
                run_schedule(schedule, chaos_network, config)
            reconstructor = _reconstruct(trace)
            assert reconstructor.violations() == []
            for episode in reconstructor.episodes:
                if episode.outcome != "recovered":
                    continue
                recovered += 1
                _assert_breakdown_telescopes(episode)
                assert episode.gamma <= episode.bound + 1e-9
        assert recovered > 0

    def test_campaign_reconstruction_covers_every_failure(
            self, chaos_network):
        """Every injected primary failure shows up as an episode."""
        config = ProtocolConfig()
        schedules = build_campaign(0, 6, chaos_network, config)
        sink = TraceLog(enabled=True)
        registry = MetricsRegistry()
        with obs_session(registry, sink):
            results = run_campaign(schedules, chaos_network, config,
                                   workers=1)
        reconstructor = _reconstruct(sink)
        recovered = sum(result.recovered for result in results)
        assert reconstructor.summary()["recovered"] == recovered
        assert reconstructor.violations() == []

    def test_episode_output_byte_identical_across_workers(
            self, chaos_network):
        """Acceptance criterion: span stream and reconstructed episodes
        are byte-identical for any worker count."""
        config = ProtocolConfig()
        dumps = []
        for workers in (1, 2):
            schedules = build_campaign(0, 4, chaos_network, config)
            sink = TraceLog(enabled=True)
            registry = MetricsRegistry()
            with obs_session(registry, sink):
                run_campaign(schedules, chaos_network, config,
                             workers=workers)
            episodes = _reconstruct(sink).episodes
            dumps.append((
                sink.to_jsonl(),
                json.dumps([e.to_dict() for e in episodes],
                           sort_keys=True),
            ))
        assert dumps[0] == dumps[1]

    def test_jsonl_and_rows_agree(self, chaos_network):
        simulation = ProtocolSimulation(
            chaos_network, ProtocolConfig(), seed=3, trace=True)
        connection = simulation.network.connections()[0]
        simulation.fail(connection.primary.path.links[0], at=5.0)
        simulation.run(until=60.0)
        from_jsonl = _reconstruct(simulation.trace)
        from_rows = EpisodeReconstructor()
        for row in simulation.trace.spans.to_dicts():
            from_rows.add_row(row)
        assert ([e.to_dict() for e in from_jsonl.episodes]
                == [e.to_dict() for e in from_rows.episodes])

    def test_format_table_renders_verdicts(self, chaos_network):
        simulation = ProtocolSimulation(
            chaos_network, ProtocolConfig(), seed=3, trace=True)
        connection = simulation.network.connections()[0]
        simulation.fail(connection.primary.path.links[0], at=5.0)
        simulation.run(until=60.0)
        table = _reconstruct(simulation.trace).format_table()
        assert "Recovery episodes" in table
        assert "ok" in table


# ----------------------------------------------------------------------
# spans stay inert when disabled
# ----------------------------------------------------------------------
class TestSpanOverhead:
    def test_no_spans_recorded_without_tracing(self, chaos_network):
        simulation = ProtocolSimulation(
            chaos_network, ProtocolConfig(), seed=3)
        connection = simulation.network.connections()[0]
        simulation.fail(connection.primary.path.links[0], at=5.0)
        simulation.run(until=60.0)
        assert len(simulation.spans) == 0
        assert simulation.metrics.recovered_count() > 0


# ----------------------------------------------------------------------
# chaos flight artifacts
# ----------------------------------------------------------------------
class TestChaosFlight:
    def test_violating_run_carries_flight_snapshot(
        self, chaos_network, monkeypatch
    ):
        plant(monkeypatch, DoubleReleaseSimulation)
        config = ProtocolConfig()
        schedules = build_campaign(7, 8, chaos_network, config)
        results = run_campaign(schedules, chaos_network, config, workers=1)
        failing = [result for result in results if result.violations]
        assert failing
        flight = failing[0].flight
        assert flight is not None
        assert flight["schema"] == "repro.flight/1"
        assert flight["reason"] == "invariant-violation"
        assert flight["context"]["violations"]
        assert flight["events"], "the ring must hold the lead-up events"
        # The replay artifact schema stays stable: flight rides separately.
        assert "flight" not in failing[0].as_dict()

    def test_clean_run_has_no_flight(self, chaos_network):
        config = ProtocolConfig()
        schedule = build_schedule("flapping", 1, chaos_network, config)
        result = run_schedule(schedule, chaos_network, config)
        assert result.flight is None


# ----------------------------------------------------------------------
# churn SLOs
# ----------------------------------------------------------------------
class TestChurnSLO:
    def _network(self):
        from repro.core.bcp import BCPNetwork
        from repro.network.generators import torus

        return BCPNetwork(torus(4, 4, capacity=50.0))

    def _config(self, **overrides):
        from repro.workload import ChurnConfig

        defaults = dict(duration=20.0, seed=1, eval_scenarios=0)
        defaults.update(overrides)
        return ChurnConfig(**defaults)

    def test_breaches_recorded_per_epoch(self):
        from repro.workload import ChurnEngine

        registry = MetricsRegistry()
        stats = ChurnEngine(
            self._network(),
            self._config(slos=("churn.establish_latency.p99 <= 1e-09",)),
            metrics=registry,
        ).run()
        assert stats.slo_breaches
        assert all("epoch" in finding for finding in stats.slo_breaches)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["churn.slo_breaches"] == len(
            stats.slo_breaches)
        assert stats.to_dict()["slo_breaches"] == stats.slo_breaches

    def test_met_targets_record_nothing(self):
        from repro.workload import ChurnEngine

        stats = ChurnEngine(
            self._network(),
            self._config(slos=("churn.establish_latency.p99 <= 10.0",)),
            metrics=MetricsRegistry(),
        ).run()
        assert stats.slo_breaches == []

    def test_bad_spec_fails_fast(self):
        from repro.workload import ChurnEngine

        with pytest.raises(ValueError):
            ChurnEngine(self._network(),
                        self._config(slos=("not a spec",)),
                        metrics=MetricsRegistry())


# ----------------------------------------------------------------------
# the CLI obs subcommand
# ----------------------------------------------------------------------
class TestObsCLI:
    def test_episodes_roundtrip_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "spans.jsonl"
        episodes_path = tmp_path / "episodes.jsonl"
        code = main([
            "chaos", "--seed", "0", "--campaign-size", "4",
            "--workers", "1", "--trace-out", str(trace_path),
        ])
        assert code == 0
        code = main([
            "obs", "episodes", "--input", str(trace_path),
            "--episodes-out", str(episodes_path),
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "Recovery episodes" in output
        rows = [json.loads(line) for line in
                episodes_path.read_text().splitlines()]
        assert rows and all("within_bound" in row for row in rows)

    def test_slo_action_gates_on_breach(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import write_metrics

        registry = MetricsRegistry()
        registry.histogram("protocol.recovery_delay").record(5.0)
        snapshot_path = tmp_path / "metrics.json"
        write_metrics(registry, snapshot_path)
        assert main([
            "obs", "slo", "--input", str(snapshot_path),
            "--slo", "protocol.recovery_delay.p99 <= gamma",
            "--gamma", "9.0",
        ]) == 0
        assert main([
            "obs", "slo", "--input", str(snapshot_path),
            "--slo", "protocol.recovery_delay.p99 <= 1.0",
        ]) == 1
        assert "BREACH" in capsys.readouterr().out
