"""Tests of the trace log's span rows and their consumers: recovery-episode
reconstruction (with the Γ-bound verdicts), the declarative SLO engine,
flight recordings, quantile surfacing, and the byte-identity of trace
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
    MetricsRegistry,
    SLOEngine,
    SLOTarget,
    format_results,
    obs_session,
    write_json,
)
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.scenario import build_loaded_network
from repro.sim.trace import FLIGHT_ROWS, KINDS, TraceLog, flight_record
from tests.planted import DoubleReleaseSimulation, plant
from tests.test_chaos import SPEC


@pytest.fixture(scope="module")
def chaos_network():
    return build_loaded_network(SPEC)


# ----------------------------------------------------------------------
# span rows of the trace log
# ----------------------------------------------------------------------
class TestSpanLog:
    """Span rows (begin / end) beside point rows, in the one log."""

    def test_begin_end_point(self):
        log = TraceLog()
        parent = log.begin("episode", "0->1", 1.0, connection=3)
        child = log.point("detect", 2, 1.5, parent=parent)
        log.end(parent, 4.0, outcome="recovered")
        assert parent == 1 and child == 2
        episode, detect = log.rows
        assert episode.t_end == 4.0
        assert episode.attrs == {"connection": 3, "outcome": "recovered"}
        assert detect.t == detect.t_end == 1.5
        assert detect.parent == parent

    def test_to_dict_row_shape(self):
        log = TraceLog()
        log.point("failure", "0->1", 2.0)
        row = log.rows[0].to_dict()
        assert set(row) == {"id", "parent", "kind", "node", "t", "t_end",
                            "attrs"}
        assert row["id"] == 1 and row["parent"] is None

    def test_disabled_log_is_inert(self):
        log = TraceLog(keep=0)
        span = log.begin("episode", None, 1.0)
        log.end(span, 2.0)
        log.point("detect", 1, 1.5)
        assert len(log) == 0 and not log.active

    def test_end_of_unknown_span_is_noop(self):
        log = TraceLog()
        log.end(99, 1.0)
        point = log.point("detect", 1, 1.0)
        log.end(point, 5.0)  # a point is not an open span
        assert log.rows[0].t_end == 1.0

    def test_tail(self):
        log = TraceLog(keep=2)
        for t in range(5):
            log.point("failure", 0, float(t))
        assert [row.t for row in log.rows] == [3.0, 4.0]
        with pytest.raises(ValueError, match="keep"):
            TraceLog(keep=-1)

    def test_absorb_remaps_ids_and_parents(self):
        """Merging worker logs must equal the sequential recording —
        point rows and span rows alike, parents included."""
        sequential = TraceLog()
        merged = TraceLog()
        shards = [TraceLog(), TraceLog()]
        for log in (*shards, sequential, sequential):
            log.point("failure", 0, 0.5)
            parent = log.begin("episode", 0, 1.0)
            log.point("detect", 1, 1.5, parent=parent)
            log.end(parent, 2.0)
        for shard in shards:
            merged.absorb(shard.rows)
        assert merged.to_jsonl() == sequential.to_jsonl()
        assert [row.parent for row in merged.rows] == [
            None, None, 2, None, None, 5]
        assert merged.next_id == sequential.next_id == 7

    def test_empty_spanlog_is_falsy_but_real(self):
        """TraceLog defines __len__, so an empty log is falsy — consumers
        must use explicit None checks, never ``log or default``."""
        log = TraceLog()
        assert not log
        assert log.active


# ----------------------------------------------------------------------
# trace-log export
# ----------------------------------------------------------------------
class TestTraceFilters:
    def _traced(self):
        trace = TraceLog()
        trace.point("failure", 0, 1.0)
        episode = trace.begin("episode", 0, 1.0, connection=0)
        trace.point("failure", 2, 3.0)
        trace.point("detect", 1, 2.0, parent=episode)
        trace.point("activate", 1, 2.5, parent=episode)
        return trace

    def test_to_jsonl_mixes_event_and_span_rows(self):
        trace = self._traced()
        rows = [json.loads(line) for line in
                trace.to_jsonl().strip().splitlines()]
        # One row shape, in emission order: points and the span alike.
        assert [row["kind"] for row in rows] == [
            "failure", "episode", "failure", "detect", "activate"]
        assert [row["id"] for row in rows] == [1, 2, 3, 4, 5]
        assert [row["t_end"] for row in rows] == [1.0, None, 3.0, 2.0, 2.5]
        assert rows[3]["parent"] == rows[4]["parent"] == 2

    def test_version_1_export_names_both_schemas(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"category": "failure", "description": "down", "node": 0, '
            '"time": 1.0}\n')
        with pytest.raises(ValueError,
                           match=r"line 1 is not a repro\.trace/2 row.*"
                                 r"repro\.trace/1"):
            EpisodeReconstructor().add_file(path)
        # Exit 2 (could not run as asked), the message led by the file.
        with pytest.raises(SystemExit) as raised:
            main(["obs", "episodes", "--input", str(path)])
        assert raised.value.code == 2
        error = capsys.readouterr().err.rsplit("error: ", 1)[1]
        assert error.startswith(f"{path}: ") and "repro.trace/2" in error


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
# flight recordings: the log's bounded tail
# ----------------------------------------------------------------------
class TestFlightRecorder:
    """A flight recording is cut from the log's bounded tail."""

    def test_ring_keeps_last_n(self):
        trace = TraceLog(keep=3)
        for t in range(10):
            trace.point("failure", 0, float(t))
        snapshot = flight_record(trace.rows, "test", {})
        assert [row["t"] for row in snapshot["rows"]] == [7.0, 8.0, 9.0]
        assert snapshot["reason"] == "test"

    def test_records_even_when_trace_disabled(self):
        trace = TraceLog(keep=0)
        seen = []
        trace.subscribe(seen.append)
        assert trace.active
        trace.point("failure", 0, 1.0)
        trace.unsubscribe(seen.append)
        assert not trace.active
        assert len(trace) == 0
        assert [row.kind for row in seen] == ["failure"]

    def test_snapshot_carries_span_tail_and_context(self):
        trace = TraceLog()
        for t in range(FLIGHT_ROWS):
            trace.point("failure", 0, float(t))
        episode = trace.begin("episode", 0, 300.0)
        trace.point("detect", 1, 301.0, parent=episode)
        snapshot = flight_record(trace.rows, "unit", {"seed": 7})
        assert len(snapshot["rows"]) == snapshot["capacity"] == FLIGHT_ROWS
        assert snapshot["rows"][-1]["parent"] == snapshot["rows"][-2]["id"]
        assert snapshot["context"] == {"seed": 7}
        assert snapshot["schema"] == "repro.flight/2"

    def test_dump_writes_json(self, tmp_path):
        target = tmp_path / "flight.json"
        write_json(flight_record((), "unit", {}), target)
        document = json.loads(target.read_text())
        assert document["reason"] == "unit" and document["rows"] == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceLog(keep=-1)


# ----------------------------------------------------------------------
# episode reconstruction on planted schedules
# ----------------------------------------------------------------------
def _reconstruct(trace: TraceLog) -> EpisodeReconstructor:
    """Through the JSONL export, as ``repro obs episodes`` reads it."""
    return EpisodeReconstructor().add_log(
        TraceLog.from_jsonl(trace.to_jsonl()))


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
            chaos_network, ProtocolConfig(), seed=3, trace=TraceLog())
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
            chaos_network, ProtocolConfig(), seed=3, trace=TraceLog())
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
            trace = TraceLog()
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
        sink = TraceLog()
        registry = MetricsRegistry()
        with obs_session(registry, sink):
            results = run_campaign(schedules, chaos_network, config,
                                   workers=1)
        reconstructor = _reconstruct(sink)
        recovered = sum(result.recovered for result in results)
        assert reconstructor.summary()["recovered"] == recovered
        assert reconstructor.violations() == []
        # Every kind the campaign emits is one the log declares.
        assert {row.kind for row in sink.rows} <= KINDS

    def test_episode_output_byte_identical_across_workers(
            self, chaos_network):
        """Acceptance criterion: the trace log and reconstructed episodes
        are byte-identical for any worker count."""
        config = ProtocolConfig()
        dumps = []
        for workers in (1, 2):
            schedules = build_campaign(0, 4, chaos_network, config)
            sink = TraceLog()
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
            chaos_network, ProtocolConfig(), seed=3, trace=TraceLog())
        connection = simulation.network.connections()[0]
        simulation.fail(connection.primary.path.links[0], at=5.0)
        simulation.run(until=60.0)
        from_jsonl = _reconstruct(simulation.trace)
        from_rows = EpisodeReconstructor().add_log(simulation.trace)
        assert ([e.to_dict() for e in from_jsonl.episodes]
                == [e.to_dict() for e in from_rows.episodes])

    def test_format_table_renders_verdicts(self, chaos_network):
        simulation = ProtocolSimulation(
            chaos_network, ProtocolConfig(), seed=3, trace=TraceLog())
        connection = simulation.network.connections()[0]
        simulation.fail(connection.primary.path.links[0], at=5.0)
        simulation.run(until=60.0)
        table = _reconstruct(simulation.trace).format_table()
        assert "Recovery episodes" in table
        assert "ok" in table


# ----------------------------------------------------------------------
# the log stays inert when nobody reads it
# ----------------------------------------------------------------------
class TestSpanOverhead:
    def test_no_spans_recorded_without_tracing(self, chaos_network):
        simulation = ProtocolSimulation(
            chaos_network, ProtocolConfig(), seed=3)
        connection = simulation.network.connections()[0]
        simulation.fail(connection.primary.path.links[0], at=5.0)
        simulation.run(until=60.0)
        assert len(simulation.trace) == 0
        assert simulation.trace.next_id == 1  # not one row was built
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
        assert flight["schema"] == "repro.flight/2"
        assert flight["reason"] == "invariant-violation"
        assert flight["context"]["violations"]
        assert flight["rows"], "the tail must hold the lead-up rows"
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

        trace_path = tmp_path / "trace.jsonl"
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
