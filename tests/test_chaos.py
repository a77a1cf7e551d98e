"""Tests of the chaos campaign engine (repro.chaos)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chaos import (
    DEFAULT_PROFILES,
    FAIL,
    PROFILES,
    REPAIR,
    SCHEMA,
    ChaosEvent,
    ChaosSchedule,
    ChaosTrigger,
    ShrinkResult,
    artifact_payload,
    build_campaign,
    build_schedule,
    campaign_summary,
    load_artifact,
    replay_artifact,
    run_campaign,
    run_schedule,
    shrink_failing_run,
    violation_signature,
    write_artifact,
)
from repro.chaos.shrink import _ddmin
from repro.cli import main
from repro.network.components import LinkId
from repro.obs.registry import MetricsRegistry, obs_session
from repro.protocol import ProtocolConfig
from repro.scenario import (
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_loaded_network,
    load_cells,
)
from tests.planted import (
    DoubleReleaseSimulation,
    RepairDeafSimulation,
    UnguardedSimulation,
    plant,
)

#: The chaos harness's network: six antipodal connections with two
#: backups each over the 4x4 torus, mux 1.
SPEC = ScenarioSpec(
    name="test/chaos",
    topology=TopologySpec(rows=4, cols=4),
    workload=WorkloadSpec(kind="chaos"),
    protocol=ProtocolSpec(num_backups=2, mux_degree=1),
)


@pytest.fixture(scope="module")
def chaos_network():
    return build_loaded_network(SPEC)


class TestScheduleCodec:
    def test_event_roundtrip(self):
        event = ChaosEvent(time=3.5, action=FAIL, component=LinkId(0, 1))
        assert ChaosEvent.from_dict(event.to_dict()) == event
        node_event = ChaosEvent(time=9.0, action=REPAIR, component=7)
        assert ChaosEvent.from_dict(node_event.to_dict()) == node_event

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError):
            ChaosEvent(time=1.0, action="explode", component=3)

    def test_schedule_json_roundtrip(self):
        schedule = ChaosSchedule(
            seed=42,
            profile="flapping",
            horizon=120.0,
            events=(
                ChaosEvent(time=5.0, action=FAIL, component=LinkId(0, 1)),
                ChaosEvent(time=15.0, action=REPAIR, component=LinkId(0, 1)),
            ),
            triggers=(
                ChaosTrigger(
                    category="activate",
                    delay=0.5,
                    action=FAIL,
                    component=LinkId(1, 2),
                ),
            ),
        )
        assert ChaosSchedule.from_json(schedule.to_json()) == schedule

    def test_trigger_on_an_undeclared_kind_fails_loudly(self, tmp_path, capsys):
        """A typo in a hand-edited artifact used to replay as a silent
        clean run (the trigger never fired); it is now rejected on load,
        naming the kinds the log declares, and ``--replay`` reports it."""
        artifact = tmp_path / "typo.json"
        payload = json.loads(
            (Path(__file__).parent / "artifacts"
             / "switchover-race-seed1.json").read_text())
        payload["schedule"]["triggers"] = [{
            "category": "activatoin", "delay": 0.5, "action": FAIL,
            "component": {"kind": "link", "src": 1, "dst": 2},
        }]
        artifact.write_text(json.dumps(payload))
        with pytest.raises(
            ValueError,
            match=r"unknown trigger kind 'activatoin'; known: .*activate,",
        ):
            replay_artifact(load_artifact(artifact))
        # Exit 2 (could not run as asked), the message led by the file.
        with pytest.raises(SystemExit) as raised:
            main(["chaos", "--replay", str(artifact)])
        assert raised.value.code == 2
        error = capsys.readouterr().err.rsplit("error: ", 1)[1]
        assert error.startswith(f"{artifact}: ") and "activatoin" in error

    def test_with_events_clears_triggers(self):
        schedule = ChaosSchedule(
            seed=1,
            profile="failure_during_recovery",
            horizon=100.0,
            triggers=(
                ChaosTrigger(
                    category="activate",
                    delay=0.5,
                    action=FAIL,
                    component=LinkId(1, 2),
                ),
            ),
        )
        flattened = schedule.with_events(
            [ChaosEvent(time=2.0, action=FAIL, component=LinkId(0, 1))]
        )
        assert flattened.triggers == ()
        assert len(flattened.events) == 1



class TestProfiles:
    def test_all_profiles_build_valid_schedules(self, chaos_network):
        config = ProtocolConfig()
        for name in DEFAULT_PROFILES:
            schedule = build_schedule(name, 123, chaos_network, config)
            assert schedule.profile == name
            assert schedule.events or schedule.triggers
            times = [event.time for event in schedule.events]
            assert times == sorted(times)
            assert schedule.horizon > (times[-1] if times else 0.0)

    def test_profile_generation_is_seed_deterministic(self, chaos_network):
        config = ProtocolConfig()
        first = build_schedule("regional", 99, chaos_network, config)
        second = build_schedule("regional", 99, chaos_network, config)
        assert first == second
        different = build_schedule("regional", 100, chaos_network, config)
        assert different != first

    def test_failure_during_recovery_has_trigger(self, chaos_network):
        schedule = build_schedule(
            "failure_during_recovery", 5, chaos_network, ProtocolConfig()
        )
        assert schedule.triggers
        assert schedule.triggers[0].category == "activate"

    def test_unknown_profile_rejected(self, chaos_network):
        with pytest.raises(ValueError):
            build_schedule("nonsense", 0, chaos_network, ProtocolConfig())


class TestRunSchedule:
    def test_clean_run_has_no_violations(self, chaos_network):
        schedule = build_schedule(
            "flapping", 3, chaos_network, ProtocolConfig()
        )
        result = run_schedule(schedule, chaos_network)
        assert result.ok
        assert result.drained
        assert result.final_time <= schedule.horizon

    def test_trigger_firing_joins_materialized_stream(self, chaos_network):
        schedule = build_schedule(
            "failure_during_recovery", 5, chaos_network, ProtocolConfig()
        )
        result = run_schedule(schedule, chaos_network)
        # The static primary failure plus the resolved trigger firing.
        assert len(result.materialized) > len(schedule.events)
        times = [event.time for event in result.materialized]
        assert times == sorted(times)

    def test_too_short_horizon_flags_quiescence_timeout(self, chaos_network):
        schedule = ChaosSchedule(
            seed=0,
            profile="manual",
            horizon=6.0,
            events=(
                ChaosEvent(
                    time=5.0,
                    action=FAIL,
                    component=LinkId(0, 1),
                ),
            ),
        )
        result = run_schedule(schedule, chaos_network)
        assert not result.drained
        assert "quiescence-timeout" in violation_signature(result.violations)

    def test_result_as_dict_is_json_serialisable(self, chaos_network):
        schedule = build_schedule(
            "repair_race", 11, chaos_network, ProtocolConfig()
        )
        result = run_schedule(schedule, chaos_network)
        json.dumps(result.as_dict())


class TestCampaigns:
    def test_campaign_build_is_deterministic(self, chaos_network):
        first = build_campaign(7, 6, chaos_network)
        second = build_campaign(7, 6, chaos_network)
        assert first == second
        assert build_campaign(8, 6, chaos_network) != first

    def test_campaign_rotates_profiles(self, chaos_network):
        schedules = build_campaign(0, len(DEFAULT_PROFILES), chaos_network)
        assert [s.profile for s in schedules] == list(DEFAULT_PROFILES)

    def test_campaign_bit_identical_across_worker_counts(self, chaos_network):
        """Acceptance criterion: a seeded campaign replays bit-identically
        whether run serially or sharded over four workers — results,
        summary and the merged metrics snapshot (switchover.* counters,
        series)."""

        def run(workers: int) -> tuple:
            with obs_session(MetricsRegistry()) as registry:
                results = run_campaign(
                    build_campaign(7, 8, chaos_network),
                    chaos_network, workers=workers,
                )
            snapshot = registry.snapshot()
            # Timer histograms are wall-clock, and the route cache is
            # process-global (the hit/miss split depends on which process
            # computed a route, not on what was computed) — neither is
            # part of the determinism contract.
            del snapshot["histograms"]
            snapshot["counters"] = {
                name: value
                for name, value in snapshot["counters"].items()
                if not name.startswith("route_cache.")
            }
            return results, campaign_summary(results), snapshot

        serial = run(workers=1)
        assert serial == run(workers=4)
        assert any(
            value and name.startswith("switchover.")
            for name, value in serial[2]["counters"].items()
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_healthy_protocol_passes_clean_campaign(self, chaos_network,
                                                    seed):
        """``repro chaos --campaign-size 200 --seed S``'s campaign (the
        same network and profiles): its cascades once left the two ends
        of a connection on different channels."""
        schedules = build_campaign(seed, 200, chaos_network)
        results = run_campaign(schedules, chaos_network, workers=1)
        summary = campaign_summary(results)
        assert summary["failing_runs"] == 0
        assert summary["violations"] == {}
        assert summary["undrained"] == 0

    def test_summary_counts_failing_runs(self, chaos_network, monkeypatch):
        plant(monkeypatch, DoubleReleaseSimulation)
        config = ProtocolConfig()
        schedules = build_campaign(7, 8, chaos_network, config)
        results = run_campaign(schedules, chaos_network, config, workers=1)
        summary = campaign_summary(results)
        assert summary["failing_runs"] > 0
        assert "reservation-conservation" in summary["violations"]


    def test_repair_deaf_daemons_break_the_repair_check(
        self, chaos_network, monkeypatch
    ):
        """A repair the daemons are not told of heals nothing: the
        auditor's ``repair-not-rejoined`` check flags the channels the
        product rejoins on the same schedules."""
        config = ProtocolConfig()
        schedules = build_campaign(0, 12, chaos_network, config,
                                   profiles=("flapping", "repair_race"))
        product = campaign_summary(
            run_campaign(schedules, chaos_network, config, workers=1))
        plant(monkeypatch, RepairDeafSimulation)
        deaf = campaign_summary(
            run_campaign(schedules, chaos_network, config, workers=1))
        assert product["violations"] == {} and product["rejoins"] > 0
        assert deaf["rejoins"] == 0
        assert deaf["violations"].get("repair-not-rejoined", 0) > 0


class TestShrinking:
    def test_ddmin_finds_single_culprit(self):
        events = list(range(20))
        assert _ddmin(events, lambda candidate: 13 in candidate) == [13]

    def test_ddmin_keeps_conjoined_pair(self):
        events = list(range(12))
        result = _ddmin(
            events, lambda candidate: 3 in candidate and 9 in candidate
        )
        assert result == [3, 9]

    def test_planted_bug_shrinks_to_few_events(
        self, chaos_network, tmp_path, monkeypatch
    ):
        """Acceptance criterion: the planted double-release is caught by a
        campaign and shrunk to a <=5 event reproduction, exported as a
        replayable artifact."""
        plant(monkeypatch, DoubleReleaseSimulation)
        config = ProtocolConfig()
        schedules = build_campaign(7, 8, chaos_network, config)
        results = run_campaign(schedules, chaos_network, config, workers=1)
        failing = [result for result in results if result.violations]
        assert failing, "campaign must catch the planted double-release"
        shrink = shrink_failing_run(failing[0], chaos_network, config)
        assert shrink.reproduced
        assert shrink.minimal_events <= 5
        assert "reservation-conservation" in violation_signature(
            shrink.violations
        )

        path = tmp_path / "artifact.json"
        write_artifact(path, artifact_payload(shrink, SPEC))
        payload = load_artifact(path)
        assert payload["schema"] == SCHEMA
        # The scenario is the artifact's only description of the run.
        assert ScenarioSpec.from_dict(payload["scenario"]) == SPEC
        replayed = replay_artifact(payload)
        assert "reservation-conservation" in violation_signature(
            replayed.violations
        )

    def test_planted_race_shrinks_to_few_events(
        self, chaos_network, tmp_path, monkeypatch
    ):
        """The inverse switchover gate: with the handshake unguarded, a
        3-schedule campaign at seed 1 lets the historical race through,
        ddmin shrinks it to <=3 events, and the exported artifact replays
        to the same signature under the planted daemon — and clean
        through the product."""
        plant(monkeypatch, UnguardedSimulation)
        config = ProtocolConfig()
        schedules = build_campaign(1, 3, chaos_network, config)
        results = run_campaign(schedules, chaos_network, config, workers=1)
        failing = [result for result in results if result.violations]
        assert failing, "campaign must catch the unguarded switchover"
        shrink = shrink_failing_run(failing[0], chaos_network, config)
        assert shrink.reproduced
        assert shrink.minimal_events <= 3
        signature = violation_signature(shrink.violations)
        assert "multiple-active" in signature

        path = tmp_path / "artifact.json"
        write_artifact(path, artifact_payload(shrink, SPEC))
        payload = load_artifact(path)
        replayed = replay_artifact(payload)
        assert violation_signature(replayed.violations) == signature
        monkeypatch.undo()
        guarded = replay_artifact(payload)
        assert guarded.violations == ()
        assert guarded.drained

    def test_replay_rejects_unknown_config_keys(self, chaos_network):
        """An artifact whose scenario names a protocol field this build
        does not have (e.g. one recorded under a since-retired switch)
        fails with one named error instead of replaying something else."""
        schedule = build_schedule(
            "flapping", 3, chaos_network, ProtocolConfig()
        )
        payload = artifact_payload(ShrinkResult(schedule=schedule), SPEC)
        payload["scenario"]["protocol"]["debug_double_release"] = False
        with pytest.raises(
            ValueError,
            match=r"protocol spec: unknown field\(s\) debug_double_release",
        ):
            replay_artifact(payload)

    def test_version_1_artifact_names_both_schemas(self, tmp_path):
        """The former format carried the network and the config twice
        over; it is not read, and says so rather than replaying."""
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"schema": "repro.chaos/1"}))
        with pytest.raises(
            ValueError,
            match=r"expected schema 'repro.chaos/2', found 'repro.chaos/1'",
        ):
            load_artifact(path)

    def test_artifact_scenario_loads_as_a_spec_file(
        self, chaos_network, tmp_path
    ):
        schedule = build_schedule(
            "flapping", 3, chaos_network, ProtocolConfig()
        )
        payload = artifact_payload(ShrinkResult(schedule=schedule), SPEC)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload["scenario"]))
        assert load_cells(str(path)) == [SPEC]

    def test_ring_artifact_writes_and_replays(self, tmp_path, capsys):
        """The six-node ring (every pair has exactly two disjoint paths,
        so K=1 and every failure is a switchover) replays like a grid."""
        spec = ScenarioSpec(
            name="test/ring6",
            topology=TopologySpec(family="ring", size=6),
            workload=WorkloadSpec(kind="chaos", connections=3),
            protocol=ProtocolSpec(num_backups=1, mux_degree=1),
        )
        network = build_loaded_network(spec)
        assert network.num_connections == 3
        config = spec.protocol.config()
        result = run_schedule(
            build_schedule("cascade", 5, network, config), network, config
        )
        assert result.materialized
        path = tmp_path / "ring.json"
        write_artifact(path, artifact_payload(ShrinkResult(
            schedule=result.schedule.with_events(result.materialized),
            violations=result.violations,
        ), spec))
        replayed = replay_artifact(load_artifact(path))
        assert replayed.materialized == result.materialized
        assert replayed.final_time == result.final_time
        assert replayed.violations == result.violations
        assert main(["chaos", "--replay", str(path)]) == 0
        assert "profile cascade" in capsys.readouterr().out

    def test_shrink_without_violations_rejected(self, chaos_network):
        schedule = build_schedule(
            "flapping", 3, chaos_network, ProtocolConfig()
        )
        result = run_schedule(schedule, chaos_network)
        with pytest.raises(ValueError):
            shrink_failing_run(result, chaos_network)

    def test_load_artifact_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ValueError):
            load_artifact(path)


class TestProfileCoverage:
    """The chaos-smoke CI campaign must exercise the profiles ISSUE names."""

    def test_default_profiles_cover_required_shapes(self):
        required = {"flapping", "failure_during_recovery", "repair_race"}
        assert required <= set(DEFAULT_PROFILES)
        assert set(DEFAULT_PROFILES) == set(PROFILES)
