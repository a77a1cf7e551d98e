"""Permanent regression tests for the channel-switching race.

The checked-in ``tests/artifacts/switchover-race-*.json`` documents are
ddmin-shrunk 2-event schedules captured from the historical failing
seeds (default 25-schedule campaigns at seeds 1 and 2 under the
unguarded daemon of ``tests/planted.py``): a cascade kills the
primary and the first backup close together, scheme 3 activates from
both ends, and — without the serial/episode handshake guard — one
end-node finishes holding TWO primary channels for one connection.

Each artifact is replayed twice:

* **unguarded** (as recorded, through the planted daemon): the race
  must still reproduce its violation signature — this proves the
  artifact, the auditor, and the replay path stay honest;
* **guarded** (same schedule, through the product): the run must be
  clean — this is the actual regression test for the switchover
  handshake.

The artifacts' scenarios derive a plain product config: which daemon
ran is the harness's choice, not a recorded switch.

Run 56 of ``repro chaos --seed 0 --campaign-size 200`` (an artifact)
is a cascade the product once failed, and must replay clean.  One open
cascade bug is pinned as a strict xfail: a ring12 run of the ci_smoke
lattice whose recovered episodes overrun their Γ bound (rebuilt from its
cell).
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import (
    DEFAULT_PROFILES,
    build_campaign,
    load_artifact,
    replay_artifact,
    run_schedule,
    violation_signature,
)
from repro.obs import EpisodeReconstructor, MetricsRegistry, obs_session
from repro.protocol import ProtocolConfig
from repro.scenario import ScenarioSpec, build_loaded_network, load_cells
from repro.sim import TraceLog
from tests.planted import UnguardedSimulation, plant

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")
RUN56 = os.path.join(
    ARTIFACT_DIR, "cascade-endpoint-disagreement-seed0-run56.json"
)
CI_SMOKE = os.path.join(
    os.path.dirname(__file__), os.pardir, "scenarios", "ci_smoke.jsonl"
)
#: The ci_smoke cell whose campaign holds the second cascade witness, and
#: that run's index in it.
RING12_CELL = "ci-smoke/regression/ring12-K1b1-base2028"
RING12_RUN = 2

RACE_ARTIFACTS = sorted(
    os.path.join(ARTIFACT_DIR, name)
    for name in os.listdir(ARTIFACT_DIR)
    if name.startswith("switchover-race-") and name.endswith(".json")
)


def test_artifacts_are_checked_in():
    assert len(RACE_ARTIFACTS) >= 2


@pytest.mark.parametrize(
    "path", RACE_ARTIFACTS, ids=[os.path.basename(p) for p in RACE_ARTIFACTS]
)
class TestSwitchoverRaceArtifacts:
    def test_artifact_shape(self, path):
        payload = load_artifact(path)
        # Shrunk to the 2-3 event core, recorded under the default config
        # with a reproduced signature.
        assert payload["reproduced"] is True
        assert len(payload["schedule"]["events"]) <= 3
        spec = ScenarioSpec.from_dict(payload["scenario"])
        assert spec.protocol.config() == ProtocolConfig()
        assert payload["violations"]

    def test_unguarded_replay_reproduces_race(self, path, monkeypatch):
        plant(monkeypatch, UnguardedSimulation)
        payload = load_artifact(path)
        recorded = frozenset(
            violation["invariant"] for violation in payload["violations"]
        )
        result = replay_artifact(payload)
        assert recorded & violation_signature(result.violations), (
            "the unguarded replay no longer reproduces the recorded race"
        )

    def test_guarded_replay_is_clean(self, path):
        result = replay_artifact(load_artifact(path))
        assert result.violations == (), [
            f"{violation.invariant}: {violation.detail}"
            for violation in result.violations
        ]
        assert result.drained


def test_cascade_leaves_both_ends_on_one_channel():
    """Run 56 of ``repro chaos --seed 0 --campaign-size 200``, shrunk to
    three link failures.  The RCC's own give-up verdict once declared
    0->4 failed because its acks rode the dead 4->0, and the two ends
    settled on different channels; with the neighbour notice as the only
    detector both ends agree."""
    payload = load_artifact(RUN56)
    result = replay_artifact(payload)
    assert result.drained
    assert "endpoint-disagreement" not in violation_signature(
        result.violations
    )


def _ring12_cascade():
    """Run 2 of the ring12 regression cell's campaign (what ``matrix run
    scenarios/ci_smoke.jsonl --shard 0/2`` runs), under its own log: the
    run's result and the episodes folded from its rows."""
    (spec,) = [cell for cell in load_cells(CI_SMOKE) if cell.name == RING12_CELL]
    network = build_loaded_network(spec)
    config = spec.protocol.config()
    schedule = build_campaign(
        spec.seed, spec.workload.campaign_size, network, config,
        profiles=spec.workload.profiles or DEFAULT_PROFILES,
    )[RING12_RUN]
    trace = TraceLog()
    with obs_session(MetricsRegistry(), trace):
        result = run_schedule(schedule, network, config)
    return result, EpisodeReconstructor().add_log(trace)


def test_ring12_cascade_witness_is_pinned():
    """The schedule behind the ci_smoke shard-0 episode gate's exit 1:
    two link failures, K=6 hops, D_max 1; the auditor finds nothing."""
    result, episodes = _ring12_cascade()
    assert result.schedule.profile == "cascade"
    assert [(event.time, event.action, str(event.component))
            for event in result.materialized] == [
        (5.0, "fail", "1->2"), (7.3419605412649815, "fail", "10->9"),
    ]
    assert result.violations == () and result.drained
    assert {(e.k_hops, e.d_max, e.bound) for e in episodes.episodes} == {
        (6, 1.0, 5.0)
    }


@pytest.mark.xfail(
    strict=True,
    reason="open protocol bug: after the second of two cascading link "
           "failures on ring12, connections 2 and 3 resume 7.0 and 6.0 "
           "after it, above Γ = 5.0 (ROADMAP item 1)",
)
def test_ring12_cascade_recovers_within_gamma():
    """The reconstructor's verdict on the run above; ``repro obs
    episodes`` exits 1 on the ci_smoke shard-0 trace because of it."""
    _, episodes = _ring12_cascade()
    assert [(e.connection_id, e.gamma) for e in episodes.violations()] == []


def _flight_of_race(session_sink: "TraceLog | None") -> tuple[list, int]:
    """Replay the first switchover race (after one other run, when there
    is a session sink); its flight rows, and the first id the race
    replay could get."""
    with obs_session(MetricsRegistry(), session_sink):
        first_id = 1
        if session_sink is not None:
            replay_artifact(load_artifact(RUN56))
            first_id = session_sink.next_id
        result = replay_artifact(load_artifact(RACE_ARTIFACTS[0]))
    return result.flight["rows"], first_id


@pytest.mark.parametrize("shared", [False, True],
                         ids=["no-sink", "session-sink"])
def test_cascade_flight_recording_carries_its_causal_chain(shared,
                                                           monkeypatch):
    """The artifact a cascade bug is debugged from — the switchover race
    under the unguarded daemon: its flight recording holds the episode
    spans and the steps filed under them — with or without a storing
    session sink, and only rows of this run."""
    plant(monkeypatch, UnguardedSimulation)
    rows, first_id = _flight_of_race(TraceLog() if shared else None)
    ids = {row["id"] for row in rows}
    episodes = {row["id"] for row in rows if row["kind"] == "episode"}
    assert episodes
    assert any(row["parent"] in episodes for row in rows)
    assert min(ids) >= first_id  # nothing from the earlier run
    # The same rows either way, numbered after whatever came before.
    alone, _ = _flight_of_race(None)
    shift = first_id - 1
    assert [
        {**row, "id": row["id"] - shift,
         "parent": None if row["parent"] is None else row["parent"] - shift}
        for row in rows
    ] == alone
