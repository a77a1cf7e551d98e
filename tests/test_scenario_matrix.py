"""Tests for repro.scenario: spec codec, matrix expansion, cached runner.

The load-bearing properties:

* the ``repro.scenario/1`` codec round-trips every spec exactly (trimmed
  defaults on disk, strict unknown-key rejection on load);
* :meth:`ScenarioMatrix.expand` is a pure function of the matrix — same
  cells, names, and derived seeds every time;
* cells sharing a topology reuse one compiled instance (the topology is
  built and flat-compiled once per distinct
  :attr:`TopologySpec.cache_key`) without affecting results;
* a lattice run is byte-identical for any worker count, and the union of
  round-robin shards re-interleaved is exactly the serial run.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.panel import run_table1, run_table3
from repro.experiments.setup import FAILURE_MODELS
from repro.routing.flatgraph import flat_view
from repro.scenario import (
    ProtocolSpec,
    ScenarioMatrix,
    ScenarioSpec,
    TopologyCache,
    TopologySpec,
    WorkloadSpec,
    build_loaded_network,
    churn_config_from_spec,
    diff_cells,
    load_cells,
    run_cell,
    run_cells,
    select_shard,
    write_lattice,
)

# ----------------------------------------------------------------------
# spec codec
# ----------------------------------------------------------------------


def test_default_spec_serializes_trimmed():
    spec = ScenarioSpec(name="t")
    data = spec.to_dict()
    assert data["schema"] == "repro.scenario/1"
    # Defaults are trimmed from the sub-specs: a default cell is tiny.
    assert data["topology"] == {}
    assert data["workload"] == {}
    assert data["protocol"] == {}
    assert "slos" not in data


@pytest.mark.parametrize(
    "spec",
    [
        ScenarioSpec(name="t"),
        ScenarioSpec(
            name="full",
            topology=TopologySpec(family="ring", size=12, capacity=50.0),
            workload=WorkloadSpec(
                kind="chaos", campaign_size=3, profiles=("flapping",)
            ),
            protocol=ProtocolSpec(num_backups=2, mux_degree=5, d_max=0.5),
            seed=123456789,
            slos=("protocol.recovery_delay.p99 <= gamma",),
        ),
        ScenarioSpec(
            name="rr",
            topology=TopologySpec(
                family="random_regular", size=16, degree=3, seed=9
            ),
            workload=WorkloadSpec(
                kind="eval",
                failure_model="double-node",
                samples=7,
                spare_mode="bruteforce",
            ),
        ),
        ScenarioSpec(
            name="tree",
            topology=TopologySpec(family="tree", size=1, degree=2, depth=3),
            workload=WorkloadSpec(kind="churn", duration=5.0, pairs=4),
        ),
    ],
)
def test_codec_round_trip(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    # and the JSON form itself is stable (sorted keys)
    assert ScenarioSpec.from_json(spec.to_json()).to_json() == spec.to_json()


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown field"):
        ScenarioSpec.from_dict(
            {"name": "t", "topology": {"family": "torus", "rowz": 4}}
        )
    with pytest.raises(ValueError, match="unknown field"):
        ScenarioSpec.from_dict({"name": "t", "extra": 1})
    # A retired protocol knob is rejected by name, not silently dropped.
    with pytest.raises(ValueError, match="unknown field.*detection_delay"):
        ProtocolSpec.from_dict({"num_backups": 1, "detection_delay": 0.0})
    with pytest.raises(ValueError, match="schema"):
        ScenarioSpec.from_dict({"schema": "repro.scenario/999", "name": "t"})


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"family": "moebius"}, "unknown topology family"),
        ({"family": "torus", "rows": 0}, "rows >= 1"),
        ({"family": "ring", "size": 0}, "size >= 1"),
        ({"family": "ring", "size": 8, "capacity": -1.0}, "capacity"),
        ({"family": "random_regular", "size": 9, "degree": 3}, "degree even"),
        ({"family": "random_regular", "size": 8, "degree": 8}, "degree < nodes"),
    ],
)
def test_topology_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        TopologySpec(**kwargs)


def test_workload_validation():
    with pytest.raises(ValueError, match="unknown workload kind"):
        WorkloadSpec(kind="bench")
    with pytest.raises(ValueError, match="unknown failure model"):
        WorkloadSpec(failure_model="triple-node")
    with pytest.raises(ValueError, match="unknown spare mode"):
        WorkloadSpec(spare_mode="magic")
    with pytest.raises(ValueError, match="unknown chaos profile"):
        WorkloadSpec(kind="chaos", profiles=("nope",))


def test_protocol_spec_maps_to_config():
    protocol = ProtocolSpec(num_backups=2, mux_degree=5, d_max=0.25)
    config = protocol.config()
    assert config.rcc.max_delay == 0.25
    qos = protocol.qos()
    assert qos.num_backups == 2
    assert qos.mux_degree == 5
    assert protocol.label == "K2b5D0.25"


def test_topology_build_and_label():
    spec = TopologySpec(family="torus", rows=4, cols=4)
    topology = spec.build()
    assert len(list(topology.nodes())) == 16
    assert spec.label == "4x4-torus"
    assert TopologySpec(family="hypercube", size=3).label == "hypercube3"
    assert (
        TopologySpec(family="random_regular", size=16, degree=3).label
        == "rr16-d3"
    )


# ----------------------------------------------------------------------
# matrix expansion
# ----------------------------------------------------------------------


def _small_matrix(base_seed=5):
    return ScenarioMatrix(
        name="m",
        topologies=(
            TopologySpec(family="torus", rows=4, cols=4),
            TopologySpec(family="ring", size=8),
        ),
        workloads=(
            WorkloadSpec(kind="eval"),
            WorkloadSpec(kind="eval", failure_model="single-node"),
        ),
        protocols=(
            ProtocolSpec(num_backups=1, mux_degree=1),
            ProtocolSpec(num_backups=1, mux_degree=3),
        ),
        base_seed=base_seed,
    )


def test_expand_is_axis_product():
    matrix = _small_matrix()
    cells = matrix.expand()
    assert len(cells) == 8
    assert cells[0].name == "m/4x4-torus/eval-single-link/K1b1"
    # topology outermost, protocol innermost
    assert [c.name for c in cells[:2]] == [
        "m/4x4-torus/eval-single-link/K1b1",
        "m/4x4-torus/eval-single-link/K1b3",
    ]
    assert len({c.name for c in cells}) == 8


def test_expand_seed_derivation_is_deterministic():
    first = _small_matrix().expand()
    second = _small_matrix().expand()
    assert first == second
    assert [c.seed for c in first] == [c.seed for c in second]
    # distinct per-cell seeds, and a different base seed moves all of them
    assert len({c.seed for c in first}) == len(first)
    other = _small_matrix(base_seed=6).expand()
    assert [c.seed for c in other] != [c.seed for c in first]


def test_expand_rejects_duplicate_cells():
    matrix = ScenarioMatrix(
        name="dup",
        protocols=(ProtocolSpec(), ProtocolSpec()),
    )
    with pytest.raises(ValueError, match="duplicate cell name"):
        matrix.expand()


def test_matrix_codec_round_trip():
    matrix = _small_matrix()
    recovered = ScenarioMatrix.from_dict(json.loads(matrix.to_json()))
    assert recovered == matrix
    assert recovered.expand() == matrix.expand()


def test_pinned_cells_appended_with_their_own_seeds():
    pinned = ScenarioSpec(
        name="m/regression/pinned", seed=123456,
        workload=WorkloadSpec(kind="chaos", campaign_size=2),
    )
    matrix = dataclasses.replace(_small_matrix(), cells=(pinned,))
    cells = matrix.expand()
    assert len(cells) == 9
    # Pinned cells ride after the product, seed untouched by base_seed.
    assert cells[-1] == pinned
    assert cells[:-1] == _small_matrix().expand()
    # They survive the codec round trip.
    recovered = ScenarioMatrix.from_dict(json.loads(matrix.to_json()))
    assert recovered == matrix


def test_pinned_cell_name_collision_rejected():
    base = _small_matrix()
    clashing = dataclasses.replace(base.expand()[0], seed=99)
    matrix = dataclasses.replace(base, cells=(clashing,))
    with pytest.raises(ValueError, match="pinned cell"):
        matrix.expand()


def test_matrix_doc_keys_allowed_unknown_rejected():
    data = _small_matrix().to_dict()
    data["description"] = "human text"
    data["notes"] = "more human text"
    assert ScenarioMatrix.from_dict(data) == _small_matrix()
    data["surprise"] = 1
    with pytest.raises(ValueError, match="unknown field"):
        ScenarioMatrix.from_dict(data)


# ----------------------------------------------------------------------
# lattice files
# ----------------------------------------------------------------------


def test_load_cells_jsonl_round_trip(tmp_path):
    cells = _small_matrix().expand()
    path = tmp_path / "lattice.jsonl"
    write_lattice(str(path), cells)
    assert load_cells(str(path)) == cells


def test_load_cells_matrix_json(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(_small_matrix().to_json())
    assert load_cells(str(path)) == _small_matrix().expand()


def test_load_cells_single_spec(tmp_path):
    spec = ScenarioSpec(name="solo")
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    assert load_cells(str(path)) == [spec]


def test_load_cells_malformed_line_names_location(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = ScenarioSpec(name="ok").to_json()
    for line, key in (('{"name": "x", "bogus": 1}', "bogus"),
                      ('{"name": "x", "protocol": {"detection_delay": 0.0}}',
                       "detection_delay")):
        path.write_text(good + "\n" + line + "\n")
        with pytest.raises(ValueError, match=rf"bad\.jsonl:2.*{key}"):
            load_cells(str(path))


def test_load_cells_rejects_empty_and_invalid(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_cells(str(empty))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_cells(str(bad))


def test_select_shard_recombines_to_serial():
    cells = _small_matrix().expand()
    shards = [select_shard(cells, index, 3) for index in range(3)]
    assert sum(len(shard) for shard in shards) == len(cells)
    merged = [
        shards[index % 3][index // 3] for index in range(len(cells))
    ]
    assert merged == cells
    with pytest.raises(ValueError, match="shard index"):
        select_shard(cells, 3, 3)
    with pytest.raises(ValueError, match="shard count"):
        select_shard(cells, 0, 0)


def test_diff_cells():
    cells = _small_matrix().expand()
    changed = cells[:]
    import dataclasses

    changed[0] = dataclasses.replace(changed[0], seed=999)
    added, removed, diffs = diff_cells(cells[:4], changed[:5])
    assert added == [changed[4].name]
    assert removed == []
    assert diffs == [cells[0].name]


# ----------------------------------------------------------------------
# cached runner
# ----------------------------------------------------------------------


def _runnable_cells():
    return ScenarioMatrix(
        name="run",
        topologies=(
            TopologySpec(family="torus", rows=4, cols=4),
            TopologySpec(family="ring", size=8),
        ),
        workloads=(
            WorkloadSpec(kind="eval"),
            WorkloadSpec(
                kind="churn",
                arrival_rate=10.0,
                duration=4.0,
                epoch_interval=2.0,
                pairs=8,
                eval_scenarios=2,
            ),
            WorkloadSpec(kind="chaos", campaign_size=2, connections=4),
        ),
        protocols=(ProtocolSpec(num_backups=1, mux_degree=1),),
        base_seed=11,
    ).expand()


def test_cross_cell_cache_reuse():
    cells = _runnable_cells()
    cache = TopologyCache()
    results = [run_cell(cell, cache) for cell in cells]
    # 6 cells, 2 distinct topologies: each family is built exactly once
    # and every cell of the family shares the same compiled instance.
    assert len(results) == 6
    assert cache.builds == 2
    torus = TopologySpec(family="torus", rows=4, cols=4)
    shared = cache.get(torus)
    assert cache.get(torus) is shared
    assert flat_view(shared) is flat_view(shared)
    assert cache.builds == 2


def test_cache_sharing_does_not_change_results():
    cells = _runnable_cells()
    shared_cache = TopologyCache()
    shared = [run_cell(cell, shared_cache) for cell in cells]
    cold = []
    for cell in cells:
        cold.append(run_cell(cell, TopologyCache()))
    assert [r.to_json() for r in shared] == [r.to_json() for r in cold]


def test_run_cells_byte_identical_across_workers():
    cells = _runnable_cells()
    serial = [r.to_json() for r in run_cells(cells, workers=1)]
    parallel = [r.to_json() for r in run_cells(cells, workers=2)]
    assert serial == parallel


def test_sharded_run_recombines_byte_identically():
    cells = _runnable_cells()
    serial = [r.to_json() for r in run_cells(cells, workers=1)]
    shard0 = [
        r.to_json()
        for r in run_cells(select_shard(cells, 0, 2), workers=2)
    ]
    shard1 = [
        r.to_json()
        for r in run_cells(select_shard(cells, 1, 2), workers=2)
    ]
    merged = [
        (shard0 if index % 2 == 0 else shard1)[index // 2]
        for index in range(len(cells))
    ]
    assert merged == serial


def test_cell_result_shape():
    cells = _runnable_cells()[:2]
    results = run_cells(cells, workers=1)
    for result in results:
        data = result.to_dict()
        assert data["schema"] == "repro.scenario-result/1"
        assert data["cell"] == result.spec.name
        assert data["ok"] is True
        assert data["measures"]


def test_eval_cells_are_cells_of_tables_1_and_3():
    """An ``eval`` cell is float-equal to the cell of the table it names:
    Table 1 when ``multiplexed``, Table 3 — spare spread uniformly, drawn
    from spare only — when ``bruteforce``.  On the 4x4 mesh at mux 6 the
    free-capacity fallback once made every brute-force cell 1.0."""
    samples = 10
    panel = dict(num_backups=1, mux_degrees=(3, 6), double_node_samples=samples)
    config = TopologySpec(family="mesh", rows=4, cols=4)
    tables = {
        "multiplexed": run_table1(config, **panel),
        "bruteforce": run_table3(config, **panel),
    }
    assert tables["bruteforce"].r_fast["1 link failure"][6] < 0.5
    cache = TopologyCache()
    models = ("single-link", "single-node", "double-node")
    for spare_mode, table in tables.items():
        for failure_model, row in zip(models, FAILURE_MODELS):
            for degree in panel["mux_degrees"]:
                spec = ScenarioSpec(
                    name=f"{spare_mode}/{failure_model}/b{degree}",
                    topology=TopologySpec(family="mesh", rows=4, cols=4),
                    workload=WorkloadSpec(
                        kind="eval",
                        failure_model=failure_model,
                        spare_mode=spare_mode,
                        samples=samples,
                    ),
                    protocol=ProtocolSpec(num_backups=1, mux_degree=degree),
                    seed=0,
                )
                outcome = run_cell(spec, cache).outcome
                assert outcome["r_fast"] == table.r_fast[row][degree], spec.name
                assert outcome["spare_fraction"] == table.spare[degree]


def test_slo_breach_marks_cell_failing():
    cell = ScenarioSpec(
        name="slo",
        topology=TopologySpec(family="torus", rows=4, cols=4),
        workload=WorkloadSpec(kind="eval"),
        protocol=ProtocolSpec(num_backups=1, mux_degree=1),
        # An impossible target: the eval cell always runs >= 1 scenario.
        slos=("evaluator.scenarios.total <= 0",),
    )
    result = run_cell(cell, TopologyCache())
    assert not result.ok
    assert result.slo_breaches
    assert result.to_dict()["ok"] is False


# ----------------------------------------------------------------------
# spec -> engine bridges
# ----------------------------------------------------------------------


def test_churn_config_from_spec():
    spec = ScenarioSpec(
        name="c",
        workload=WorkloadSpec(
            kind="churn", arrival_rate=5.0, duration=3.0, pairs=4
        ),
        protocol=ProtocolSpec(num_backups=2, mux_degree=5),
        seed=77,
    )
    config = churn_config_from_spec(spec)
    assert config.arrival_rate == 5.0
    assert config.duration == 3.0
    assert config.seed == 77
    assert config.num_backups == 2
    assert config.mux_degree == 5
    assert config.slos == ()


def test_one_spec_gives_one_network(tmp_path, monkeypatch):
    """The mesh chaos cell of ci_smoke runs on one network whichever
    surface runs it — the matrix runner, ``repro chaos --spec`` and the
    replay of an artifact recorded from it: the same link capacities (the
    mesh's paper default) and the same loaded spare.  ``repro chaos`` once
    pinned the torus's capacity for every family."""
    import pathlib

    from repro.chaos import (
        ChaosSchedule,
        ShrinkResult,
        artifact_payload,
        write_artifact,
    )
    from repro.cli import main
    from repro.network.generators import mesh
    from repro.protocol.runtime import ProtocolSimulation

    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    (cell,) = [
        spec
        for spec in load_cells(str(root / "ci_smoke.jsonl"))
        if spec.name == "ci-smoke/4x4-mesh/chaos/K1b1"
    ]
    seen = []
    construct = ProtocolSimulation.__init__

    def spy(self, network, *args, **kwargs):
        capacity = network.topology.capacity
        links = network.topology.links()
        seen.append(
            (
                {link: capacity(link) for link in links},
                network.spare_fraction().hex(),
            )
        )
        construct(self, network, *args, **kwargs)

    monkeypatch.setattr(ProtocolSimulation, "__init__", spy)
    spec_path = tmp_path / "cell.json"
    spec_path.write_text(cell.to_json())
    artifact = tmp_path / "artifact.json"
    empty = ChaosSchedule(seed=0, profile="manual", horizon=1.0)
    write_artifact(artifact, artifact_payload(ShrinkResult(empty), cell))
    networks = {}
    run_cell(cell, TopologyCache())
    networks["matrix run"] = seen[0]
    seen.clear()
    assert main(["chaos", "--spec", str(spec_path), "--workers", "1"]) == 0
    networks["chaos --spec"] = seen[0]
    seen.clear()
    assert main(["chaos", "--replay", str(artifact)]) == 0
    networks["chaos --replay"] = seen[0]
    reference = mesh(4, 4)  # at the generator's default capacity
    expected = (
        {link: reference.capacity(link) for link in reference.links()},
        build_loaded_network(cell).spare_fraction().hex(),
    )
    assert networks == dict.fromkeys(networks, expected)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cli_matrix_expand_validate(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "m.json"
    path.write_text(_small_matrix().to_json())
    assert main(["matrix", "expand", str(path), "--validate"]) == 0
    assert "8 cell(s) valid" in capsys.readouterr().out


def test_cli_matrix_run_and_diff(tmp_path, capsys):
    from repro.cli import main

    lattice = tmp_path / "l.jsonl"
    cells = _runnable_cells()[:2]
    write_lattice(str(lattice), cells)
    results_out = tmp_path / "results.jsonl"
    code = main(
        [
            "matrix", "run", str(lattice),
            "--workers", "1",
            "--results-out", str(results_out),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 cell(s)" in out
    assert len(results_out.read_text().splitlines()) == 2
    # identical lattices diff clean; a modified one does not
    assert main(["matrix", "diff", str(lattice), str(lattice)]) == 0
    capsys.readouterr()
    other = tmp_path / "other.jsonl"
    write_lattice(str(other), cells[:1])
    assert main(["matrix", "diff", str(lattice), str(other)]) == 1
    assert "removed (1)" in capsys.readouterr().out


def test_cli_matrix_run_writes_only_what_its_flags_name(
    tmp_path, capsys, monkeypatch
):
    from repro.cli import main

    lattice = tmp_path / "l.jsonl"
    write_lattice(str(lattice), _runnable_cells()[:2])
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["matrix", "run", str(lattice), "--workers", "1"]) == 0
    assert "2 cell(s)" in capsys.readouterr().out
    assert list(cwd.iterdir()) == []


def test_cli_checked_in_scenarios_validate(capsys):
    """Every spec file shipped under scenarios/ must stay loadable."""
    import pathlib

    from repro.cli import main

    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    paths = sorted(root.glob("*.json")) + sorted(root.glob("*.jsonl"))
    assert paths, "scenario library missing"
    for path in paths:
        assert main(["matrix", "expand", str(path), "--validate"]) == 0
    capsys.readouterr()


def test_cli_ci_smoke_lattice_matches_matrix_source(capsys):
    """ci_smoke.jsonl is the pinned expansion of ci_smoke.matrix.json."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    matrix_cells = load_cells(str(root / "ci_smoke.matrix.json"))
    pinned = load_cells(str(root / "ci_smoke.jsonl"))
    assert matrix_cells == pinned
    assert len(pinned) >= 24
