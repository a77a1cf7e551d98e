"""Tests for the experiment CLI (small-scale invocations)."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.cli import build_parser, main, run_experiment
from repro.experiments import EXPERIMENTS, FLAGS
from repro.experiments.report import report_rows
from repro.network.spec import TopologySpec
from repro.obs import SNAPSHOT_SCHEMA
from repro.protocol import ProtocolConfig
from tests.planted import DoubleReleaseSimulation, UnguardedSimulation, plant

SMALL = ["--rows", "4", "--cols", "4"]

#: A spec file that exists, where a PATH must name a readable one.
LATTICE = str(Path(__file__).parent.parent / "scenarios" / "ci_smoke.jsonl")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_degrees_parsing(self):
        args = build_parser().parse_args(
            ["table1", "--degrees", "1,3,6"] + SMALL
        )
        assert args.degrees == (1, 3, 6)

    def test_bad_degrees_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--degrees", "a,b"])

    def test_topology_choice_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--topology", "blimp"])

    def test_workers_only_where_a_pool_pays(self, capsys):
        """``--workers`` parses on the four pooled commands and is an
        argparse error (exit 2) on each of the other fifteen."""
        pooled = {"matrix", "chaos", "reliability", "report"}
        # Positionals the command needs before it gets to the flag.
        positional = {"matrix": ["run", LATTICE], "obs": ["episodes"],
                      "serve": ["ping"]}
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        assert len(commands) == 19 and pooled < set(commands)
        for name in commands:
            argv = [name, *positional.get(name, []), "--workers", "2"]
            if name in pooled:
                assert parser.parse_args(argv).workers == 2, name
            else:
                with pytest.raises(SystemExit) as raised:
                    parser.parse_args(argv)
                assert raised.value.code == 2, name
                assert "--workers" in capsys.readouterr().err, name

    # (The negated flag is spelled in two pieces: CI greps the tree for
    # the retired names.)
    @pytest.mark.parametrize("argv", [
        ["matrix", "run", "x.json", "--trajectory", "t.jsonl"],
        ["matrix", "run", "x.json", "--no" "-trajectory"],
        ["matrix", "run", "x.json", "--label", "ci"],
        ["obs", "trajectory"],
    ])
    def test_trajectory_store_surface_is_gone(self, argv):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["table1", "--metrics-out"],
        ["table1", "--trace-out"],
        ["churn", "--stats-out"],
        ["serve", "churn", "--stats-out"],
        ["matrix", "run", LATTICE, "--results-out"],
        ["matrix", "expand", LATTICE, "--out"],
        ["obs", "episodes", "--episodes-out"],
        ["report", "--output"],
    ])
    def test_unwritable_output_path_fails_before_the_run(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        """A missing output directory is an argparse error (exit 2) naming
        flag and path, raised before any command code runs."""
        monkeypatch.setattr(
            "repro.cli._run_command",
            lambda args: pytest.fail("the command ran"),
        )
        target = str(tmp_path / "missing" / "out.json")
        with pytest.raises(SystemExit) as raised:
            main([*argv, target])
        assert raised.value.code == 2
        assert (f"argument {argv[-1]}: {target}: directory does not exist"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        # Once: every link but one failed, exit 0.
        ["stats", "--failures", "-1"],
        # Once: nothing ran, exit 0.
        ["stats", "--horizon", "-5"],
        # Once: the last failing run silently not exported.
        ["chaos", "--max-artifacts", "-1"],
        ["table1", "--double-samples", "-1"],
        ["chaos", "--campaign-size", "0"],
        # Once: a ZeroDivisionError traceback each.
        ["figure9", "--checkpoints", "0"],
        ["delay-bound", "--connections", "0"],
        ["message-loss", "--connections", "0"],
        ["stats", "--failures", "many"],
    ])
    def test_impossible_count_fails_before_the_run(
        self, argv, capsys, monkeypatch
    ):
        """A count that cannot be honoured is an argparse error (exit 2)
        naming the flag, raised before any topology is built."""
        monkeypatch.setattr(
            "repro.cli._run_command",
            lambda args: pytest.fail("the command ran"),
        )
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert f"argument {argv[1]}:" in capsys.readouterr().err

    def test_counts_that_mean_none_still_parse(self):
        parser = build_parser()
        assert parser.parse_args(["stats", "--failures", "0"]).failures == 0
        assert parser.parse_args(
            ["chaos", "--max-artifacts", "0"]).max_artifacts == 0
        assert parser.parse_args(
            ["table1", "--double-samples", "0"]).double_samples == 0
        assert parser.parse_args(["table1", "--backups", "0"]).backups == 0
        assert parser.parse_args(["table1", "--degrees", "0"]).degrees == (0,)

    @pytest.mark.parametrize("argv", [
        # Once: a ValueError traceback each, from generators.py, qos.py or
        # validation.py, after the topology (or the whole workload) was
        # built.
        ["table1", "--backups", "-1"],
        ["table1", "--degrees", "-2"],
        ["table2", "--classes", "1,-6"],
        ["table1", "--capacity", "-5"],
        ["table1", "--capacity", "nan"],
        ["table1", "--rows", "0"],
        ["table1", "--cols", "-3"],
        ["ablations", "--mux", "-1"],
        ["message-loss", "--rate", "0"],
        ["scaling", "--sizes", "1"],
    ])
    def test_out_of_range_experiment_flag_fails_before_the_run(
        self, argv, capsys, monkeypatch
    ):
        """An experiment flag is range-checked where it is declared
        (``repro.experiments.FLAGS``): exit 2 naming the flag."""
        monkeypatch.setattr(
            "repro.cli._run_command",
            lambda args: pytest.fail("the command ran"),
        )
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert f"argument {argv[1]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table1", "--rows", "1", "--cols", "1"],
        ["table1", "--topology", "mesh", "--rows", "1", "--cols", "1"],
        ["inhomogeneous", "--rows", "1", "--cols", "3"],
        # Once: a ValueError traceback from the sparse 3-regular network,
        # after the torus and the mesh rows were measured.
        ["inhomogeneous", "--rows", "3", "--cols", "3"],
    ])
    def test_grid_the_topology_rejects_fails_before_the_run(
        self, argv, capsys, monkeypatch
    ):
        """The torus needs 2x2, the mesh two nodes and a 3-regular graph
        an even node count: only the topologies the command builds can
        say, so the check follows parsing — still exit 2, naming the
        flags, before anything is established."""
        monkeypatch.setattr(
            "repro.cli._run_command",
            lambda args: pytest.fail("the command ran"),
        )
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "--rows/--cols:" in capsys.readouterr().err

    def test_smallest_mesh_still_runs(self, capsys):
        assert main(["table1", "--topology", "mesh", "--rows", "1",
                     "--cols", "2", "--degrees", "1",
                     "--double-samples", "0"]) == 0
        assert "1x2 mesh" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, named", [
        # Once: a traceback (exit 1) each, from the engine or the spec,
        # after the flag had been accepted.
        (["churn", "--mux", "-1"], "--mux"),
        (["churn", "--arrival-rate", "0"], "--arrival-rate"),
        (["churn", "--duration", "nan"], "--duration"),
        (["churn", "--epoch-interval", "0"], "--epoch-interval"),
        (["churn", "--batch-window", "-1"], "--batch-window"),
        (["churn", "--eval-scenarios", "-1"], "--eval-scenarios"),
        (["churn", "--pairs", "-3"], "--pairs"),
        (["churn", "--bandwidth", "-1"], "--bandwidth"),
        (["chaos", "--backups", "-1"], "--backups"),
        (["chaos", "--mux", "-1"], "--mux"),
        (["stats", *SMALL, "--mux", "-2"], "--mux"),
        (["stats", *SMALL, "--backups", "-1"], "--backups"),
        # Once: never returned.
        (["churn", "--duration", "inf"], "--duration"),
        # Once: a FileNotFoundError traceback (exit 1).
        (["churn", "--spec", "/nonexistent.json"], "/nonexistent.json"),
        (["chaos", "--replay", "/nonexistent.json"], "/nonexistent.json"),
        (["matrix", "run", "/nonexistent.jsonl"], "/nonexistent.jsonl"),
        (["obs", "episodes", "--input", "/nonexistent.jsonl"],
         "/nonexistent.jsonl"),
        (["obs", "slo", "--input", "/nonexistent.json",
          "--slo", "a.p99 <= 1"], "/nonexistent.json"),
        # Once: a message, but exit 1 (CI's "found something").
        (["serve", "start"], "--spec and --bind"),
        (["obs", "episodes"], "--input"),
        (["matrix", "diff", "x.json"], "x.json"),
        (["matrix", "diff", LATTICE], "PATH"),
        (["matrix", "run", LATTICE, "--shard", "5/2"], "--shard"),
    ])
    def test_input_the_command_cannot_honour_exits_2(
        self, argv, named, capsys, monkeypatch
    ):
        """Exit 2 is "could not run as asked": the command's usage line
        and a message naming the flag or the path, before anything runs."""
        monkeypatch.setattr(
            "repro.cli._run_command",
            lambda args: pytest.fail("the command ran"),
        )
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]} ") and named in err

    def test_server_nobody_answers_exits_2(self, tmp_path, capsys):
        """Once: a FileNotFoundError traceback (exit 1) once the client's
        retry window ran out."""
        address = str(tmp_path / "nosock")
        with pytest.raises(SystemExit) as raised:
            main(["serve", "churn", "--connect", address])
        assert raised.value.code == 2
        assert f"error: --connect {address}: " in capsys.readouterr().err

    def test_input_of_another_schema_exits_2(self, tmp_path, capsys):
        """Once: an AttributeError traceback (exit 1)."""
        path = tmp_path / "metrics.json"
        path.write_text("[]")
        with pytest.raises(SystemExit) as raised:
            main(["obs", "slo", "--input", str(path), "--slo", "a.p99 <= 1"])
        assert raised.value.code == 2
        assert (f"error: {path}: not a {SNAPSHOT_SCHEMA} snapshot"
                in capsys.readouterr().err)


class TestFlagTable:
    """Every flag of every command is one row of ``FLAGS``."""

    def test_every_flag_comes_from_its_row(self):
        used = set()
        commands = build_parser()._subparsers._group_actions[0].choices
        for name, sub in commands.items():
            for action in sub._actions:
                for flag in set(action.option_strings) - {"-h", "--help"}:
                    assert flag in FLAGS, (name, flag)
                    assert action.help.startswith(FLAGS[flag].help), flag
                    used.add(flag)
        assert used == set(FLAGS), set(FLAGS) - used
        # One spelling, one keyword: no two rows feed the same one.
        keywords = [row.keyword for row in FLAGS.values()]
        assert len(set(keywords)) == len(keywords)

    def test_cli_declares_only_its_positionals_by_hand(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        first = [node.args[0] for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "add_argument"]
        # The four positionals, and the one call that puts a row on a
        # parser.
        assert sorted(getattr(arg, "value", "<row>") for arg in first) == [
            "<row>", "action", "action", "action", "paths"]


#: The first line every experiment command prints.
TITLES = {
    "figure9": "Figure 9: spare bandwidth vs network load — 4x4 torus",
    "table1": "Table 1: R_fast, uniform mux — 4x4 torus, 1 backup(s)",
    "table2": "Table 2: R_fast, mixed mux (1/3/5/6) — 4x4 torus",
    "table3": "Table 3: R_fast, brute-force multiplexing — 4x4 torus",
    "delay-bound": "Section 5.3: recovery delay vs bound — 4x4 torus",
    "rcc-sizing": "Section 5.2: RCC sizing — 4x4 torus",
    "reliability": "Fig. 3 models: Markov vs combinatorial",
    "inhomogeneous": "Section 7.1/7.4: inhomogeneity and topology",
    "message-loss": "Figure 8: message loss during recovery — 4x4 torus",
    "scaling": "Section 6: multiplexing efficiency vs scale",
    "baselines": "Section 8: restoration-scheme trade-offs — 4x4 torus",
    "ablations": "Design-choice ablations — 4x4 torus, mux=5",
}


def small_argv(command: str) -> list[str]:
    """``command`` at the smallest scale its own flags allow."""
    options = EXPERIMENTS[command].options
    return ([command]
            + (SMALL if "--rows" in EXPERIMENTS[command].grid else [])
            + (["--sizes", "3,4"] if "--sizes" in options else [])
            + (["--workers", "1"] if "--workers" in options else []))


class TestRegistry:
    """One table declares the experiments; the parser, the dispatcher,
    the report and the README read it."""

    @pytest.mark.parametrize("command", EXPERIMENTS)
    def test_every_experiment_runs_and_prints_its_table(
        self, command, capsys
    ):
        assert main(small_argv(command)) == 0
        assert capsys.readouterr().out.startswith(TITLES[command])

    def test_parser_and_readme_list_the_registry(self):
        commands = set(build_parser()._subparsers._group_actions[0].choices)
        others = {"report", "stats", "churn", "chaos", "matrix", "obs",
                  "serve"}
        assert commands == set(EXPERIMENTS) | others
        assert set(TITLES) == set(EXPERIMENTS)
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        table = readme[readme.index("| Artifact | Command"):]
        table = table[:table.index("\n\n")]
        rows = re.findall(r"^\| [^|]+ \| `([a-z0-9-]+)", table, flags=re.M)
        assert sorted(rows) == sorted(EXPERIMENTS)

    def test_all_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["all"])
        assert raised.value.code == 2
        assert "invalid choice: 'all'" in capsys.readouterr().err


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--degrees", "1,6", "--double-samples", "10"]
                    + SMALL) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "mux=1" in out

    def test_table2(self, capsys):
        assert main(["table2", "--classes", "1,6", "--double-samples", "10"]
                    + SMALL) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3", "--degrees", "3", "--double-samples", "10"]
                    + SMALL) == 0
        assert "brute-force" in capsys.readouterr().out

    def test_figure9(self, capsys):
        assert main(["figure9", "--degrees", "0,6", "--checkpoints", "3"]
                    + SMALL) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_delay_bound(self, capsys):
        assert main(["delay-bound", "--connections", "2"] + SMALL) == 0
        assert "recovery delay" in capsys.readouterr().out

    def test_rcc_sizing(self, capsys):
        assert main(["rcc-sizing"] + SMALL) == 0
        assert "RCC sizing" in capsys.readouterr().out

    def test_reliability(self, capsys):
        assert main(["reliability"] + SMALL) == 0
        assert "Markov" in capsys.readouterr().out

    def test_message_loss(self, capsys):
        assert main(["message-loss", "--connections", "2"] + SMALL) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_scaling(self, capsys):
        assert main(["scaling", "--sizes", "3,4"]) == 0
        out = capsys.readouterr().out
        assert "Section 6" in out and "saving" in out

    def test_baselines(self, capsys):
        assert main(["baselines"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "trade-offs" in out and "local detours" in out

    def test_report(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        assert main(["report", "--output", str(target),
                     "--double-samples", "5", "--workers", "1"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        text = target.read_text()
        assert "# Reproduction report" in text
        assert "0 failures" in out
        # A section is what its row — a ``python -m repro ...`` command
        # line — prints when run on its own.
        rows = report_rows(TopologySpec(rows=4, cols=4), 5, 1)
        assert len(rows) == 13
        parser = build_parser()
        for title, line in rows:
            assert line.split()[0] in EXPERIMENTS
            body = run_experiment(parser.parse_args(line.split())).format()
            assert f"## {title}\n\n```\n{body}\n```\n" in text, title

    def test_mesh_topology(self, capsys):
        assert main(["table1", "--topology", "mesh", "--degrees", "3",
                     "--double-samples", "5"] + SMALL) == 0
        assert "mesh" in capsys.readouterr().out

    def test_stats(self, capsys):
        assert main(["stats"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "repro stats" in out
        assert "connections recovered via backup" in out
        assert "protocol.recoveries" in out
        assert "engine.events_fired" in out


class TestObservabilityFlags:
    def test_every_subcommand_has_the_flags(self):
        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0]
        for name, sub in subparsers.choices.items():
            options = {opt for action in sub._actions
                       for opt in action.option_strings}
            assert "--metrics-out" in options, name
            assert "--trace-out" in options, name

    def test_metrics_out(self, capsys, tmp_path):
        target = tmp_path / "m.json"
        assert main(["table1", "--degrees", "3", "--double-samples", "5",
                     "--metrics-out", str(target)] + SMALL) == 0
        document = json.loads(target.read_text())
        assert document["schema"] == SNAPSHOT_SCHEMA
        assert document["command"] == "table1"
        assert document["counters"]["evaluator.scenarios"] > 0

    def test_trace_out(self, capsys, tmp_path):
        target = tmp_path / "t.jsonl"
        assert main(["stats", "--trace-out", str(target)] + SMALL) == 0
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert rows, "trace export should not be empty"
        assert all(set(row) == {"id", "parent", "kind", "node", "t",
                                "t_end", "attrs"} for row in rows)
        assert [row["id"] for row in rows] == list(range(1, len(rows) + 1))
        assert any(row["kind"] == "recovered" for row in rows)

    def test_exports_reproducible(self, capsys, tmp_path):
        def run(tag):
            metrics = tmp_path / f"m{tag}.json"
            trace = tmp_path / f"t{tag}.jsonl"
            assert main(["stats", "--metrics-out", str(metrics),
                         "--trace-out", str(trace)] + SMALL) == 0
            capsys.readouterr()
            document = json.loads(metrics.read_text())
            # Timer values are wall-clock; drop them before comparing.
            document.pop("histograms", None)
            return document, trace.read_text()

        assert run("a") == run("b")


class TestClosedStdout:
    def test_outputs_survive_a_reader_that_is_gone(self, tmp_path, capsys):
        """``repro ... | head``: a reader gone before the table is printed
        costs neither ``--metrics-out`` nor ``--trace-out``, and the
        process exits 141 (a pipeline stage killed by SIGPIPE) without a
        traceback."""
        trace = tmp_path / "chaos.jsonl"
        assert main(["chaos", "--campaign-size", "2", "--workers", "1",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        metrics, trace_out = tmp_path / "m.json", tmp_path / "t.jsonl"
        read, write = os.pipe()
        os.close(read)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "obs", "episodes",
                 "--input", str(trace), "--metrics-out", str(metrics),
                 "--trace-out", str(trace_out)],
                stdout=write, stderr=subprocess.PIPE, text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": os.path.dirname(
                    os.path.dirname(repro.__file__))},
            )
        finally:
            os.close(write)
        assert completed.returncode == 141
        assert "Traceback" not in completed.stderr, completed.stderr
        assert json.loads(metrics.read_text())["command"] == "obs"
        assert trace_out.exists()


class TestTimedInjectionFlags:
    def test_fail_at_spec_parsing(self):
        args = build_parser().parse_args(
            ["stats", "--fail-at", "1:link:0->1",
             "--fail-at", "2:node:5", "--repair-at", "40:link:0->1"]
        )
        assert len(args.fail_at) == 2
        assert args.fail_at[0][0] == 1.0
        assert args.fail_at[1] == (2.0, 5)
        assert args.repair_at[0][0] == 40.0

    def test_bad_injection_specs_rejected(self):
        for spec in ["nonsense", "1:volcano:3", "1:link:0-1", "x:node:3"]:
            with pytest.raises(SystemExit):
                build_parser().parse_args(["stats", "--fail-at", spec])

    def test_stats_with_timed_injection(self, capsys):
        assert main(
            ["stats", "--failures", "0", "--fail-at", "1:link:0->1",
             "--repair-at", "60:link:0->1"] + SMALL
        ) == 0
        assert "repro stats" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--fail-at", "--repair-at"])
    @pytest.mark.parametrize("spec", ["1:node:999", "1:link:0->5"])
    def test_component_outside_the_topology_exits_cleanly(
        self, flag, spec, capsys
    ):
        with pytest.raises(SystemExit) as raised:
            main(["stats", "--failures", "0", flag, spec] + SMALL)
        assert raised.value.code == 2
        assert "not a component of" in capsys.readouterr().err

    def test_nan_horizon_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["stats", "--horizon", "nan"] + SMALL)
        assert raised.value.code == 2
        assert "argument --horizon:" in capsys.readouterr().err

    def test_infinite_horizon_drains(self, capsys):
        assert main(["stats", "--horizon", "inf"] + SMALL) == 0
        assert "connections recovered via backup" in capsys.readouterr().out


class TestChaosCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(
            ["chaos", "--campaign-size", "4", "--seed", "0",
             "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro chaos" in out
        assert "all runs clean" in out

    def test_bad_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--profiles", "volcano"])

    def test_planted_bug_fails_and_writes_artifact(
        self, capsys, tmp_path, monkeypatch
    ):
        plant(monkeypatch, DoubleReleaseSimulation)
        assert main(
            ["chaos", "--campaign-size", "6", "--seed", "7",
             "--max-artifacts", "1", "--artifact-dir", str(tmp_path),
             "--workers", "1"]
        ) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        artifacts = sorted(tmp_path.glob("chaos-seed7-run*.json"))
        assert artifacts
        payload = json.loads(artifacts[0].read_text())
        assert payload["schema"] == "repro.chaos/2"
        assert payload["reproduced"] is True
        assert len(payload["schedule"]["events"]) <= 5
        # The campaign's own cell, flags and defaults resolved: the torus
        # at its paper capacity, so nothing about the network is pinned.
        assert payload["scenario"]["topology"] == {"rows": 4, "cols": 4}
        assert payload["scenario"]["workload"]["campaign_size"] == 6

    def test_planted_race_fails_and_shrinks(
        self, capsys, tmp_path, monkeypatch
    ):
        # The inverse switchover gate: unguarded activation must let the
        # historical race through, and ddmin must shrink it small.
        plant(monkeypatch, UnguardedSimulation)
        assert main(
            ["chaos", "--campaign-size", "3", "--seed", "1",
             "--max-artifacts", "1", "--artifact-dir", str(tmp_path),
             "--workers", "1"]
        ) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "multiple-active" in out
        artifacts = sorted(tmp_path.glob("chaos-seed1-run*.json"))
        assert artifacts
        payload = json.loads(artifacts[0].read_text())
        assert payload["reproduced"] is True
        assert len(payload["schedule"]["events"]) <= 3

        # The exported artifact replays and reproduces the violation under
        # the planted daemon; through the product it replays clean.
        assert main(["chaos", "--replay", str(artifacts[0])]) == 1
        assert "violations reproduced" in capsys.readouterr().out
        monkeypatch.undo()
        assert main(["chaos", "--replay", str(artifacts[0])]) == 0
        assert "did not reproduce" in capsys.readouterr().out

    def test_replay_rejects_unknown_config_key(self, tmp_path, capsys):
        artifact = os.path.join(
            os.path.dirname(__file__), "artifacts",
            "switchover-race-seed1.json",
        )
        with open(artifact) as handle:
            payload = json.load(handle)
        path = tmp_path / "stale.json"
        scenario = payload["scenario"]
        for document, message in (
            ({**payload, "scenario": {
                **scenario,
                "protocol": {**scenario["protocol"], "no_such_knob": True}}},
             r"protocol spec: unknown field\(s\) no_such_knob"),
            ({**payload, "scenario": {
                **scenario,
                "topology": {**scenario["topology"], "family": "moebius"}}},
             r"unknown topology family 'moebius'"),
            ({**payload, "schema": "repro.chaos/1"},
             r"expected schema 'repro.chaos/2', found 'repro.chaos/1'"),
        ):
            path.write_text(json.dumps(document))
            # Exit 2 (not a traceback), the message led by the file.
            with pytest.raises(SystemExit) as raised:
                main(["chaos", "--replay", str(path)])
            assert raised.value.code == 2
            error = capsys.readouterr().err.rsplit("error: ", 1)[1]
            assert error.startswith(f"{path}: ") and re.search(message, error)

    def test_product_has_no_planted_switch(self):
        """The planted bugs live in ``tests/planted.py``: neither the
        config nor the CLI can select one."""
        for name in ("debug_double_release", "debug_unguarded_switchover"):
            with pytest.raises(TypeError):
                ProtocolConfig(**{name: True})
        for flag in ("--plant-bug", "--plant-race"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["chaos", flag])
