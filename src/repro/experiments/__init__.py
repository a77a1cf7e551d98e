"""The experiments and the command-line flags, declared once.

Every ``python -m repro <command>`` that regenerates a table, a figure or
a prose claim of the paper's evaluation is one row of :data:`EXPERIMENTS`:
its help text, where its runner lives, which of the grid flags it takes,
and its options with their defaults.  :data:`FLAGS` declares every flag
of every command once — the keyword it feeds (a runner keyword, or the
``TopologySpec`` / ``WorkloadSpec`` / ``ProtocolSpec`` / ``ScenarioSpec``
field), the type that validates it, its help text.  A command names the
flags it takes and their defaults and writes nothing else about them; the
CLI's parser, its dispatcher and ``repro report`` read these tables, so
adding an experiment is a module plus one row here.

A flag's type is its validation: a count, a rate, a duration or a path
that cannot be honoured is an argparse error (exit 2, naming the flag)
before anything is built.

A runner is ``run_*(config, **options)`` — ``config`` the
:class:`~repro.network.spec.TopologySpec` its grid flags describe (a
command without ``--topology`` gets its grid flags as keywords) — and
returns a result object whose ``format()`` prints the paper's rows.  A
default lives here and not in the runner's signature.

This module imports no experiment: importing any ``repro.experiments``
submodule runs it, and a command loads only the runner it names.  A flag
type imports what it checks against only when that flag is parsed.
"""

from __future__ import annotations

import os
from argparse import ArgumentTypeError
from typing import NamedTuple


def at_least(minimum, number=int):
    """The type of a count or a duration: a ``number`` (``int`` or
    ``float``) >= ``minimum`` — 0 where "none" is a request, 1 where the
    count sizes or divides something.  NaN is no number of anything."""
    def parse(text: str):
        try:
            value = number(text)
        except ValueError:
            raise ArgumentTypeError(
                f"expected {number.__name__}, got {text!r}"
            ) from None
        if not value >= minimum:
            raise ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value
    return parse


def positive(text: str) -> float:
    """The type of a capacity, a rate or a duration a run must finish: a
    finite float > 0."""
    value = at_least(0, float)(text)
    if not 0 < value < float("inf"):
        raise ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def each(item):
    """The type of a comma-separated list: a non-empty tuple of ``item``."""
    def parse(text: str) -> tuple:
        values = tuple(item(part) for part in text.split(",") if part != "")
        if not values:
            raise ArgumentTypeError("at least one value is required")
        return values
    return parse


def workers(text: str) -> "int | None":
    """``auto`` -> one worker per CPU (None); else a positive integer."""
    return None if text == "auto" else at_least(1)(text)


def readable(text: str) -> str:
    """The type of an input path: a file this process can read."""
    if not os.path.isfile(text) or not os.access(text, os.R_OK):
        raise ArgumentTypeError(f"{text}: no such readable file")
    return text


def writable(text: str) -> str:
    """The type of an output path: its directory must exist, so a path
    that cannot be written fails before the run, not after it."""
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise ArgumentTypeError(f"{text}: directory does not exist")
    return text


def shard(text: str) -> tuple[int, int]:
    """``I/N`` -> (I, N): round-robin shard I of N, ``0 <= I < N``."""
    try:
        index, count = (int(part) for part in text.split("/"))
    except ValueError:
        raise ArgumentTypeError(
            f"expected I/N (e.g. 0/2), got {text!r}") from None
    if not 0 <= index < count:
        raise ArgumentTypeError(f"expected 0 <= I < N, got {text}")
    return index, count


def profiles(text: str) -> tuple[str, ...]:
    """A comma-separated list of chaos profile names."""
    from repro.chaos.profiles import PROFILES

    names = each(str)(text)
    unknown = [name for name in names if name not in PROFILES]
    if unknown:
        raise ArgumentTypeError(
            f"unknown profile(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(PROFILES))}"
        )
    return names


def slo(text: str) -> str:
    """An SLO target, ``metric.stat <= threshold`` (or ``>=``)."""
    from repro.obs.slo import SLOTarget

    try:
        SLOTarget.parse(text)
    except ValueError as error:
        raise ArgumentTypeError(str(error)) from None
    return text


def injection(text: str) -> tuple[float, object]:
    """``TIME:node:ID`` or ``TIME:link:SRC->DST`` -> (time, component)."""
    from repro.network.components import LinkId

    parts = text.split(":", 2)
    if len(parts) != 3:
        raise ArgumentTypeError(
            f"injection spec must be TIME:node:ID or TIME:link:SRC->DST, "
            f"got {text!r}"
        )
    time_text, kind, ident = parts
    time = at_least(0, float)(time_text)

    def node(name: str):
        try:
            return int(name)
        except ValueError:
            return name

    if kind == "node":
        return time, node(ident)
    if kind != "link":
        raise ArgumentTypeError(
            f"component kind must be 'node' or 'link', got {kind!r}")
    try:
        src, dst = ident.split("->")
    except ValueError:
        raise ArgumentTypeError(
            f"link spec must be SRC->DST, got {ident!r}") from None
    return time, LinkId(node(src), node(dst))


class Flag(NamedTuple):
    keyword: str  # the runner keyword or spec field it feeds
    type: object  # an argparse type, a tuple of choices, or bool (a switch)
    help: str
    metavar: "str | None" = None
    repeatable: bool = False


FLAGS = {
    # the network
    "--topology": Flag("family", ("torus", "mesh"), "network type"),
    "--rows": Flag("rows", at_least(1), "grid rows"),
    "--cols": Flag("cols", at_least(1), "grid columns"),
    "--capacity": Flag("capacity", positive,
                       "simplex link capacity (default: the paper's for the "
                       "topology)"),
    # the protocol and the experiments' options
    "--backups": Flag("num_backups", at_least(0),
                      "backup channels per connection"),
    "--degrees": Flag("mux_degrees", each(at_least(0)),
                      "multiplexing degrees, comma-separated"),
    "--classes": Flag("classes", each(at_least(0)),
                      "the degrees mixed round-robin, comma-separated"),
    "--mux": Flag("mux_degree", at_least(0), "multiplexing degree"),
    "--double-samples": Flag("double_node_samples", at_least(0),
                             "sampled double-node failures"),
    "--checkpoints": Flag("checkpoints", at_least(1),
                          "load/spare samples per curve"),
    "--connections": Flag("connections", at_least(1),
                          "connections the run drives: chaos establishes "
                          "them; delay-bound and message-loss fail each "
                          "one's primary links in turn"),
    "--rate": Flag("message_rate", positive,
                   "data messages per time unit"),
    "--sizes": Flag("torus_sizes", each(at_least(2)),
                    "torus side lengths, comma-separated"),
    "--workers": Flag("workers", workers,
                      "worker processes (positive integer or 'auto' = one "
                      "per CPU). Results are identical for any worker "
                      "count."),
    # stats
    "--failures": Flag("failures", at_least(0),
                       "fail this many links (lexicographically first); 0 "
                       "with --fail-at for fully explicit injection"),
    "--horizon": Flag("horizon", at_least(0, float),
                      "simulated time to run until (inf: drain)"),
    "--fail-at": Flag("fail_at", injection,
                      "crash a component at a given time (TIME:node:ID or "
                      "TIME:link:SRC->DST; repeatable)", "SPEC", True),
    "--repair-at": Flag("repair_at", injection,
                        "repair a component at a given time (same spec as "
                        "--fail-at; repeatable)", "SPEC", True),
    # churn
    "--arrival-rate": Flag("arrival_rate", positive,
                           "Poisson arrival rate, requests per simulated "
                           "time unit"),
    "--holding-time": Flag("holding_time", positive,
                           "mean exponential connection holding time"),
    "--duration": Flag("duration", positive, "simulated run length"),
    "--bandwidth": Flag("bandwidth", positive,
                        "bandwidth each connection requests"),
    "--batch-window": Flag("batch_window", at_least(0, float),
                           "arrivals closer than this are admitted as one "
                           "batch, in order"),
    "--epoch-interval": Flag("epoch_interval", positive,
                             "ledger audit + time-series sampling cadence"),
    "--eval-scenarios": Flag("eval_scenarios", at_least(0),
                             "single-link failure scenarios evaluated per "
                             "epoch (0 disables)"),
    "--pairs": Flag("pairs", at_least(0),
                    "size of the pre-sampled node-pair pool (0 = fresh "
                    "pair per arrival)"),
    # chaos
    "--seed": Flag("seed", int, "the run's seed"),
    "--campaign-size": Flag("campaign_size", at_least(1),
                            "number of schedules to run"),
    "--profiles": Flag("profiles", profiles,
                       "comma-separated chaos profiles (none given: all of "
                       "them, rotated)"),
    "--max-artifacts": Flag("max_artifacts", at_least(0),
                            "shrink and export at most this many failing "
                            "runs"),
    "--replay": Flag("replay", readable,
                     "re-execute a saved repro.chaos/2 artifact instead of "
                     "running a campaign", "ARTIFACT"),
    "--artifact-dir": Flag("artifact_dir", str,
                           "where failure artifacts and flight recordings "
                           "are written (created if missing)", "DIR"),
    # run commands: a cell, its SLOs, its outputs
    "--spec": Flag("spec", readable,
                   "a one-cell repro.scenario/1 spec file: it drives the run "
                   "instead of the flags that describe one (--slo still "
                   "applies); serve start: it pins the topology and the "
                   "churn workload clients inherit", "PATH"),
    "--slo": Flag("slos", slo,
                  "SLO target, e.g. 'protocol.recovery_delay.p99 <= gamma', "
                  "where 'gamma' is the network's worst-case analytic "
                  "recovery bound (repeatable; any breach exits 1). churn "
                  "and serve churn judge it at every epoch boundary, chaos "
                  "against the campaign's metrics, obs slo against --input, "
                  "serve start against the server's serve.* metrics at "
                  "shutdown", "SPEC", True),
    "--stats-out": Flag("stats_out", writable,
                        "write the deterministic churn stats as JSON",
                        "PATH"),
    # matrix
    "--shard": Flag("shard", shard,
                    "run only round-robin shard I of N (e.g. 0/2; cell i "
                    "belongs to shard i %% N)", "I/N"),
    "--validate": Flag("validate", bool,
                       "expand: only check the spec file parses and expands "
                       "cleanly, print the cell count"),
    "--out": Flag("out", writable,
                  "expand: write the expanded lattice as repro.scenario/1 "
                  "JSONL instead of a table", "PATH"),
    "--results-out": Flag("results_out", writable,
                          "run: write one deterministic "
                          "repro.scenario-result/1 JSON line per cell "
                          "(byte-identical for any worker count)", "PATH"),
    # obs
    "--input": Flag("input", readable,
                    "input file: a --trace-out repro.trace/2 JSONL for "
                    "'episodes', repro.metrics/1 JSON for 'slo'", "PATH"),
    "--episodes-out": Flag("episodes_out", writable,
                           "also write the reconstructed episodes as "
                           "deterministic JSON lines (episodes action)",
                           "PATH"),
    "--gamma": Flag("gamma", at_least(0, float),
                    "value for the symbolic 'gamma' threshold (slo action)"),
    # serve
    "--bind": Flag("bind", str,
                   "start: listen address — host:port for TCP, anything "
                   "else a unix socket path", "ADDR"),
    "--connect": Flag("connect", str,
                      "client actions: the server's address", "ADDR"),
    "--restore": Flag("restore", readable,
                      "start: restore this repro.snapshot/1 file into the "
                      "warm network before serving — the restarted server "
                      "resumes byte-identically without re-admitting the "
                      "world", "PATH"),
    "--snapshot-out": Flag("snapshot_out", str,
                           "snapshot: path the *server process* writes the "
                           "snapshot file to", "PATH"),
    "--until": Flag("until", at_least(0, float),
                    "churn: pause the run at this simulated time instead of "
                    "running to the spec's duration"),
    # every command
    "--output": Flag("output", writable, "where the report is written"),
    "--metrics-out": Flag("metrics_out", writable,
                          "write the run's metrics snapshot as JSON "
                          "(repro.metrics/1)", "PATH"),
    "--trace-out": Flag("trace_out", writable,
                        "write the run's trace log as JSONL (repro.trace/2)",
                        "PATH"),
}

#: The grid flags and their defaults: the paper's 8x8 torus.
GRID = {"--topology": "torus", "--rows": 8, "--cols": 8, "--capacity": None}


class Experiment(NamedTuple):
    help: str
    runner: str  # "module:function", imported when the command runs
    grid: tuple  # the GRID flags it takes
    options: dict  # flag -> default


_PANEL = {"--backups": 1, "--degrees": (1, 3, 5, 6), "--double-samples": 200}

EXPERIMENTS = {
    # The degrees the paper plots: mux=2 / mux=4 are near-identical to
    # mux=3 / mux=5 (Section 7.1 explains why).
    "figure9": Experiment(
        "spare bandwidth vs network load",
        "repro.experiments.figure9:run_figure9", tuple(GRID),
        {"--backups": 1, "--degrees": (0, 1, 3, 5, 6), "--checkpoints": 8}),
    "table1": Experiment(
        "R_fast with uniform multiplexing degrees",
        "repro.experiments.panel:run_table1", tuple(GRID), _PANEL),
    "table2": Experiment(
        "per-connection fault-tolerance control",
        "repro.experiments.table2:run_table2", tuple(GRID),
        {"--backups": 1, "--classes": (1, 3, 5, 6), "--double-samples": 200}),
    "table3": Experiment(
        "R_fast under brute-force multiplexing",
        "repro.experiments.panel:run_table3", tuple(GRID), _PANEL),
    "delay-bound": Experiment(
        "measured recovery delay vs the Γ bound",
        "repro.experiments.delay_bound:run_delay_bound", tuple(GRID),
        {"--backups": 2, "--connections": 6}),
    "rcc-sizing": Experiment(
        "RCC frame sizing and control-delay bound",
        "repro.experiments.rcc_sizing:run_rcc_sizing", tuple(GRID), {}),
    "reliability": Experiment(
        "Markov vs combinatorial reliability models",
        "repro.experiments.reliability:run_reliability", tuple(GRID),
        {"--workers": None}),
    "inhomogeneous": Experiment(
        "hotspot/mixed-bandwidth/topology sensitivity",
        "repro.experiments.inhomogeneous:run_inhomogeneous",
        ("--rows", "--cols"), {"--mux": 5}),
    "message-loss": Experiment(
        "data-message loss during recovery (Fig. 8)",
        "repro.experiments.message_loss:run_message_loss", tuple(GRID),
        {"--rate": 2.0, "--connections": 4}),
    "scaling": Experiment(
        "multiplexing efficiency vs network size (§6)",
        "repro.experiments.scaling:run_scaling", (),
        {"--mux": 5, "--sizes": (4, 6, 8)}),
    "baselines": Experiment(
        "BCP vs reactive vs local-detour trade-offs",
        "repro.experiments.baseline_comparison:run_baseline_comparison",
        tuple(GRID), {"--mux": 3}),
    "ablations": Experiment(
        "design-choice ablations (see DESIGN.md)",
        "repro.experiments.ablations:run_ablations", tuple(GRID),
        {"--mux": 5}),
}
