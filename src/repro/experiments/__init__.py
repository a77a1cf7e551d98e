"""The experiments, declared once.

Every ``python -m repro <command>`` that regenerates a table, a figure or
a prose claim of the paper's evaluation is one row of :data:`EXPERIMENTS`:
its help text, where its runner lives, which of the grid flags it takes,
and its options with their defaults.  :data:`FLAGS` declares each flag
once — the runner keyword it feeds, the type that validates it, its help
text.  The CLI's parser, its dispatcher and ``repro report`` read these
tables and nothing else names an experiment, so adding one is a module
plus one row here.

A runner is ``run_*(config, **options)`` — ``config`` the
:class:`~repro.network.spec.TopologySpec` its grid flags describe (a
command without ``--topology`` gets its grid flags as keywords) — and
returns a result object whose ``format()`` prints the paper's rows.  A
default lives here and not in the runner's signature.

This module imports no experiment: importing any ``repro.experiments``
submodule runs it, and a command loads only the runner it names.
"""

from __future__ import annotations

from argparse import ArgumentTypeError
from typing import NamedTuple


def at_least(minimum, number=int):
    """The type of a count or a duration: a ``number`` (``int`` or
    ``float``) >= ``minimum`` — 0 where "none" is a request, 1 where the
    count sizes or divides something.  Rejected by the parser, before any
    network is built."""
    def parse(text: str):
        try:
            value = number(text)
        except ValueError:
            raise ArgumentTypeError(
                f"expected {number.__name__}, got {text!r}"
            ) from None
        if value < minimum:
            raise ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value
    return parse


def positive(text: str) -> float:
    """The type of a capacity or a rate: a finite float > 0."""
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


class Flag(NamedTuple):
    keyword: str  # the runner keyword (or TopologySpec field) it feeds
    type: object  # an argparse type, or a tuple of choices
    help: str


FLAGS = {
    "--topology": Flag("family", ("torus", "mesh"), "network type"),
    "--rows": Flag("rows", at_least(1), "grid rows"),
    "--cols": Flag("cols", at_least(1), "grid columns"),
    "--capacity": Flag("capacity", positive,
                       "simplex link capacity (default: the paper's for the "
                       "topology)"),
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
    "--connections": Flag("sample_connections", at_least(1),
                          "connections whose primary links are failed in "
                          "turn"),
    "--rate": Flag("message_rate", positive,
                   "data messages per time unit"),
    "--sizes": Flag("torus_sizes", each(at_least(2)),
                    "torus side lengths, comma-separated"),
    "--workers": Flag("workers", workers,
                      "worker processes (positive integer or 'auto' = one "
                      "per CPU). Results are identical for any worker "
                      "count."),
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
