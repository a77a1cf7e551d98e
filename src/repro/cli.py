"""Command-line interface: regenerate any of the paper's experiments.

Examples::

    python -m repro table1 --topology torus --backups 1
    python -m repro figure9 --topology mesh --checkpoints 8
    python -m repro table3 --rows 4 --cols 4 --double-samples 30
    python -m repro delay-bound
    python -m repro stats --rows 4 --cols 4     # one scenario + metrics
    python -m repro stats --failures 0 --fail-at "1:link:0->1" \
        --repair-at "40:link:0->1"              # explicit timed injection
    python -m repro chaos --seed 0 --campaign-size 25   # invariant audit
    python -m repro chaos --replay chaos-seed0-run3.json
    python -m repro chaos --trace-out trace.jsonl \
        --slo "protocol.recovery_delay.p99 <= gamma"
    python -m repro obs episodes --input trace.jsonl    # Γ breakdown
    python -m repro report --rows 4 --cols 4    # quick full sweep

The table and figure commands are the rows of
:data:`repro.experiments.EXPERIMENTS`; each prints the regenerated table
(same rows as the paper) to stdout.  The default 8x8 scale takes seconds
per table; ``--rows 4 --cols 4`` gives a faster small-scale pass.

Every subcommand also accepts ``--metrics-out PATH`` (write the run's
``repro.metrics/1`` snapshot as JSON) and ``--trace-out PATH`` (write the
run's trace log as ``repro.trace/2`` JSONL).  The four commands whose
tasks were measured to gain from a process pool — ``matrix``, ``chaos``,
``reliability``, ``report`` — accept ``--workers N`` (``auto`` = one per
CPU; results are identical for any worker count); see the
Observability and Parallel evaluation sections of docs/architecture.md.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.experiments import EXPERIMENTS, FLAGS, GRID, at_least
from repro.obs import (
    MetricsRegistry,
    format_metrics,
    get_registry,
    get_trace_sink,
    obs_session,
    write_json,
    write_metrics,
    write_trace,
)
from repro.sim.trace import TraceLog, flight_record

# Everything a command runs is imported by the handler that runs it, so
# a process pays for one experiment, or for none (--help, serve, churn).
if TYPE_CHECKING:
    from repro.network.spec import TopologySpec


def _parse_component(kind: str, ident: str):
    """Parse the component half of an injection spec."""
    from repro.network.components import LinkId

    def node(text: str):
        try:
            return int(text)
        except ValueError:
            return text

    if kind == "node":
        return node(ident)
    if kind == "link":
        try:
            src, dst = ident.split("->")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"link spec must be SRC->DST, got {ident!r}"
            ) from None
        return LinkId(node(src), node(dst))
    raise argparse.ArgumentTypeError(
        f"component kind must be 'node' or 'link', got {kind!r}"
    )


def _parse_injection(text: str) -> tuple[float, object]:
    """``TIME:node:ID`` or ``TIME:link:SRC->DST`` -> (time, component)."""
    parts = text.split(":", 2)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"injection spec must be TIME:node:ID or TIME:link:SRC->DST, "
            f"got {text!r}"
        )
    time_text, kind, ident = parts
    try:
        time = float(time_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"injection time must be a number, got {time_text!r}"
        ) from None
    if time < 0:
        raise argparse.ArgumentTypeError(
            f"injection time must be >= 0, got {time:g}"
        )
    return time, _parse_component(kind, ident)


def _parse_profiles(text: str) -> tuple[str, ...]:
    from repro.chaos import PROFILES

    names = tuple(part for part in text.split(",") if part != "")
    if not names:
        raise argparse.ArgumentTypeError("at least one profile is required")
    unknown = [name for name in names if name not in PROFILES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown profile(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(PROFILES))}"
        )
    return names


def _add_flag(parser: argparse.ArgumentParser, flag: str, default) -> None:
    """Put one declared flag (:data:`repro.experiments.FLAGS`) on
    ``parser``: its spelling, its validated type and its help are written
    there, once."""
    declared = FLAGS[flag]
    accepts = ({"choices": declared.type} if isinstance(declared.type, tuple)
               else {"type": declared.type})
    parser.add_argument(
        flag, default=default, **accepts,
        help=declared.help + ("" if default is None
                              else " (default %(default)s)"),
    )


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    for flag, default in GRID.items():
        _add_flag(parser, flag, default)


def _keywords(args: argparse.Namespace, flags) -> dict:
    """The declared flags' values, by the keyword each feeds."""
    return {FLAGS[flag].keyword: getattr(args, flag[2:].replace("-", "_"))
            for flag in flags}


def _config(args: argparse.Namespace) -> TopologySpec:
    """The network the grid flags describe."""
    from repro.network.spec import TopologySpec

    return TopologySpec(**_keywords(args, GRID))


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with one subcommand per experiment."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of Han & Shin (SIGCOMM 1997).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, experiment in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=experiment.help)
        for flag in experiment.grid:
            _add_flag(sub, flag, GRID[flag])
        for flag, default in experiment.options.items():
            _add_flag(sub, flag, default)

    report = subparsers.add_parser(
        "report", help="run the full suite and write a markdown report")
    _add_network_arguments(report)
    _add_flag(report, "--double-samples", 100)
    report.add_argument("--output", default="reproduction-report.md")

    stats = subparsers.add_parser(
        "stats", help="re-run one failure scenario and print the run's "
                      "metrics summary")
    _add_network_arguments(stats)
    stats.add_argument("--mux", type=int, default=3)
    stats.add_argument("--backups", type=int, default=1)
    stats.add_argument("--failures", type=at_least(0), default=1,
                       help="fail this many links (lexicographically first); "
                            "0 with --fail-at for fully explicit injection")
    stats.add_argument("--horizon", type=at_least(0, float), default=200.0)
    stats.add_argument(
        "--fail-at", metavar="SPEC", type=_parse_injection,
        action="append", default=[],
        help="crash a component at a given time "
             "(TIME:node:ID or TIME:link:SRC->DST; repeatable)")
    stats.add_argument(
        "--repair-at", metavar="SPEC", type=_parse_injection,
        action="append", default=[],
        help="repair a component at a given time (same spec as --fail-at; "
             "repeatable)")

    churn = subparsers.add_parser(
        "churn", help="drive the network through a seeded arrival/"
                      "departure churn process with epoch invariant audits")
    _add_network_arguments(churn)
    churn.add_argument("--arrival-rate", type=float, default=50.0,
                       help="Poisson arrival rate, requests per simulated "
                            "time unit (default 50)")
    churn.add_argument("--holding-time", type=float, default=10.0,
                       help="mean exponential connection holding time "
                            "(default 10)")
    churn.add_argument("--duration", type=float, default=100.0,
                       help="simulated run length (default 100)")
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--backups", type=int, default=1)
    churn.add_argument("--mux", type=int, default=3)
    churn.add_argument("--bandwidth", type=float, default=1.0)
    churn.add_argument("--batch-window", type=float, default=0.05,
                       help="arrivals closer than this share one batched "
                            "admission pass (default 0.05)")
    churn.add_argument("--epoch-interval", type=float, default=10.0,
                       help="ledger audit + time-series sampling cadence "
                            "(default 10)")
    churn.add_argument("--eval-scenarios", type=int, default=32,
                       help="single-link failure scenarios evaluated per "
                            "epoch (0 disables; default 32)")
    churn.add_argument("--pairs", type=int, default=64,
                       help="size of the pre-sampled node-pair pool "
                            "(0 = fresh pair per arrival; default 64)")
    churn.add_argument("--stats-out", metavar="PATH", default=None,
                       help="write the deterministic churn stats as JSON")
    churn.add_argument("--slo", metavar="SPEC", action="append", default=[],
                       help="SLO target evaluated at every epoch boundary, "
                            "e.g. 'churn.establish_latency.p99 <= 0.02' "
                            "(repeatable; any breach exits 1)")
    churn.add_argument("--spec", metavar="PATH", default=None,
                       help="drive the run from a one-cell repro.scenario/1 "
                            "spec file instead of the flags above "
                            "(--slo still applies)")

    chaos = subparsers.add_parser(
        "chaos", help="run a seeded chaos campaign with the protocol "
                      "invariant auditor; shrink and export any failures")
    _add_network_arguments(chaos)
    chaos.set_defaults(rows=4, cols=4)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--campaign-size", type=at_least(1), default=25,
                       help="number of schedules to run (default 25)")
    chaos.add_argument("--profiles", type=_parse_profiles, default=None,
                       help="comma-separated chaos profiles "
                            "(default: all of them, rotated)")
    chaos.add_argument("--backups", type=int, default=2)
    chaos.add_argument("--mux", type=int, default=1)
    chaos.add_argument("--connections", type=at_least(1), default=6,
                       help="connections to establish (default 6)")
    chaos.add_argument("--artifact-dir", metavar="DIR", default=".",
                       help="where shrunk failure artifacts are written "
                            "(default: current directory)")
    chaos.add_argument("--max-artifacts", type=at_least(0), default=5,
                       help="shrink and export at most this many failing "
                            "runs (default 5)")
    chaos.add_argument("--replay", metavar="ARTIFACT", default=None,
                       help="re-execute a saved repro.chaos/2 artifact "
                            "instead of running a campaign")
    chaos.add_argument("--slo", metavar="SPEC", action="append", default=[],
                       help="SLO target evaluated against the campaign's "
                            "metrics, e.g. 'protocol.recovery_delay.p99 <= "
                            "gamma' — 'gamma' resolves to the network's "
                            "worst-case analytic recovery bound "
                            "(repeatable; any breach exits 1)")
    chaos.add_argument("--spec", metavar="PATH", default=None,
                       help="drive the campaign from a one-cell "
                            "repro.scenario/1 spec file instead of the "
                            "flags above (--slo still applies)")

    matrix = subparsers.add_parser(
        "matrix", help="expand, diff, and run declarative scenario "
                       "lattices (repro.scenario/1 / repro.matrix/1)")
    matrix.add_argument("action", choices=("run", "expand", "diff"),
                        help="run: execute every cell of a lattice through "
                             "the churn/chaos/evaluator engines; expand: "
                             "print (or write) the cell lattice a spec "
                             "file describes; diff: compare two lattices "
                             "by cell name")
    matrix.add_argument("paths", nargs="+", metavar="PATH",
                        help="spec file(s): a repro.scenario/1 JSONL "
                             "lattice, a repro.matrix/1 JSON matrix, or a "
                             "single repro.scenario/1 JSON spec "
                             "(diff takes exactly two)")
    matrix.add_argument("--shard", metavar="I/N", default=None,
                        help="run only round-robin shard I of N "
                             "(e.g. 0/2; cell i belongs to shard i %% N)")
    matrix.add_argument("--validate", action="store_true",
                        help="expand: only check the spec file parses and "
                             "expands cleanly, print the cell count")
    matrix.add_argument("--out", metavar="PATH", default=None,
                        help="expand: write the expanded lattice as "
                             "repro.scenario/1 JSONL instead of a table")
    matrix.add_argument("--results-out", metavar="PATH", default=None,
                        help="run: write one deterministic "
                             "repro.scenario-result/1 JSON line per cell "
                             "(byte-identical for any worker count)")
    matrix.add_argument("--artifact-dir", metavar="DIR", default=None,
                        help="run: write flight recordings of failing "
                             "chaos cells into this directory")

    obs = subparsers.add_parser(
        "obs", help="offline observability: reconstruct recovery episodes "
                    "from a trace log, evaluate SLOs against a metrics "
                    "snapshot")
    obs.add_argument("action", choices=("episodes", "slo"),
                     help="episodes: fold a --trace-out JSONL into "
                          "per-failure recovery episodes with the delay "
                          "breakdown and Γ-bound verdicts; slo: evaluate "
                          "--slo targets against a repro.metrics/1 "
                          "snapshot")
    obs.add_argument("--input", metavar="PATH", default=None,
                     help="input file: a --trace-out repro.trace/2 JSONL "
                          "for 'episodes', repro.metrics/1 JSON for 'slo'")
    obs.add_argument("--episodes-out", metavar="PATH", default=None,
                     help="also write the reconstructed episodes as "
                          "deterministic JSON lines (episodes action)")
    obs.add_argument("--slo", metavar="SPEC", action="append", default=[],
                     help="SLO target, e.g. "
                          "'protocol.recovery_delay.p99 <= gamma' "
                          "(repeatable; slo action)")
    obs.add_argument("--gamma", type=float, default=None,
                     help="value for the symbolic 'gamma' threshold "
                          "(slo action)")

    serve = subparsers.add_parser(
        "serve", help="always-on admission service: run the long-lived "
                      "server (start) or drive one remotely (churn/"
                      "snapshot/ping/shutdown)")
    serve.add_argument("action",
                       choices=("start", "churn", "snapshot", "ping",
                                "shutdown"),
                       help="start: serve a warm network on --bind; "
                            "churn: run the churn engine as a remote load "
                            "generator against --connect; snapshot: ask "
                            "the server to write a repro.snapshot/1 file; "
                            "ping/shutdown: liveness check / graceful stop")
    serve.add_argument("--spec", metavar="PATH", default=None,
                       help="start: one-cell scenario spec pinning the "
                            "topology (and the churn workload clients "
                            "inherit via the hello handshake)")
    serve.add_argument("--bind", metavar="ADDR", default=None,
                       help="start: listen address — host:port for TCP, "
                            "anything else a unix socket path")
    serve.add_argument("--connect", metavar="ADDR", default=None,
                       help="client actions: the server's address")
    serve.add_argument("--restore", metavar="PATH", default=None,
                       help="start: restore this repro.snapshot/1 file "
                            "into the warm network before serving — the "
                            "restarted server resumes byte-identically "
                            "without re-admitting the world")
    serve.add_argument("--snapshot-out", metavar="PATH", default=None,
                       help="snapshot: path the *server process* writes "
                            "the snapshot file to")
    serve.add_argument("--stats-out", metavar="PATH", default=None,
                       help="churn: write the client-side churn stats as "
                            "deterministic JSON")
    serve.add_argument("--until", type=float, default=None,
                       help="churn: pause the run at this simulated time "
                            "instead of running to the spec's duration")
    serve.add_argument("--slo", metavar="SPEC", action="append", default=[],
                       help="SLO target (repeatable). start: evaluated "
                            "against the server's serve.* metrics at "
                            "shutdown, e.g. "
                            "'serve.admission_latency.p99 <= 0.05'; "
                            "churn: per-epoch targets as in 'repro churn'")

    # Observability flags are global: every subcommand exports the same
    # way (the whole run records into one session registry/trace sink).
    for sub in subparsers.choices.values():
        sub.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write the run's metrics snapshot as JSON (repro.metrics/1)")
        sub.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="write the run's trace log as JSONL (repro.trace/2)")
    # A pool only where it was measured to pay — commands whose tasks each
    # build their own network (matrix cells; reliability configurations,
    # declared with the experiment) — plus chaos campaigns, a wash on 2
    # CPUs (docs/architecture.md, "Parallel evaluation").
    for sub in (matrix, chaos, report):
        _add_flag(sub, "--workers", None)

    return parser


def _run_stats(args: argparse.Namespace) -> str:
    """Re-run one failure scenario end to end and summarise the metrics."""
    from repro.channels.qos import FaultToleranceQoS
    from repro.experiments.setup import load_network
    from repro.faults.models import FailureScenario
    from repro.protocol import ProtocolConfig, ProtocolSimulation
    from repro.sim import SimulationError

    qos = FaultToleranceQoS(num_backups=args.backups, mux_degree=args.mux)
    network, _ = load_network(_config(args), qos)
    links = sorted(network.topology.links(), key=str)[:args.failures]
    simulation = ProtocolSimulation(network, ProtocolConfig(), seed=0)
    simulation.inject_scenario(FailureScenario.of_links(links), at=1.0)
    # Explicit timed injections on top of (or instead of, with
    # --failures 0) the default scenario.
    try:
        for time, component in args.fail_at:
            simulation.fail(component, at=time)
        for time, component in args.repair_at:
            simulation.repair(component, at=time)
    except ValueError as error:  # a component the topology lacks
        raise SystemExit(f"--fail-at/--repair-at: {error}") from None
    try:
        simulation.run(until=args.horizon)
    except SimulationError as error:  # --horizon nan
        raise SystemExit(f"--horizon: {error}") from None
    recovered = simulation.metrics.recovered_count()
    worst = simulation.metrics.max_service_disruption()
    failed = ", ".join(str(link) for link in links)
    header = (
        f"repro stats — {network.topology.name}, mux={args.mux}, "
        f"{args.backups} backup(s); failed: {failed}\n"
        f"connections recovered via backup: {recovered}"
        + (f"; worst service disruption: {worst:g}" if worst is not None
           else "")
    )
    return (
        header + "\n\n"
        + format_metrics(get_registry().snapshot(), title="Metrics summary")
    )


def _load_single_spec(path: str, kind: str):
    """Load a one-cell spec file for a single-run subcommand."""
    from repro.scenario import load_cells

    try:
        cells = load_cells(path)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if len(cells) != 1:
        raise SystemExit(
            f"{path}: expected exactly one scenario cell, got "
            f"{len(cells)} (run lattices via 'repro matrix run')"
        )
    spec = cells[0]
    if spec.workload.kind != kind:
        raise SystemExit(
            f"{path}: expected a {kind!r} workload, got "
            f"{spec.workload.kind!r}"
        )
    return spec


def _churn_verdict(stats, slos: tuple) -> list[str]:
    """The invariant and SLO lines a churn summary ends with, local or
    served."""
    lines = []
    if stats.clean:
        lines.append("invariants: every epoch boundary clean")
    else:
        lines.append(
            f"invariants VIOLATED ({len(stats.audit_violations)} findings):"
        )
        lines.extend(f"  {finding}" for finding in stats.audit_violations)
    if stats.slo_breaches:
        lines.append(
            f"SLOs BREACHED ({len(stats.slo_breaches)} findings):"
        )
        lines.extend(f"  {finding}" for finding in stats.slo_breaches)
    elif slos:
        lines.append(
            f"SLOs: all {len(slos)} target(s) met at "
            f"every epoch boundary"
        )
    return lines


def _run_churn(args: argparse.Namespace) -> tuple[str, int]:
    """Seeded churn run; exit code 1 on any epoch invariant violation."""
    import dataclasses

    from repro.core.bcp import BCPNetwork
    from repro.scenario import (
        ProtocolSpec,
        ScenarioSpec,
        WorkloadSpec,
        churn_config_from_spec,
    )
    from repro.workload import ChurnEngine

    if args.spec:
        spec = _load_single_spec(args.spec, "churn")
    else:
        spec = ScenarioSpec(
            name=f"cli/churn/{args.topology}{args.rows}x{args.cols}",
            topology=_config(args),
            workload=WorkloadSpec(
                kind="churn",
                arrival_rate=args.arrival_rate,
                holding_time=args.holding_time,
                duration=args.duration,
                bandwidth=args.bandwidth,
                batch_window=args.batch_window,
                epoch_interval=args.epoch_interval,
                eval_scenarios=args.eval_scenarios,
                pairs=args.pairs,
            ),
            protocol=ProtocolSpec(
                num_backups=args.backups, mux_degree=args.mux,
            ),
            seed=args.seed,
        )
    # Per-epoch SLO evaluation stays a CLI concern: matrix cells judge
    # their SLOs once against the finished cell's snapshot instead.
    churn_config = dataclasses.replace(
        churn_config_from_spec(spec), slos=tuple(args.slo)
    )
    network = BCPNetwork(spec.topology.build())
    engine = ChurnEngine(network, churn_config)
    stats = engine.run()
    if args.stats_out:
        write_json(stats.to_dict(), args.stats_out)
    lines = [
        f"repro churn — {spec.topology.label}, "
        f"mux={spec.protocol.mux_degree}, "
        f"{spec.protocol.num_backups} backup(s), seed {spec.seed}, "
        f"rate {spec.workload.arrival_rate:g}/t, "
        f"hold {spec.workload.holding_time:g}, "
        f"duration {spec.workload.duration:g}",
        f"arrivals: {stats.arrivals} in {stats.batches} batches; "
        f"established: {stats.established}; blocked: {stats.blocked} "
        f"(P_block {stats.blocking_probability:.4f}); "
        f"departures: {stats.departures}",
        f"connections: peak {stats.peak_connections}, "
        f"final {stats.final_connections}; epochs audited: {stats.epochs}",
    ]
    if stats.recovery.scenarios:
        r_fast = stats.recovery.r_fast
        lines.append(
            f"recovery under churn: {stats.recovery.scenarios} scenarios, "
            f"R_fast "
            + (f"{r_fast:.4f}" if r_fast is not None else "N/A")
        )
    lines.extend(_churn_verdict(stats, churn_config.slos))
    # Gate on ``healthy`` (invariants AND SLOs), not ``clean`` — gating
    # on clean alone waved breached SLOs through whenever the breach
    # list was populated by a path other than the --slo flags.
    code = 0 if stats.healthy else 1
    lines.append("")
    lines.append(format_metrics(get_registry().snapshot(),
                                title="Churn metrics"))
    return "\n".join(lines), code


def _run_serve(args: argparse.Namespace) -> tuple[str, int]:
    """Always-on admission service: run the server, or drive one as a
    churn client / one-shot management call."""
    from repro.serve import AdmissionServer, RemoteNetwork, ServeClient

    if args.action == "start":
        if not args.spec or not args.bind:
            raise SystemExit("repro serve start requires --spec and --bind")
        spec = _load_single_spec(args.spec, "churn")
        server = AdmissionServer(spec)
        restored = 0
        if args.restore:
            restored = server.restore(args.restore)
        # Blocks until a client sends ``shutdown``; SLOs over the
        # serve.* metrics gate the exit code afterwards.
        server.serve_forever(args.bind)
        breaches = server.slo_breaches(tuple(args.slo))
        lines = [
            f"repro serve — {spec.topology.label} on {args.bind}"
            + (f", restored {restored} connection(s)" if args.restore
               else ""),
            f"shut down with {server.network.num_connections} live "
            f"connection(s)",
        ]
        if breaches:
            lines.append(f"SLOs BREACHED ({len(breaches)} findings):")
            lines.extend(f"  {finding}" for finding in breaches)
        elif args.slo:
            lines.append(f"SLOs: all {len(args.slo)} target(s) met")
        lines.append("")
        lines.append(format_metrics(server.registry.snapshot(),
                                    title="Serve metrics"))
        return "\n".join(lines), 1 if breaches else 0

    if not args.connect:
        raise SystemExit(f"repro serve {args.action} requires --connect")

    if args.action == "churn":
        import dataclasses

        from repro.scenario import churn_config_from_spec
        from repro.workload import ChurnEngine

        network = RemoteNetwork(ServeClient(args.connect), retry_window=5.0)
        spec = network.spec
        # The workload comes from the server's hello spec, so both sides
        # agree on every seeded draw without shipping a spec file around.
        churn_config = dataclasses.replace(
            churn_config_from_spec(spec), slos=tuple(args.slo)
        )
        engine = ChurnEngine(network, churn_config)
        stats = engine.run(until=args.until)
        network.client.close()
        if args.stats_out:
            write_json(stats.to_dict(), args.stats_out)
        lines = [
            f"repro serve churn — {spec.topology.label} via {args.connect}, "
            f"seed {spec.seed}"
            + (f", paused at t={args.until:g}" if args.until is not None
               else ""),
            f"arrivals: {stats.arrivals} in {stats.batches} batches; "
            f"established: {stats.established}; blocked: {stats.blocked}; "
            f"departures: {stats.departures}; epochs audited: {stats.epochs}",
        ]
        lines.extend(_churn_verdict(stats, churn_config.slos))
        return "\n".join(lines), 0 if stats.healthy else 1

    client = ServeClient(args.connect)
    hello = client.connect()
    try:
        if args.action == "ping":
            return (
                f"repro serve — {args.connect} alive ({hello['schema']}, "
                f"{hello['connections']} connection(s))"
            ), 0
        if args.action == "snapshot":
            if not args.snapshot_out:
                raise SystemExit(
                    "repro serve snapshot requires --snapshot-out"
                )
            response = client.call("snapshot", path=args.snapshot_out)
            return (
                f"server wrote {response['path']} "
                f"({response['connections']} connection(s))"
            ), 0
        assert args.action == "shutdown"
        response = client.call("shutdown")
        return (
            f"server at {args.connect} shut down "
            f"({response['connections']} connection(s) at exit)"
        ), 0
    finally:
        client.close()


def _format_violations(violations) -> list[str]:
    return [
        f"  [{v.time:10.3f}] {v.invariant} @ {v.subject}: {v.detail}"
        for v in violations
    ]


def _run_chaos(args: argparse.Namespace) -> tuple[str, int]:
    """Chaos campaign / artifact replay; exit code 1 on any violation
    or SLO breach."""
    from repro.chaos import (
        DEFAULT_PROFILES,
        artifact_payload,
        build_campaign,
        campaign_summary,
        load_artifact,
        replay_artifact,
        run_campaign,
        shrink_failing_run,
        write_artifact,
    )

    if args.replay:
        try:
            result = replay_artifact(load_artifact(args.replay))
        except ValueError as error:
            raise SystemExit(f"{args.replay}: {error}") from None
        lines = [
            f"repro chaos — replay of {args.replay} "
            f"(profile {result.schedule.profile}, "
            f"seed {result.schedule.seed})",
            f"events: {len(result.schedule.events)}; "
            f"final time: {result.final_time:g}; "
            f"drained: {result.drained}",
        ]
        if result.violations:
            lines.append(f"violations reproduced: {len(result.violations)}")
            lines.extend(_format_violations(result.violations))
        else:
            lines.append("no violations: the artifact did not reproduce")
        return "\n".join(lines), (1 if result.violations else 0)

    from repro.scenario import (
        ProtocolSpec,
        ScenarioSpec,
        WorkloadSpec,
        build_loaded_network,
    )

    if args.spec:
        spec = _load_single_spec(args.spec, "chaos")
    else:
        spec = ScenarioSpec(
            name=f"cli/chaos/{args.topology}{args.rows}x{args.cols}",
            topology=_config(args),
            workload=WorkloadSpec(
                kind="chaos",
                campaign_size=args.campaign_size,
                connections=args.connections,
                profiles=args.profiles or (),
            ),
            protocol=ProtocolSpec(
                num_backups=args.backups, mux_degree=args.mux,
            ),
            seed=args.seed,
        )
    config = spec.protocol.config()
    network = build_loaded_network(spec)
    schedules = build_campaign(
        spec.seed, spec.workload.campaign_size, network, config,
        profiles=spec.workload.profiles or DEFAULT_PROFILES,
    )
    results = run_campaign(schedules, network, config, workers=args.workers)
    summary = campaign_summary(results)
    lines = [
        f"repro chaos — {network.topology.name}, "
        f"{spec.workload.connections} connections, "
        f"seed {spec.seed}, {summary['runs']} schedules "
        f"(profiles: {', '.join(spec.workload.profiles) or 'all'})",
        f"recovered: {summary['recovered']}; "
        f"unrecoverable: {summary['unrecoverable']}; "
        f"rejoins: {summary['rejoins']}; "
        f"undrained: {summary['undrained']}",
    ]
    # Campaign-level SLOs: evaluated against the session registry (all
    # per-run registries are folded into it by the campaign's ordered
    # merge).  The symbolic 'gamma' threshold resolves to the network's
    # worst-case analytic recovery bound.
    slo_lines: list[str] = []
    slo_breaches = []
    if args.slo:
        from repro.analysis.delay import network_delay_bound
        from repro.obs import SLOEngine, format_results

        gamma = network_delay_bound(network, config.rcc.max_delay)
        slo_results = SLOEngine(args.slo).evaluate(
            get_registry().snapshot(), constants={"gamma": gamma}
        )
        slo_breaches = [r for r in slo_results if r.ok is False]
        slo_lines = ["", format_results(
            slo_results, title=f"Campaign SLOs (gamma = {gamma:g})")]
        if slo_breaches:
            os.makedirs(args.artifact_dir, exist_ok=True)
            flight_path = os.path.join(
                args.artifact_dir, f"flight-seed{spec.seed}-slo.json")
            sink = get_trace_sink()
            write_json(flight_record(
                () if sink is None else sink.rows, "slo-breach",
                {
                    "seed": spec.seed,
                    "gamma": gamma,
                    "breaches": [r.to_dict() for r in slo_breaches],
                    "summary": summary,
                },
            ), flight_path)
            slo_lines.append(f"SLO breach artifact -> {flight_path}")

    failing = [
        (index, result)
        for index, result in enumerate(results)
        if result.violations
    ]
    if not failing:
        lines.append("invariants: all runs clean")
        lines.extend(slo_lines)
        return "\n".join(lines), (1 if slo_breaches else 0)
    lines.append(
        f"invariants VIOLATED in {len(failing)}/{summary['runs']} runs: "
        + ", ".join(
            f"{name} x{count}"
            for name, count in sorted(summary["violations"].items())
        )
    )
    os.makedirs(args.artifact_dir, exist_ok=True)
    for index, result in failing[: args.max_artifacts]:
        shrunk = shrink_failing_run(result, network, config)
        path = os.path.join(
            args.artifact_dir, f"chaos-seed{spec.seed}-run{index}.json"
        )
        write_artifact(path, artifact_payload(shrunk, spec))
        lines.append(
            f"run {index} ({result.schedule.profile}): shrunk "
            f"{shrunk.original_events} -> {shrunk.minimal_events} events "
            f"in {shrunk.runs} replays -> {path}"
        )
        lines.extend(_format_violations(shrunk.violations))
        # The flight recording (the run's last rows before the verdict)
        # rides next to the shrunk schedule.
        if result.flight is not None:
            flight_path = os.path.join(
                args.artifact_dir,
                f"flight-seed{spec.seed}-run{index}.json",
            )
            write_json(result.flight, flight_path)
            lines.append(f"  flight recording -> {flight_path}")
    skipped = len(failing) - min(len(failing), args.max_artifacts)
    if skipped:
        lines.append(f"({skipped} further failing runs not shrunk; "
                     f"raise --max-artifacts to export them)")
    lines.extend(slo_lines)
    return "\n".join(lines), 1


def _parse_shard(text: str) -> tuple[int, int]:
    """``I/N`` -> (index, count); bounds are validated by select_shard."""
    try:
        index_text, count_text = text.split("/")
        return int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(
            f"--shard must be I/N (e.g. 0/2), got {text!r}"
        ) from None


def _run_matrix(args: argparse.Namespace) -> tuple[str, int]:
    """Scenario-matrix actions: expand/diff a lattice, or run its cells."""
    from repro.scenario import (
        diff_cells,
        load_cells,
        run_cells,
        select_shard,
        write_lattice,
    )
    from repro.util.tables import format_table

    if args.action == "diff":
        if len(args.paths) != 2:
            raise SystemExit("repro matrix diff takes exactly two PATHs")
        try:
            old = load_cells(args.paths[0])
            new = load_cells(args.paths[1])
        except ValueError as error:
            raise SystemExit(str(error)) from None
        added, removed, changed = diff_cells(old, new)
        lines = [
            f"repro matrix diff — {args.paths[0]} ({len(old)} cells) vs "
            f"{args.paths[1]} ({len(new)} cells)"
        ]
        for title, names in (("added", added), ("removed", removed),
                             ("changed", changed)):
            if names:
                lines.append(f"{title} ({len(names)}):")
                lines.extend(f"  {name}" for name in names)
        if not (added or removed or changed):
            lines.append("lattices are identical")
            return "\n".join(lines), 0
        return "\n".join(lines), 1

    if len(args.paths) != 1:
        raise SystemExit(f"repro matrix {args.action} takes exactly "
                         f"one PATH")
    path = args.paths[0]
    try:
        cells = load_cells(path)
    except ValueError as error:
        raise SystemExit(str(error)) from None

    if args.action == "expand":
        if args.validate:
            return (
                f"repro matrix expand — {path}: "
                f"{len(cells)} cell(s) valid", 0,
            )
        if args.out:
            write_lattice(args.out, cells)
            return (
                f"repro matrix expand — {path}: {len(cells)} cell(s) "
                f"-> {args.out}", 0,
            )
        table = format_table(
            ["cell", "kind", "seed"],
            [[cell.name, cell.workload.kind, str(cell.seed)]
             for cell in cells],
            title=f"Scenario lattice — {path} ({len(cells)} cells)",
        )
        return table, 0

    # action == "run"
    total = len(cells)
    shard_note = ""
    if args.shard:
        index, count = _parse_shard(args.shard)
        try:
            cells = select_shard(cells, index, count)
        except ValueError as error:
            raise SystemExit(str(error)) from None
        shard_note = f", shard {index}/{count}: {len(cells)} cell(s)"
    results = run_cells(cells, workers=args.workers)
    if args.results_out:
        with open(args.results_out, "w") as handle:
            for result in results:
                handle.write(result.to_json() + "\n")
    failing = [result for result in results if not result.ok]
    lines = [
        f"repro matrix run — {path}: {total} cell(s){shard_note}; "
        f"{len(results) - len(failing)} ok, {len(failing)} failing"
    ]
    rows = []
    for result in results:
        measures = " ".join(
            f"{key}={value:.4f}"
            for key, value in sorted(result.measures.items())
        )
        rows.append([
            result.spec.name,
            "ok" if result.ok
            else f"FAIL({len(result.violations)}v/"
                 f"{len(result.slo_breaches)}s)",
            measures or "-",
        ])
    lines.append(format_table(["cell", "status", "measures"], rows))
    for result in failing:
        lines.append(f"{result.spec.name}:")
        lines.extend(f"  {finding}" for finding in result.violations)
        lines.extend(f"  SLO breach: {finding}"
                     for finding in result.slo_breaches)
    # Flight recordings of failing chaos runs are the diagnosis
    # artifacts CI uploads.
    if args.artifact_dir:
        dumped = 0
        os.makedirs(args.artifact_dir, exist_ok=True)
        for result in failing:
            safe = result.spec.name.replace("/", "__")
            for index, flight in enumerate(result.flights):
                flight_path = os.path.join(
                    args.artifact_dir, f"{safe}-flight{index}.json")
                write_json(flight, flight_path)
                dumped += 1
            result_path = os.path.join(args.artifact_dir,
                                       f"{safe}-result.json")
            write_json(result.to_dict(), result_path)
        if failing:
            lines.append(
                f"{len(failing)} failing cell dump(s) + {dumped} flight "
                f"recording(s) -> {args.artifact_dir}"
            )
    return "\n".join(lines), (1 if failing else 0)


def _run_obs(args: argparse.Namespace) -> tuple[str, int]:
    """Offline observability actions — no simulation is run."""
    import json

    if args.action == "episodes":
        from repro.obs import EpisodeReconstructor

        if not args.input:
            raise SystemExit("repro obs episodes requires --input "
                             "(a --trace-out repro.trace/2 JSONL)")
        try:
            reconstructor = EpisodeReconstructor().add_file(args.input)
        except ValueError as error:
            raise SystemExit(f"{args.input}: {error}") from None
        summary = reconstructor.summary()
        lines = [
            f"repro obs episodes — {args.input}: "
            f"{summary['episodes']} episode(s); "
            f"{summary['recovered']} recovered, "
            f"{summary['unrecoverable']} unrecoverable, "
            f"{summary['unresolved']} unresolved"
            + (f"; worst disruption {summary['max_total']:.3f}"
               if summary["max_total"] is not None else ""),
            "",
            reconstructor.format_table(),
        ]
        if args.episodes_out:
            with open(args.episodes_out, "w") as handle:
                for episode in reconstructor.episodes:
                    handle.write(
                        json.dumps(episode.to_dict(), sort_keys=True) + "\n"
                    )
            lines.append(f"episodes written to {args.episodes_out}")
        violations = reconstructor.violations()
        if violations:
            lines.append(
                f"Γ BOUND VIOLATED by {len(violations)} episode(s): "
                + ", ".join(
                    f"episode {e.span_id} "
                    f"({e.gamma:.3f} > {e.bound:.3f})"
                    for e in violations
                )
            )
            return "\n".join(lines), 1
        if summary["recovered"]:
            lines.append("Γ bound respected by every recovered episode")
        return "\n".join(lines), 0

    # action == "slo"
    from repro.obs import SLOEngine, format_results

    if not args.input:
        raise SystemExit("repro obs slo requires --input "
                         "(a repro.metrics/1 snapshot)")
    if not args.slo:
        raise SystemExit("repro obs slo requires at least one "
                         "--slo SPEC")
    with open(args.input) as handle:
        snapshot = json.load(handle)
    constants = {} if args.gamma is None else {"gamma": args.gamma}
    results = SLOEngine(args.slo).evaluate(snapshot, constants=constants)
    breached = any(result.ok is False for result in results)
    return (
        format_results(results, title=f"SLOs — {args.input}"),
        1 if breached else 0,
    )


def run_experiment(args: argparse.Namespace):
    """Run one table/figure command and return its result object —
    ``format()`` of which is what the command prints — or ``None`` for
    the commands that are not one experiment."""
    experiment = EXPERIMENTS.get(args.command)
    if experiment is None:
        return None
    module, _, name = experiment.runner.partition(":")
    runner = getattr(importlib.import_module(module), name)
    # The full grid is the runner's TopologySpec.
    if experiment.grid == tuple(GRID):
        return runner(_config(args), **_keywords(args, experiment.options))
    return runner(**_keywords(args, (*experiment.grid, *experiment.options)))


def _check_grid(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> None:
    """A grid a topology the command builds rejects (the torus needs 2x2,
    the mesh two nodes, a 3-regular graph an even node count) is a usage
    error naming the flags, raised before anything is established.  A
    command without ``--topology`` picks its own networks: its runner's
    module lists them as ``topologies(rows, cols)``."""
    try:
        if hasattr(args, "topology"):
            specs = [_config(args)]
        else:
            module, _, _ = EXPERIMENTS[args.command].runner.partition(":")
            specs = importlib.import_module(module).topologies(
                args.rows, args.cols).values()
        for spec in specs:
            spec.build()
    except ValueError as error:
        parser.error(f"--rows/--cols: {error}")


def _run_command(args: argparse.Namespace) -> "str | tuple[str, int]":
    result = run_experiment(args)
    if result is not None:
        return result.format()
    if args.command == "report":
        from repro.experiments.report import generate_report

        result = generate_report(
            _config(args), double_node_samples=args.double_samples,
            workers=args.workers,
        )
        target = result.save(args.output)
        return (
            f"wrote {target} ({len(result.sections)} sections, "
            f"{len(result.errors)} failures)"
        )
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "churn":
        return _run_churn(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "matrix":
        return _run_matrix(args)
    if args.command == "obs":
        return _run_obs(args)
    raise AssertionError(f"unhandled command {args.command!r}")


#: Namespace fields naming a file this process writes once the run is
#: over (``serve --snapshot-out`` is written by the server process and
#: answered over the wire; ``--artifact-dir`` creates its directory).
_OUTPUT_FLAGS = ("metrics_out", "trace_out", "stats_out", "results_out",
                 "episodes_out", "out", "output")


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # A path that cannot be written fails here, not after the whole run.
    for dest in _OUTPUT_FLAGS:
        path = getattr(args, dest, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            parser.error(f"--{dest.replace('_', '-')} {path}: "
                         f"directory does not exist")
    if hasattr(args, "rows"):
        _check_grid(parser, args)
    # Each invocation observes itself through a fresh session registry
    # (and, with --trace-out, a shared trace sink), so exported counters
    # reflect exactly this run and are reproducible run-to-run.
    registry = MetricsRegistry()
    sink = TraceLog() if args.trace_out else None
    with obs_session(registry, sink):
        output = _run_command(args)
    # Commands that gate CI (chaos) return (text, exit_code); the rest
    # return plain text and exit 0.
    code = 0
    if isinstance(output, tuple):
        output, code = output
    # The files first: a reader that stops early (``| head``) must not
    # cost them.
    if args.metrics_out:
        write_metrics(registry, args.metrics_out, command=args.command)
    if sink is not None:
        write_trace(sink, args.trace_out)
    try:
        print(output, flush=True)
    except BrokenPipeError:
        # Quiet the interpreter's own flush at exit, and exit as a
        # pipeline stage killed by SIGPIPE does (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
