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
:data:`repro.experiments.EXPERIMENTS`, the other seven the rows of
:data:`COMMANDS`: a row names the flags its command takes and their
defaults, and :data:`repro.experiments.FLAGS` declares each flag once.
Each table command prints the regenerated table (same rows as the paper)
to stdout.  The default 8x8 scale takes seconds per table; ``--rows 4
--cols 4`` gives a faster small-scale pass.

Every subcommand also accepts ``--metrics-out PATH`` (write the run's
``repro.metrics/1`` snapshot as JSON) and ``--trace-out PATH`` (write the
run's trace log as ``repro.trace/2`` JSONL).  The four commands whose
tasks were measured to gain from a process pool — ``matrix``, ``chaos``,
``reliability``, ``report`` — accept ``--workers N`` (``auto`` = one per
CPU; results are identical for any worker count); see the
Observability and Parallel evaluation sections of docs/architecture.md.

Exit codes: 0 the command ran clean; 1 it ran and found something (an
invariant violation, an SLO breach, a Γ violation, a lattice diff); 2 it
could not run as asked (a bad flag, a missing or malformed input file, a
flag its action requires, a server nobody answers), reported through the
parser as a usage line and a message.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from repro.experiments import EXPERIMENTS, FLAGS, GRID, readable
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


class UsageError(Exception):
    """The command cannot run as asked, and only running it could tell (a
    malformed input file, a component the topology lacks, a server nobody
    answers): :func:`main` reports it through the command's parser — a
    usage line, the message, exit 2."""


def _add_flag(parser: argparse.ArgumentParser, flag: str, default) -> None:
    """Put one declared flag (:data:`repro.experiments.FLAGS`) on
    ``parser`` with the command's default: its spelling, its validated
    type, its help and how it parses are written there, once."""
    declared = FLAGS[flag]
    if declared.type is bool:
        options = {"action": "store_true"}
    else:
        options = {"choices" if isinstance(declared.type, tuple) else "type":
                   declared.type}
        if declared.metavar:
            options["metavar"] = declared.metavar
        if declared.repeatable:
            options["action"] = "append"
            default = list(default)
    shown = not (default is None or default is False or default in ((), []))
    parser.add_argument(
        flag, default=default, **options,
        help=declared.help + (" (default %(default)s)" if shown else ""),
    )


def _keywords(args: argparse.Namespace, flags) -> dict:
    """The declared flags' values, by the keyword each feeds."""
    return {FLAGS[flag].keyword: getattr(args, flag[2:].replace("-", "_"))
            for flag in flags}


def _config(args: argparse.Namespace) -> TopologySpec:
    """The network the grid flags describe."""
    from repro.network.spec import TopologySpec

    return TopologySpec(**_keywords(args, GRID))


def _cell(args: argparse.Namespace, kind: str):
    """The one-cell scenario a run command drives: its ``--spec`` file's,
    or the one its flags describe (each flag feeds the spec field it is
    keyed by)."""
    import dataclasses

    from repro.scenario import ProtocolSpec, ScenarioSpec, WorkloadSpec, load_cells

    if args.spec:
        try:
            cells = load_cells(args.spec)
        except ValueError as error:
            raise UsageError(str(error)) from None
        if len(cells) != 1:
            raise UsageError(
                f"{args.spec}: expected exactly one scenario cell, got "
                f"{len(cells)} (run lattices via 'repro matrix run')")
        if cells[0].workload.kind != kind:
            raise UsageError(
                f"{args.spec}: expected a {kind!r} workload, got "
                f"{cells[0].workload.kind!r}")
        return cells[0]
    values = _keywords(args, COMMANDS[args.command].flags)

    def fields_of(spec_type) -> dict:
        return {field.name: values[field.name]
                for field in dataclasses.fields(spec_type)
                if field.name in values}

    return ScenarioSpec(
        name=f"cli/{kind}/{args.topology}{args.rows}x{args.cols}",
        topology=_config(args),
        workload=WorkloadSpec(kind=kind, **fields_of(WorkloadSpec)),
        protocol=ProtocolSpec(**fields_of(ProtocolSpec)),
        seed=args.seed,
    )


def _run_report(args: argparse.Namespace) -> tuple[str, int]:
    from repro.experiments.report import generate_report

    result = generate_report(
        _config(args), double_node_samples=args.double_samples,
        workers=args.workers,
    )
    target = result.save(args.output)
    return (f"wrote {target} ({len(result.sections)} sections, "
            f"{len(result.errors)} failures)"), 0


def _run_stats(args: argparse.Namespace) -> tuple[str, int]:
    """Re-run one failure scenario end to end and summarise the metrics."""
    from repro.channels.qos import FaultToleranceQoS
    from repro.experiments.setup import load_network
    from repro.faults.models import FailureScenario
    from repro.protocol import ProtocolConfig, ProtocolSimulation

    qos = FaultToleranceQoS(num_backups=args.backups, mux_degree=args.mux)
    network, _ = load_network(_config(args), qos)
    links = sorted(network.topology.links(), key=str)[:args.failures]
    simulation = ProtocolSimulation(network, ProtocolConfig())
    simulation.inject_scenario(FailureScenario.of_links(links), at=1.0)
    # Explicit timed injections on top of (or instead of, with
    # --failures 0) the default scenario.
    try:
        for time, component in args.fail_at:
            simulation.fail(component, at=time)
        for time, component in args.repair_at:
            simulation.repair(component, at=time)
    except ValueError as error:  # a component the topology lacks
        raise UsageError(f"--fail-at/--repair-at: {error}") from None
    simulation.run(until=args.horizon)
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
    ), 0


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
    from repro.scenario import churn_config_from_spec
    from repro.workload import ChurnEngine

    spec = _cell(args, "churn")
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
        spec = _cell(args, "churn")
        server = AdmissionServer(spec)
        restored = 0
        if args.restore:
            try:
                restored = server.restore(args.restore)
            except ValueError as error:
                raise UsageError(f"{args.restore}: {error}") from None
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

    client = ServeClient(args.connect)
    try:
        if args.action == "churn":
            # A churn client rides through a server still coming up.
            network = RemoteNetwork(client, retry_window=5.0)
        else:
            hello = client.connect()
    except OSError as error:
        raise UsageError(f"--connect {args.connect}: {error}") from None

    if args.action == "churn":
        import dataclasses

        from repro.scenario import churn_config_from_spec
        from repro.workload import ChurnEngine

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

    try:
        if args.action == "ping":
            return (
                f"repro serve — {args.connect} alive ({hello['schema']}, "
                f"{hello['connections']} connection(s))"
            ), 0
        if args.action == "snapshot":
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
            raise UsageError(f"{args.replay}: {error}") from None
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

    from repro.scenario import build_loaded_network

    spec = _cell(args, "chaos")
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
    # Campaign-level SLOs: judged the way a matrix cell judges its own,
    # against the session registry (every per-run registry is folded into
    # it by the campaign's ordered merge).
    slo_lines: list[str] = []
    slo_breaches = []
    if args.slo:
        import dataclasses

        from repro.obs import format_results
        from repro.scenario import slo_results

        gamma, outcomes = slo_results(
            dataclasses.replace(spec, slos=tuple(args.slo)), network,
            get_registry().snapshot())
        slo_breaches = [r for r in outcomes if r.ok is False]
        slo_lines = ["", format_results(
            outcomes, title=f"Campaign SLOs (gamma = {gamma:g})")]
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

    try:
        lattices = [load_cells(path) for path in args.paths]
    except ValueError as error:
        raise UsageError(str(error)) from None

    if args.action == "diff":
        old, new = lattices
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

    [path], [cells] = args.paths, lattices
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
        index, count = args.shard
        cells = select_shard(cells, index, count)
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

        try:
            reconstructor = EpisodeReconstructor().add_file(args.input)
        except ValueError as error:
            raise UsageError(f"{args.input}: {error}") from None
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
    from repro.obs import SNAPSHOT_SCHEMA, SLOEngine, format_results

    try:
        with open(args.input) as handle:
            snapshot = json.load(handle)
    except ValueError as error:
        raise UsageError(f"{args.input}: {error}") from None
    if not isinstance(snapshot, dict) or snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise UsageError(f"{args.input}: not a {SNAPSHOT_SCHEMA} snapshot")
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


class Command(NamedTuple):
    help: str
    run: Callable  # (args) -> (stdout text, exit code)
    flags: dict  # flag -> default


#: The commands that are not one experiment: the flags each takes with
#: their defaults, as an :data:`~repro.experiments.EXPERIMENTS` row names
#: them, and what runs it.
COMMANDS = {
    "report": Command(
        "run the full suite and write a markdown report", _run_report,
        {**GRID, "--double-samples": 100, "--output": "reproduction-report.md",
         "--workers": None}),
    "stats": Command(
        "re-run one failure scenario and print the run's metrics summary",
        _run_stats,
        {**GRID, "--mux": 3, "--backups": 1, "--failures": 1,
         "--horizon": 200.0, "--fail-at": [], "--repair-at": []}),
    "churn": Command(
        "drive the network through a seeded arrival/departure churn process "
        "with epoch invariant audits", _run_churn,
        {**GRID, "--arrival-rate": 50.0, "--holding-time": 10.0,
         "--duration": 100.0, "--seed": 0, "--backups": 1, "--mux": 3,
         "--bandwidth": 1.0, "--batch-window": 0.05, "--epoch-interval": 10.0,
         "--eval-scenarios": 32, "--pairs": 64, "--stats-out": None,
         "--slo": [], "--spec": None}),
    "chaos": Command(
        "run a seeded chaos campaign with the protocol invariant auditor; "
        "shrink and export any failures", _run_chaos,
        {**GRID, "--rows": 4, "--cols": 4, "--seed": 0, "--campaign-size": 25,
         "--profiles": (), "--backups": 2, "--mux": 1, "--connections": 6,
         "--artifact-dir": ".", "--max-artifacts": 5, "--replay": None,
         "--slo": [], "--spec": None, "--workers": None}),
    "matrix": Command(
        "expand, diff, and run declarative scenario lattices "
        "(repro.scenario/1 / repro.matrix/1)", _run_matrix,
        {"--shard": None, "--validate": False, "--out": None,
         "--results-out": None, "--artifact-dir": None, "--workers": None}),
    "obs": Command(
        "offline observability: reconstruct recovery episodes from a trace "
        "log, evaluate SLOs against a metrics snapshot", _run_obs,
        {"--input": None, "--episodes-out": None, "--slo": [],
         "--gamma": None}),
    "serve": Command(
        "always-on admission service: run the long-lived server (start) or "
        "drive one remotely (churn/snapshot/ping/shutdown)", _run_serve,
        {"--spec": None, "--bind": None, "--connect": None, "--restore": None,
         "--snapshot-out": None, "--stats-out": None, "--until": None,
         "--slo": []}),
}

#: Observability flags are global: every subcommand exports the same way
#: (the whole run records into one session registry/trace sink).
_EVERY_COMMAND = {"--metrics-out": None, "--trace-out": None}

#: (command, action) -> the flags that action cannot run without.
_REQUIRED = {
    ("serve", "start"): ("--spec", "--bind"),
    ("serve", "churn"): ("--connect",),
    ("serve", "snapshot"): ("--connect", "--snapshot-out"),
    ("serve", "ping"): ("--connect",),
    ("serve", "shutdown"): ("--connect",),
    ("obs", "episodes"): ("--input",),
    ("obs", "slo"): ("--input", "--slo"),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser: one subcommand per row of
    :data:`~repro.experiments.EXPERIMENTS` and of :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of Han & Shin (SIGCOMM 1997).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    rows = {name: (experiment.help,
                   {**{flag: GRID[flag] for flag in experiment.grid},
                    **experiment.options})
            for name, experiment in EXPERIMENTS.items()}
    rows.update((name, (command.help, command.flags))
                for name, command in COMMANDS.items())
    for name, (text, flags) in rows.items():
        sub = subparsers.add_parser(name, help=text)
        for flag, default in {**flags, **_EVERY_COMMAND}.items():
            _add_flag(sub, flag, default)

    matrix, obs, serve = (subparsers.choices[name]
                          for name in ("matrix", "obs", "serve"))
    matrix.add_argument(
        "action", choices=("run", "expand", "diff"),
        help="run: execute every cell of a lattice through the churn/chaos/"
             "evaluator engines; expand: print (or write) the cell lattice "
             "a spec file describes; diff: compare two lattices by cell name")
    matrix.add_argument(
        "paths", nargs="+", metavar="PATH", type=readable,
        help="spec file(s): a repro.scenario/1 JSONL lattice, a "
             "repro.matrix/1 JSON matrix, or a single repro.scenario/1 JSON "
             "spec (diff takes exactly two)")
    obs.add_argument(
        "action", choices=("episodes", "slo"),
        help="episodes: fold a --trace-out JSONL into per-failure recovery "
             "episodes with the delay breakdown and Γ-bound verdicts; slo: "
             "evaluate --slo targets against a repro.metrics/1 snapshot")
    serve.add_argument(
        "action", choices=("start", "churn", "snapshot", "ping", "shutdown"),
        help="start: serve a warm network on --bind; churn: run the churn "
             "engine as a remote load generator against --connect; "
             "snapshot: ask the server to write a repro.snapshot/1 file; "
             "ping/shutdown: liveness check / graceful stop")
    return parser


def _check_usage(command: argparse.ArgumentParser,
                 args: argparse.Namespace) -> None:
    """What no one flag's type can see is a usage error too, raised before
    anything is built: an action's required flags, the number of PATHs,
    and a grid a topology the command builds rejects (the torus needs 2x2,
    the mesh two nodes, a 3-regular graph an even node count).  A command
    without ``--topology`` picks its own networks: its runner's module
    lists them as ``topologies(rows, cols)``."""
    action = getattr(args, "action", None)
    missing = [flag for flag in _REQUIRED.get((args.command, action), ())
               if not getattr(args, flag[2:].replace("-", "_"))]
    if missing:
        command.error(f"{action} requires {' and '.join(missing)}")
    if args.command == "matrix":
        wanted = 2 if action == "diff" else 1
        if len(args.paths) != wanted:
            command.error(f"{action} takes exactly {wanted} PATH(s), got "
                          f"{len(args.paths)}")
    if not hasattr(args, "rows"):
        return
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
        command.error(f"--rows/--cols: {error}")


def _run_command(args: argparse.Namespace) -> tuple[str, int]:
    """The command's stdout text and exit code."""
    command = COMMANDS.get(args.command)
    if command is not None:
        return command.run(args)
    return run_experiment(args).format(), 0


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code (0 clean, 1 found
    something, 2 could not run as asked)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = parser._subparsers._group_actions[0].choices[args.command]
    _check_usage(command, args)
    # Each invocation observes itself through a fresh session registry
    # (and, with --trace-out, a shared trace sink), so exported counters
    # reflect exactly this run and are reproducible run-to-run.
    registry = MetricsRegistry()
    sink = TraceLog() if args.trace_out else None
    try:
        with obs_session(registry, sink):
            output, code = _run_command(args)
    except UsageError as error:
        command.error(str(error))
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
