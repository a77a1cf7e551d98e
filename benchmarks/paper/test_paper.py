"""Paper fidelity at paper scale: EXPERIMENTS.md is the golden.

    PYTHONPATH=src python -m pytest benchmarks/paper -q

Outside the tier-1 ``testpaths`` (it takes under two minutes); CI runs it
as the ``paper-fidelity`` job.  Every experiment is regenerated **once**, at
the paper's 8x8 scale, through the same ``python -m repro ...`` command
EXPERIMENTS.md names for it, and three things are held to that one run:

* the paper's *shapes* — guarantee cells, monotonicities, crossovers, the
  Γ bound — asserted on the result objects;
* every measured cell of an EXPERIMENTS.md table, which must equal what
  its command prints (``test_documented_cells_are_what_the_commands_print``
  parses the document; there is no second copy of the numbers);
* the numbers EXPERIMENTS.md quotes in prose, through ``quoted``.

The ratio test at the bottom measures both sides in this process, so it
needs no baseline and cannot go stale.
"""

from __future__ import annotations

import functools
import json
import random
import re
import shlex
import time
from collections import defaultdict
from pathlib import Path

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.baselines import ReactiveOutcome, evaluate_reactive
from repro.cli import build_parser, main, run_experiment
from repro.core.multiplexing import LinkMuxState
from repro.core.overlap import ComponentSpace, OverlapPolicy
from repro.experiments.setup import FAILURE_MODELS
from repro.experiments.workloads import all_pairs, establish_workload
from repro.faults import FailureScenario, all_single_link_failures
from repro.network.components import LinkId
from repro.protocol import ProtocolConfig, simulate_scenario
from repro.recovery import RecoveryEvaluator
from repro.routing.paths import Path as Route

LINK, NODE = FAILURE_MODELS[:2]


@pytest.fixture(scope="module")
def regenerate():
    """``regenerate(command)`` -> the result object of that ``python -m
    repro ...`` command, computed on first use and shared by every test."""

    @functools.cache
    def run(command: str):
        argv = shlex.split(command)
        assert argv[:3] == ["python", "-m", "repro"], command
        result = run_experiment(build_parser().parse_args(argv[3:]))
        assert result is not None, f"{command!r} prints no table"
        return result

    return run


@pytest.fixture(scope="module")
def quoted():
    """``quoted(fragment)`` asserts EXPERIMENTS.md says ``fragment``: prose
    has no cells to parse, so a test formats the sentence fragment from
    the numbers it regenerated and the document must contain it."""
    prose = " ".join(EXPERIMENTS_MD.read_text().split())

    def check(fragment: str) -> None:
        assert fragment in prose, f"EXPERIMENTS.md does not say {fragment!r}"

    return check


# ----------------------------------------------------------------------
# EXPERIMENTS.md tables against what their commands print
# ----------------------------------------------------------------------
EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
COMMAND = re.compile(r"`(python -m repro[^`]*)`")


def documented_tables(text: str):
    """Yield ``(name, command, header, rows)`` per markdown table: the
    headings above it, the command its heading names (``None`` when the
    rows carry their own) and its cells with the bold markers dropped."""
    section = name = ""
    command = None
    table: list[list[str]] = []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            table.append([cell.strip().replace("**", "")
                          for cell in line.strip()[1:-1].split("|")])
            continue
        if table:
            header, _rule, *rows = table
            yield name, command, header, rows
            table = []
        if line.startswith("#"):
            title = line.lstrip("# ").split("(`")[0].strip()
            if line.startswith("## "):
                section = name = title
            else:
                name = f"{section} / {title}"
            found = COMMAND.search(line)
            command = found.group(1) if found else None


def printed_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the (first) ``format_table`` rendering in
    ``text``; trailing notes are not rows."""
    lines = text.splitlines()
    rule = next(index for index, line in enumerate(lines)
                if "-+-" in line and set(line) <= {"-", "+"})
    cells = [[cell.strip() for cell in line.split(" | ")]
             for line in lines[rule - 1:] if " | " in line]
    return cells[0], cells[1:]


def documented_vs_printed(header, rows, command, regenerate):
    """Yield ``(row, column, documented, printed)`` per measured cell of
    one documented table (``printed`` is ``None`` when the command prints
    no such row or column)."""
    if header[1] == "command":
        # Figure 9: a command per row; its final checkpoint, starred when
        # the command heads the curve (N/A).
        for label, row_command, *cells in rows:
            columns, printed_rows = printed_table(
                regenerate(row_command.strip("`")).format())
            final = dict(zip(columns, printed_rows[-1]))
            for column, documented in zip(header[2:], cells):
                printed = final.get(f"spare {column}")
                if printed and f"load {column} (N/A)" in columns:
                    printed += "*"
                yield label, column, documented, printed
        return
    columns, printed_rows = printed_table(regenerate(command).format())
    printed = {row[0]: dict(zip(columns, row)) for row in printed_rows}
    if header[1] == "":
        # Tables 1-3: a paper row, then the **measured** row beneath it.
        label = None
        for first, kind, *cells in rows:
            label = first or label
            if kind == "measured":
                for column, documented in zip(header[2:], cells):
                    if documented:
                        yield (label, column, documented,
                               printed.get(label, {}).get(column))
        return
    # The command's own table (ablations): every cell is measured.
    for label, *cells in rows:
        for column, documented in zip(header[1:], cells):
            yield label, column, documented, printed.get(label, {}).get(column)


def test_documented_cells_are_what_the_commands_print(regenerate):
    checked = 0
    wrong = []
    for name, command, header, rows in documented_tables(
            EXPERIMENTS_MD.read_text()):
        assert command or header[1] == "command", (
            f"{name}: no `python -m repro ...` command regenerates this table")
        for row, column, documented, printed in documented_vs_printed(
                header, rows, command, regenerate):
            checked += 1
            if documented != printed:
                wrong.append(f"{name}: row {row!r}, column {column!r}: "
                             f"documented {documented!r}, printed {printed!r}")
    assert not wrong, "EXPERIMENTS.md is stale:\n" + "\n".join(wrong)
    # Tables 1(a-c) 48, 2(a-c) 39, 3(a-b) 24, Figure 9 15, ablations 18:
    # a parser that silently skips a table must not pass.
    assert checked >= 144, checked


# ----------------------------------------------------------------------
# Table 1: R_fast with uniform multiplexing degrees
# ----------------------------------------------------------------------
def test_table1a_torus_single_backup(regenerate):
    result = regenerate("python -m repro table1")
    # mux=1 covers every single failure, mux=3 every single link failure.
    assert result.r_fast[LINK][1] == 1.0
    assert result.r_fast[NODE][1] == 1.0
    assert result.r_fast[LINK][3] == 1.0
    # Spare and R_fast both fall with the degree.
    spares = [result.spare[d] for d in result.mux_degrees]
    assert spares == sorted(spares, reverse=True)
    for model in FAILURE_MODELS:
        values = [result.r_fast[model][d] for d in result.mux_degrees]
        assert values == sorted(values, reverse=True)


def test_table1b_torus_double_backups(regenerate, quoted):
    result = regenerate("python -m repro table1 --backups 2")
    single = regenerate("python -m repro table1")
    # The paper's headline comparison: double backups at mux=6 match a
    # single backup at mux=3 on single-link coverage with less spare.
    assert result.spare[6] < single.spare[3]
    assert result.r_fast[LINK][6] >= single.r_fast[LINK][3] - 0.05
    quoted(f"({result.rejected[1]} of 4032 connections, "
           f"{result.rejected[1] / 4032:.1%}, infeasible")
    quoted(f"torus double-backup mux=3 ({result.rejected[3]} connections)")


def test_table1c_mesh_single_backup(regenerate, quoted):
    result = regenerate("python -m repro table1 --topology mesh")
    assert result.r_fast[LINK][1] == 1.0
    assert result.r_fast[LINK][3] == 1.0
    # Mesh spare overhead exceeds the torus at equal degree (Section 7.1).
    assert result.spare[5] > regenerate("python -m repro table1").spare[5]
    quoted(f"({max(result.rejected.values())} of 4032 connections are pinched")


# ----------------------------------------------------------------------
# Table 2: per-connection fault-tolerance control (mixed mux degrees)
# ----------------------------------------------------------------------
def test_table2a_torus_single_backup(regenerate):
    result = regenerate("python -m repro table2")
    # The mux=1 class keeps its guarantee inside the mix; per-class R_fast
    # is ordered by degree for the single-failure models.
    assert result.r_fast[LINK][1] == 1.0
    assert result.r_fast[NODE][1] == 1.0
    for model in (LINK, NODE):
        values = [result.r_fast[model][d] for d in result.classes]
        assert values == sorted(values, reverse=True)
    # Mixed-degree overhead lands between the two uniform extremes.
    uniform = regenerate("python -m repro table1")
    assert uniform.spare[6] < result.spare < uniform.spare[1]


def test_table2b_torus_double_backups(regenerate):
    result = regenerate("python -m repro table2 --backups 2")
    # Double backups lift every class to (near-)full single-link coverage.
    assert result.complete
    for degree in result.classes:
        assert result.r_fast[LINK][degree] >= 0.95


def test_table2c_mesh_single_backup(regenerate):
    result = regenerate("python -m repro table2 --topology mesh")
    assert result.r_fast[LINK][1] == 1.0


# ----------------------------------------------------------------------
# Table 3: brute-force multiplexing (Section 7.4)
# ----------------------------------------------------------------------
def test_table3a_torus(regenerate):
    brute = regenerate("python -m repro table3")
    proposed = regenerate("python -m repro table1")
    # Homogeneous torus: brute-force is competitive — within ~12 points of
    # the proposed scheme everywhere (the paper calls the gap "marginal").
    for model in FAILURE_MODELS:
        for degree in brute.mux_degrees:
            gap = proposed.r_fast[model][degree] - brute.r_fast[model][degree]
            assert abs(gap) < 0.15, (model, degree, gap)


def test_table3b_mesh(regenerate):
    brute = regenerate("python -m repro table3 --topology mesh")
    proposed = regenerate("python -m repro table1 --topology mesh")
    # Inhomogeneous demand: the proposed scheme wins clearly at the low
    # degrees, where its targeted placement matters most.
    assert proposed.r_fast[LINK][1] == 1.0
    assert brute.r_fast[LINK][1] < 1.0
    assert proposed.r_fast[LINK][3] > brute.r_fast[LINK][3]


# ----------------------------------------------------------------------
# Figure 9: average spare-bandwidth reservation vs. network load
# ----------------------------------------------------------------------
def test_figure9a_torus_single_backup(regenerate):
    result = regenerate("python -m repro figure9")
    # Multiplexing monotonically reduces spare at equal load.
    spares = [result.final_spare(degree) for degree in sorted(result.curves)]
    assert spares == sorted(spares, reverse=True)
    # One row per checkpoint: the final state is not sampled twice.
    assert all(len(curve) == 8 for curve in result.curves.values())


def test_figure9b_torus_double_backups(regenerate, quoted):
    result = regenerate("python -m repro figure9 --backups 2")
    single = regenerate("python -m repro figure9")
    # With high degrees the second backup is nearly free: double-backup
    # spare at mux=6 lands well below single-backup mux=0.
    assert result.final_spare(6) < single.final_spare(0)
    quoted(f"the curve ends at {result.curves[0][-1][0]:.2%} / "
           f"{result.curves[1][-1][0]:.2%} load")


def test_figure9c_mesh_single_backup(regenerate):
    mesh = regenerate("python -m repro figure9 --topology mesh")
    torus_result = regenerate("python -m repro figure9")
    # Mesh multiplexing saves less (relatively) than the torus (Sec. 7.1).
    mesh_saving = 1 - mesh.final_spare(6) / mesh.final_spare(0)
    torus_saving = 1 - torus_result.final_spare(6) / torus_result.final_spare(0)
    assert mesh_saving < torus_saving


# ----------------------------------------------------------------------
# Design-choice ablations (DESIGN.md's modelling decisions)
# ----------------------------------------------------------------------
def test_design_choice_ablations(regenerate):
    result = regenerate("python -m repro ablations")
    baseline = result.row("baseline (priority order)")
    # With UNIFORM degrees every connection has the same priority, so the
    # activation orders only differ by tie-breaking noise.
    for variant in ("establishment order", "random order"):
        assert abs(result.row(variant).r_fast_link
                   - baseline.r_fast_link) < 0.01
        assert abs(result.row(variant).r_fast_node
                   - baseline.r_fast_node) < 0.02
    # Free capacity at 33% load hides most multiplexing failures — which
    # is why the paper's strict spare-only accounting matters.
    assert (result.row("free-capacity fallback").r_fast_link
            >= baseline.r_fast_link)
    # The λ-boundary (exact S) variant barely moves either number.
    exact = result.row("exact S comparison")
    assert abs(exact.spare - baseline.spare) < 0.05
    assert abs(exact.r_fast_link - baseline.r_fast_link) < 0.05
    # Endpoint counting is load-bearing: dropping it reclaims a lot of
    # spare but costs real coverage (same-endpoint primaries fail together
    # yet their backups get multiplexed).
    no_endpoints = result.row("endpoints not counted")
    assert no_endpoints.spare < baseline.spare
    assert no_endpoints.r_fast_link < baseline.r_fast_link


# ----------------------------------------------------------------------
# Section 5.3: measured recovery delay against the Γ bound
# ----------------------------------------------------------------------
def test_delay_within_bound_single_backup(regenerate):
    result = regenerate("python -m repro delay-bound --rows 6 --cols 6 "
                        "--backups 1 --connections 8")
    assert result.measurements
    assert result.violations == []
    # With one backup the disruption *is* the failure-reporting distance:
    # 0 next to the source, the bound itself next to the destination.
    for m in result.measurements:
        assert m.measured == pytest.approx(m.failed_link_index * result.d_max)


def test_delay_within_bound_double_backups(regenerate):
    result = regenerate("python -m repro delay-bound --rows 6 --cols 6 "
                        "--backups 2 --connections 8")
    assert result.violations == []
    # The b=2 bound is looser; measurements sit inside it.
    assert min(m.bound - m.measured for m in result.measurements
               if m.measured is not None) >= 0


def test_failure_near_source_recovers_faster(regenerate):
    result = regenerate("python -m repro delay-bound --rows 4 --cols 4 "
                        "--backups 1 --connections 6")
    by_connection = defaultdict(list)
    for m in result.measurements:
        if m.measured is not None:
            by_connection[m.connection_id].append(m)
    checked = 0
    for measurements in by_connection.values():
        measurements.sort(key=lambda m: m.failed_link_index)
        if len(measurements) >= 2:
            assert measurements[0].measured <= measurements[-1].measured
            checked += 1
    assert checked > 0


# ----------------------------------------------------------------------
# Section 5.2: RCC sizing — bounded control delay iff S_max suffices
# ----------------------------------------------------------------------
def test_rcc_sizing_rule(regenerate, quoted):
    result = regenerate("python -m repro rcc-sizing --rows 6 --cols 6")
    compliant = result.worst_delay[result.required_messages]
    undersized = result.worst_delay[2]
    assert compliant <= result.budget + 1e-9
    assert undersized > result.budget
    quoted(f"requires {result.required_messages} messages/frame")
    quoted(f"D_max ({compliant:.1f}); deliberately undersizing to 2 "
           f"messages/frame pushes it to {undersized:.1f}")


# ----------------------------------------------------------------------
# Sections 3.1/3.3: Markov vs combinatorial reliability, the P_r dial
# ----------------------------------------------------------------------
def test_reliability_models(regenerate, quoted):
    result = regenerate("python -m repro reliability --workers 1")
    # First-order agreement between the Fig. 3 CTMC and the combinatorial
    # client-interface model.
    for markov, combinatorial in result.model_comparison.values():
        assert abs(markov - combinatorial) < 1e-4
    markov, combinatorial = result.model_comparison[1e-3]
    quoted(f"|diff| ≤ {abs(markov - combinatorial):.1e} at λ=1e-3")
    # The dial: at equal backups, smaller degree -> higher worst-case P_r;
    # an extra backup -> higher P_r.  Overhead moves the other way.
    sweep = result.configuration_sweep
    assert sweep[(1, 1)][0] >= sweep[(1, 6)][0]
    assert sweep[(2, 6)][0] >= sweep[(1, 6)][0]
    assert sweep[(1, 1)][2] >= sweep[(1, 6)][2]


# ----------------------------------------------------------------------
# Figure 8: message loss during failure recovery
# ----------------------------------------------------------------------
def test_figure8_message_loss(regenerate):
    result = regenerate("python -m repro message-loss --rows 6 --cols 6 "
                        "--connections 6")
    assert result.measurements
    by_connection = defaultdict(list)
    for m in result.measurements:
        assert m.delivered + m.lost == m.sent
        if m.service_disruption is not None:
            # Every lost message was sent inside the failure-to-resumption
            # window plus the in-flight exposure.
            budget = result.message_rate * (
                m.service_disruption + 2 * (m.failed_link_index + 2)
            ) + 2
            assert m.lost <= budget, (m, budget)
        by_connection[m.connection_id].append(m)
    # Distance-from-source effect: the last link's failure costs at least
    # as many messages as the first link's.
    monotone_checked = 0
    for measurements in by_connection.values():
        measurements.sort(key=lambda m: m.failed_link_index)
        if len(measurements) >= 2 and all(
            m.service_disruption is not None for m in measurements
        ):
            assert measurements[0].lost <= measurements[-1].lost + 1
            monotone_checked += 1
    assert monotone_checked > 0


# ----------------------------------------------------------------------
# Prose claims
# ----------------------------------------------------------------------
def test_inhomogeneous_workloads_and_topologies(regenerate, quoted):
    cells = regenerate("python -m repro inhomogeneous").cells
    # The proposed scheme never loses to brute-force by more than noise,
    # and wins under at least one inhomogeneous condition.
    advantages = [cell.advantage for cell in cells.values()
                  if cell.advantage is not None]
    assert all(adv > -0.05 for adv in advantages)
    assert any(adv > 0.0 for adv in advantages)
    # The hotspot workload widens the gap relative to uniform on the mesh
    # (brute-force cannot follow the demand concentration).
    assert (cells[("mesh", "hotspot")].advantage
            >= cells[("mesh", "uniform")].advantage - 0.02)
    quoted(", ".join(
        f"{topology}/{workload} {100 * cells[topology, workload].advantage:+.1f}"
        for topology in ("torus", "mesh")
        for workload in ("uniform", "hotspot")
    ) + " points")


def test_multiplexing_efficiency_vs_scale(regenerate, quoted):
    result = regenerate("python -m repro scaling")
    points = [result.point(f"{s}x{s} torus") for s in (4, 6, 8)]
    # "The efficiency of backup multiplexing does not degrade as the
    # network scales up": the saving stays large at every size and the
    # multiplexable-pair fraction stays high.  (The stronger prose claim
    # — MORE effective in larger networks — does not reproduce under the
    # all-pairs workload; see EXPERIMENTS.md, deviation 5.)
    assert all(p.saving > 0.5 for p in points)
    fractions = [p.multiplexable_fraction for p in points]
    assert min(fractions) > 0.7
    assert max(fractions) - min(fractions) < 0.2
    # Connectivity: the degree-5 hypercube multiplexes better than the
    # under-4-degree mesh at a similar node count and load.
    cube = result.point("5-cube (degree 5)")
    grid = result.point("6x6 mesh (degree<4)")
    assert cube.saving > grid.saving
    assert cube.multiplexable_fraction > grid.multiplexable_fraction
    quoted(" / ".join(f"{100 * p.saving:.1f}" for p in points)
           + "% of the unshared spare")
    quoted(" / ".join(f"{100 * p.multiplexable_fraction:.0f}" for p in points)
           + "% of backup pairs")
    quoted(f"{cube.saving:.1%} saving / {cube.multiplexable_fraction:.1%} "
           f"muxable vs degree-<4 mesh: {grid.saving:.1%} / "
           f"{grid.multiplexable_fraction:.1%}")


def test_restoration_scheme_triangle(regenerate, quoted):
    result = regenerate("python -m repro baselines")
    bcp = result.scheme("BCP (1 backup, mux=3)")
    reactive = result.scheme("reactive re-establishment")
    detour = result.scheme("pre-planned local detours")
    # Guarantees: BCP at mux=3 and local detours both cover all single
    # link failures; reactive cannot do better.
    assert bcp.coverage_single_link == 1.0
    assert detour.coverage_single_link == 1.0
    assert reactive.coverage_single_link <= 1.0
    # Overhead ordering: reactive (0) < BCP < local detours.
    assert reactive.spare_fraction == 0.0
    assert 0.0 < bcp.spare_fraction < detour.spare_fraction
    # Post-recovery stretch: local detours always stretch (>= +1 hop per
    # patched link); BCP's activated backups stretch less on average.
    assert detour.mean_stretch >= 1.0
    assert bcp.mean_stretch < detour.mean_stretch
    # The paper's headline latency argument: re-establishment is an order
    # of magnitude slower than backup activation.
    assert reactive.mean_disruption > 10 * bcp.mean_disruption
    quoted(f"at {detour.spare_fraction:.1%} spare and "
           f"{detour.mean_stretch:+.1f} hops")
    quoted(f"at {bcp.spare_fraction:.2%} spare, {bcp.mean_stretch:+.2f} hops")
    quoted(f"disruption of {bcp.mean_disruption:.1f} D_max")
    quoted(f"disruption of {reactive.mean_disruption:.1f} (a full signalling "
           f"round trip, "
           f"{reactive.mean_disruption / bcp.mean_disruption:.0f}× BCP's)")


def test_reactive_guarantee_breaks_under_load(quoted):
    """The paper's core critique of [BAN93]-style recovery: with no
    reserved spare, contention in a loaded network makes recovery
    best-effort.  At ~64% network load (the paper's "fully-loaded"
    estimate doubles its 33%-load overheads) some disrupted connections
    find all QoS-feasible paths out of capacity."""
    network = BCPNetwork(torus(8, 8, capacity=100.0))
    establish_workload(network, all_pairs(network.topology),
                       FaultToleranceQoS(num_backups=0, mux_degree=0))
    rerouted = failed = no_capacity = 0
    for scenario in all_single_link_failures(network.topology):
        outcome = evaluate_reactive(network, scenario)
        for status in outcome.outcomes.values():
            if status is ReactiveOutcome.EXCLUDED:
                continue
            failed += 1
            rerouted += status is ReactiveOutcome.REROUTED
            no_capacity += status is ReactiveOutcome.NO_CAPACITY
    assert rerouted < failed
    assert no_capacity > 0
    quoted(f"at ~{network.network_load():.0%} network load")
    quoted(f"reactive coverage drops to {rerouted / failed:.1%} with "
           f"{no_capacity} recoveries blocked")


def test_spare_aware_routing_reduces_overhead(regenerate, quoted):
    """[HAN97b] direction (Section 7.2): "a backup routing algorithm which
    can reduce the spare bandwidth up to 40%, compared to the shortest
    path routing method" — here a cost-biased router that prefers links
    whose spare pools already cover the new backup."""
    shortest = regenerate("python -m repro table1")
    network = BCPNetwork(torus(8, 8, 200.0), spare_aware_backup_routing=True)
    establish_workload(network, all_pairs(network.topology),
                       FaultToleranceQoS(num_backups=1, mux_degree=5))
    spare = network.spare_fraction()
    r_fast = RecoveryEvaluator(network).evaluate_many(
        all_single_link_failures(network.topology)).r_fast
    # A substantial saving; single-link coverage must not collapse.
    assert spare < shortest.spare[5] * 0.8
    assert r_fast >= shortest.r_fast[LINK][5] - 0.10
    quoted(f"cuts spare {shortest.spare[5]:.2%} → {spare:.2%} "
           f"({spare / shortest.spare[5] - 1:.0%},")
    quoted(f"({100 * shortest.r_fast[LINK][5]:.1f} → {r_fast:.1%} for "
           f"single link failures)")


def test_priority_activation_variants():
    """Section 4.3: two same-route connections contend for a backup pool
    that holds one unit.  Both priority variants protect the high-priority
    connection; the delay variant taxes its recovery always, preemption
    only when contention actually occurs."""
    network = BCPNetwork(torus(4, 4))
    low = network.establish(
        0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=15))
    high = network.establish(
        0, 2, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=14))
    scenario = FailureScenario.of_links([low.primary.path.links[0]])
    delayed = simulate_scenario(
        network, scenario, ProtocolConfig(activation_delay_per_degree=0.5))
    preempting = simulate_scenario(
        network, scenario, ProtocolConfig(preemption=True))
    assert delayed.recoveries[high.connection_id].recovered
    assert preempting.recoveries[high.connection_id].recovered
    assert preempting.preemptions >= 1
    # The delay variant imposes the wait (14 * 0.5) on the high-priority
    # connection's own activation too.
    assert (delayed.recoveries[high.connection_id].service_disruption
            > preempting.recoveries[high.connection_id].service_disruption)


def test_churn_reference_run(tmp_path, capsys, quoted):
    stats_path = tmp_path / "stats.json"
    assert main(["churn", "--holding-time", "4", "--duration", "20",
                 "--stats-out", str(stats_path)]) == 0
    capsys.readouterr()
    stats = json.loads(stats_path.read_text())
    assert stats["blocked"] == 0 and not stats["audit_violations"]
    quoted("`python -m repro churn --holding-time 4 --duration 20`")
    quoted(f"{stats['arrivals']} arrivals in {stats['batches']} batches")
    quoted(f"R_fast = {stats['recovery']['r_fast']:.1f} over "
           f"{stats['recovery']['scenarios']} under-churn scenarios")


# ----------------------------------------------------------------------
# Section 6: complexity of backup multiplexing, measured in-process
# ----------------------------------------------------------------------
#: One interner for every drawn primary, as an engine has.
_SPACE = ComponentSpace()


def _random_primary(rng: random.Random) -> int:
    return _SPACE.path_mask(Route(rng.sample(range(400), rng.randint(3, 9))))


def _measure(population: int, operation: str) -> float:
    """Mean latency of one op against a ``population``-entry link.

    Primaries are drawn from a 64-path pool: backups of recurring
    connections share primary routes (the churn steady state).
    """
    state = LinkMuxState(LinkId("x", "y"), OverlapPolicy())
    rng = random.Random(7)
    pool = [_random_primary(rng) for _ in range(64)]
    for cid in range(population):
        mask = rng.choice(pool)
        state.add(cid, 1.0, rng.choice((1, 3, 5, 6)), mask)
    if operation == "naive":
        # The scratch recompute doubles as the incremental pool's oracle.
        assert state.spare_required_recomputed() == pytest.approx(
            state.spare_required())
    mask = pool[13]
    repetitions = 30
    start = time.perf_counter()
    for i in range(repetitions):
        if operation == "naive":
            state.spare_required_recomputed()
        else:
            state.add(10_000 + i, 1.0, 3, mask)
            state.remove(10_000 + i)
    return (time.perf_counter() - start) / repetitions


def test_incremental_beats_naive_at_scale():
    """The asymptotic claim, measured directly: growing the population 4x
    grows the naive recompute ~16x but the incremental update ~4x."""
    naive_ratio = _measure(400, "naive") / _measure(100, "naive")
    incremental_ratio = (_measure(400, "incremental")
                         / _measure(100, "incremental"))
    # Allow generous noise; the orders of growth must still separate.
    assert naive_ratio > incremental_ratio * 1.5

