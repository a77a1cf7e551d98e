"""Tables 1 and 3: R_fast per multiplexing degree, one panel at a time.

For each mux degree the full all-pairs workload is established, then the
three failure models are replayed and the fast-recovery rate measured.
Table 1 panels: (a) single backup, 8x8 torus; (b) double backups, 8x8
torus; (c) single backup, 8x8 mesh.  A degree whose workload does not
fully fit reports N/A (the paper's Table 1(b) mux=1 case).

Table 3 (Section 7.4) keeps the workload and the backup routing and
changes only the evaluator: brute-force multiplexing gives every link the
*same* spare, the proposed scheme's average.  The paper's finding:
near-parity on the homogeneous torus, clear loss on the mesh (and under
any inhomogeneity).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.baselines.bruteforce import brute_force_evaluator
from repro.channels.qos import FaultToleranceQoS
from repro.core.bcp import BCPNetwork
from repro.experiments.setup import (
    FAILURE_MODELS,
    load_network,
    standard_failure_models,
)
from repro.network.spec import TopologySpec
from repro.recovery import RecoveryEvaluator
from repro.util.tables import format_percent, format_table


@dataclass
class PanelResult:
    """One panel of Table 1 or Table 3."""

    title: str
    num_backups: int
    mux_degrees: tuple[int, ...]
    #: mux degree -> spare fraction (None when the workload didn't fit).
    #: Brute force spreads the same total, so Table 3 reuses Table 1's row.
    spare: dict[int, "float | None"] = field(default_factory=dict)
    #: failure model -> mux degree -> R_fast.
    r_fast: dict[str, dict[int, "float | None"]] = field(default_factory=dict)
    #: mux degree -> connections rejected at establishment (sub-threshold
    #: residuals; above the threshold the degree reports N/A instead).
    rejected: dict[int, int] = field(default_factory=dict)

    def format(self) -> str:
        """Render the panel in the paper's row layout."""
        headers = ["row"] + [f"mux={degree}" for degree in self.mux_degrees]
        rows: list[list[object]] = [
            ["Spare bandwidth"]
            + [format_percent(self.spare.get(d)) for d in self.mux_degrees]
        ]
        for model in self.r_fast:
            rows.append(
                [model]
                + [format_percent(self.r_fast[model].get(d))
                   for d in self.mux_degrees]
            )
        text = format_table(headers, rows, title=self.title)
        residuals = {
            degree: count
            for degree, count in self.rejected.items()
            if count and self.spare.get(degree) is not None
        }
        if residuals:
            text += (
                "\n(connections rejected at establishment: "
                + ", ".join(f"mux={d}: {c}" for d, c in residuals.items())
                + ")"
            )
        return text


def _run_panel(
    title: str,
    make_evaluator: Callable[[BCPNetwork], RecoveryEvaluator],
    config: TopologySpec,
    *,
    num_backups: int,
    mux_degrees: tuple[int, ...],
    double_node_samples: int,
) -> PanelResult:
    """Regenerate one panel: per degree, one establishment, one evaluator
    from ``make_evaluator``, the three failure models."""
    result = PanelResult(
        title=title.format(label=config.build().name, backups=num_backups),
        num_backups=num_backups,
        mux_degrees=tuple(mux_degrees),
    )
    for model in FAILURE_MODELS:
        result.r_fast[model] = {}
    for degree in mux_degrees:
        qos = FaultToleranceQoS(num_backups=num_backups, mux_degree=degree)
        network, report = load_network(config, qos)
        result.rejected[degree] = report.rejected
        if not report.essentially_complete:
            # The paper's N/A: capacity exceeded before all connections fit.
            result.spare[degree] = None
            for model in FAILURE_MODELS:
                result.r_fast[model][degree] = None
            continue
        result.spare[degree] = network.spare_fraction()
        evaluator = make_evaluator(network)
        models = standard_failure_models(network.topology, double_node_samples)
        for model, scenarios in models.items():
            result.r_fast[model][degree] = evaluator.evaluate_many(
                scenarios
            ).r_fast
    return result


#: ``run_table1(config, *, num_backups, mux_degrees, double_node_samples)``:
#: the proposed scheme, each link drawing on its own spare pool.
run_table1 = partial(
    _run_panel,
    "Table 1: R_fast, uniform mux — {label}, {backups} backup(s)",
    RecoveryEvaluator,
)
#: ``run_table3``, same signature: the same total spread uniformly.
run_table3 = partial(
    _run_panel,
    "Table 3: R_fast, brute-force multiplexing — {label}",
    brute_force_evaluator,
)
