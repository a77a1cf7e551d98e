"""Table 1: R_fast with uniform multiplexing degrees.

For each mux degree the full all-pairs workload is established, then the
three failure models are replayed and the fast-recovery rate measured.
Panels: (a) single backup, 8x8 torus; (b) double backups, 8x8 torus;
(c) single backup, 8x8 mesh.  A degree whose workload does not fully fit
reports N/A (the paper's Table 1(b) mux=1 case).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channels.qos import FaultToleranceQoS
from repro.experiments.setup import (
    FAILURE_MODELS,
    NetworkConfig,
    load_network,
    standard_failure_models,
)
from repro.recovery import ActivationOrder, evaluate_scenarios
from repro.util.tables import format_percent, format_table

PAPER_DEGREES = (1, 3, 5, 6)


@dataclass
class Table1Result:
    """One panel of Table 1."""

    config: NetworkConfig
    num_backups: int
    mux_degrees: tuple[int, ...]
    #: mux degree -> spare fraction (None when the workload didn't fit).
    spare: dict[int, "float | None"] = field(default_factory=dict)
    #: failure model -> mux degree -> R_fast.
    r_fast: dict[str, dict[int, "float | None"]] = field(default_factory=dict)
    network_load: dict[int, float] = field(default_factory=dict)
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
        title = (
            f"Table 1: R_fast, uniform mux — {self.config.label}, "
            f"{self.num_backups} backup(s)"
        )
        text = format_table(headers, rows, title=title)
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


def run_table1(
    config: "NetworkConfig | None" = None,
    num_backups: int = 1,
    mux_degrees: tuple[int, ...] = PAPER_DEGREES,
    double_node_samples: int = 200,
    order: ActivationOrder = ActivationOrder.PRIORITY,
    seed: "int | None" = 0,
) -> Table1Result:
    """Regenerate one Table 1 panel."""
    config = config or NetworkConfig()
    result = Table1Result(
        config=config, num_backups=num_backups, mux_degrees=tuple(mux_degrees)
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
        result.network_load[degree] = network.network_load()
        models = standard_failure_models(
            network.topology, double_node_samples, seed
        )
        for model, scenarios in models.items():
            stats = evaluate_scenarios(
                network, scenarios, order=order, seed=seed
            )
            result.r_fast[model][degree] = stats.r_fast
    return result
