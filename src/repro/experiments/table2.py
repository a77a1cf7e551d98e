"""Table 2: per-connection fault-tolerance control with mixed degrees.

A quarter of the connections use each of mux = 1, 3, 5, 6 (assigned round-
robin by establishment index), all with the same number of backups.  The
spare bandwidth is a single figure for the whole network; R_fast is broken
down per class, demonstrating that "the fault-tolerance level of each
class of D-connections can be readily controlled" (Section 7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channels.qos import FaultToleranceQoS
from repro.experiments.setup import (
    FAILURE_MODELS,
    load_network,
    standard_failure_models,
)
from repro.network.spec import TopologySpec
from repro.recovery import RecoveryEvaluator, by_mux_degree, evaluate_grouped
from repro.util.tables import format_percent, format_table


@dataclass
class Table2Result:
    """One panel of Table 2."""

    #: ``Topology.name`` of the evaluated network.
    topology: str
    num_backups: int
    classes: tuple[int, ...]
    spare: "float | None" = None
    complete: bool = True
    #: failure model -> class degree -> R_fast.
    r_fast: dict[str, dict[int, "float | None"]] = field(default_factory=dict)

    def format(self) -> str:
        """Render the panel in the paper's row layout."""
        headers = ["row"] + [f"mux={degree}" for degree in self.classes]
        rows: list[list[object]] = [
            ["Spare bandwidth", format_percent(self.spare)]
            + [""] * (len(self.classes) - 1)
        ]
        for model, values in self.r_fast.items():
            rows.append(
                [model]
                + [format_percent(values.get(d)) for d in self.classes]
            )
        title = (
            f"Table 2: R_fast, mixed mux ({'/'.join(map(str, self.classes))}) "
            f"— {self.topology}, {self.num_backups} backup(s)"
        )
        return format_table(headers, rows, title=title)


def run_table2(
    config: TopologySpec,
    *,
    num_backups: int,
    classes: tuple[int, ...],
    double_node_samples: int,
) -> Table2Result:
    """Regenerate one Table 2 panel."""

    def qos_for(index: int) -> FaultToleranceQoS:
        return FaultToleranceQoS(
            num_backups=num_backups, mux_degree=classes[index % len(classes)]
        )

    network, report = load_network(config, qos_for)
    result = Table2Result(
        topology=network.topology.name, num_backups=num_backups,
        classes=tuple(classes),
    )
    result.complete = report.essentially_complete
    result.spare = (
        network.spare_fraction() if report.essentially_complete else None
    )
    models = standard_failure_models(network.topology, double_node_samples)
    for model in FAILURE_MODELS:
        per_class = evaluate_grouped(
            network, RecoveryEvaluator(network), models[model], by_mux_degree
        )
        result.r_fast[model] = {
            degree: (per_class[degree].r_fast if degree in per_class else None)
            for degree in classes
        }
    return result
