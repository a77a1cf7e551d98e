"""Table 3: R_fast with brute-force multiplexing (Section 7.4).

The proposed scheme's workload and backup routing are kept; only the
spare placement changes — every link gets the *same* amount, equal to the
proposed scheme's average.  The paper's finding: near-parity on the
homogeneous torus, clear loss on the mesh (and under any inhomogeneity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.bruteforce import uniform_spare_amount
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
class Table3Result:
    """One panel of Table 3."""

    config: NetworkConfig
    num_backups: int
    mux_degrees: tuple[int, ...]
    #: The (uniformised) spare fraction per degree — by construction equal
    #: to the proposed scheme's average, so the paper reuses Table 1's row.
    spare: dict[int, "float | None"] = field(default_factory=dict)
    uniform_per_link: dict[int, float] = field(default_factory=dict)
    r_fast: dict[str, dict[int, "float | None"]] = field(default_factory=dict)

    def format(self) -> str:
        """Render the panel in the paper's row layout."""
        headers = ["row"] + [f"mux={degree}" for degree in self.mux_degrees]
        rows: list[list[object]] = [
            ["Spare bandwidth"]
            + [format_percent(self.spare.get(d)) for d in self.mux_degrees]
        ]
        for model, values in self.r_fast.items():
            rows.append(
                [model]
                + [format_percent(values.get(d)) for d in self.mux_degrees]
            )
        title = (
            f"Table 3: R_fast, brute-force multiplexing — {self.config.label}"
        )
        return format_table(headers, rows, title=title)


def run_table3(
    config: "NetworkConfig | None" = None,
    num_backups: int = 1,
    mux_degrees: tuple[int, ...] = PAPER_DEGREES,
    double_node_samples: int = 200,
    order: ActivationOrder = ActivationOrder.PRIORITY,
    seed: "int | None" = 0,
) -> Table3Result:
    """Regenerate one Table 3 panel."""
    config = config or NetworkConfig()
    result = Table3Result(
        config=config, num_backups=num_backups, mux_degrees=tuple(mux_degrees)
    )
    for model in FAILURE_MODELS:
        result.r_fast[model] = {}
    for degree in mux_degrees:
        qos = FaultToleranceQoS(num_backups=num_backups, mux_degree=degree)
        network, report = load_network(config, qos)
        if not report.essentially_complete:
            result.spare[degree] = None
            for model in FAILURE_MODELS:
                result.r_fast[model][degree] = None
            continue
        result.spare[degree] = network.spare_fraction()
        uniform = uniform_spare_amount(network)
        result.uniform_per_link[degree] = uniform
        models = standard_failure_models(
            network.topology, double_node_samples, seed
        )
        for model, scenarios in models.items():
            stats = evaluate_scenarios(
                network, scenarios, order=order,
                spare_override=uniform, seed=seed,
            )
            result.r_fast[model][degree] = stats.r_fast
    return result
