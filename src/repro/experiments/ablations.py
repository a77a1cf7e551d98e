"""Ablations of the reproduction's design choices.

DESIGN.md documents the modelling decisions the paper leaves open; this
experiment measures how much each one matters, at one mux degree, under
the standard single-failure models:

* **activation order** — priority (the §4.3 default) vs establishment
  order vs random: how much of the guarantee structure comes from
  priority-ordered spare draws;
* **endpoint counting** — whether a primary's endpoints count in
  ``sc`` (the paper's literal formula) or not;
* **exact S comparison** — exact probability vs the integer ``sc < α``
  shortcut (differs only at the λ-boundary);
* **free-capacity fallback** — letting activations spill into unreserved
  bandwidth (not the paper's model; shows how much headroom the 33%-load
  setting hides).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channels.qos import FaultToleranceQoS
from repro.core.overlap import OverlapPolicy
from repro.experiments.setup import load_network, standard_failure_models
from repro.network.spec import TopologySpec
from repro.recovery import ActivationOrder, evaluate_scenarios
from repro.util.tables import format_percent, format_table


@dataclass
class AblationRow:
    name: str
    spare: float
    r_fast_link: "float | None"
    r_fast_node: "float | None"


@dataclass
class AblationResult:
    #: ``Topology.name`` of the evaluated network.
    topology: str
    mux_degree: int
    rows: list[AblationRow] = field(default_factory=list)

    def row(self, name: str) -> AblationRow:
        """The row with the given variant name; raises ``KeyError``."""
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def format(self) -> str:
        """Render the ablation table."""
        table = [
            [row.name, format_percent(row.spare),
             format_percent(row.r_fast_link), format_percent(row.r_fast_node)]
            for row in self.rows
        ]
        return format_table(
            ["variant", "spare", "R_fast 1-link", "R_fast 1-node"],
            table,
            title=(
                f"Design-choice ablations — {self.topology}, "
                f"mux={self.mux_degree}"
            ),
        )


def run_ablations(config: TopologySpec, *, mux_degree: int) -> AblationResult:
    """Measure each design-choice variant's spare and R_fast."""
    qos = FaultToleranceQoS(num_backups=1, mux_degree=mux_degree)

    def evaluate(network, **evaluator_kwargs) -> tuple:
        models = standard_failure_models(
            network.topology, double_node_samples=0
        )
        link = evaluate_scenarios(
            network, models["1 link failure"], **evaluator_kwargs
        ).r_fast
        node = evaluate_scenarios(
            network, models["1 node failure"], **evaluator_kwargs
        ).r_fast
        return link, node

    # Baseline: paper-literal policy, priority activation.
    baseline_network, _ = load_network(config, qos)
    result = AblationResult(
        topology=baseline_network.topology.name, mux_degree=mux_degree
    )
    spare = baseline_network.spare_fraction()
    for name, evaluator_kwargs in (
        ("baseline (priority order)", {"order": ActivationOrder.PRIORITY}),
        ("establishment order", {"order": ActivationOrder.CONNECTION_ID}),
        ("random order", {"order": ActivationOrder.RANDOM}),
        ("free-capacity fallback", {"free_capacity_fallback": True}),
    ):
        link, node = evaluate(baseline_network, **evaluator_kwargs)
        result.rows.append(AblationRow(name, spare, link, node))

    # Policy variants need their own establishment.
    for name, policy in (
        ("exact S comparison", OverlapPolicy(exact=True)),
        ("endpoints not counted", OverlapPolicy(count_endpoints=False)),
    ):
        network, _ = load_network(config, qos, policy=policy)
        link, node = evaluate(network)
        result.rows.append(
            AblationRow(name, network.spare_fraction(), link, node)
        )
    return result
