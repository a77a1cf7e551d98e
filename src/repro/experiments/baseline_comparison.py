"""Section 8 quantified: BCP against the two classical alternatives.

The paper positions BCP between two families (Section 8):

* **reactive re-establishment** ([BAN93]): no standing overhead, but "it
  does not give any guarantee on failure recovery" and recovery costs a
  full channel-establishment round trip;
* **pre-planned local detours** ([ZHE92] and the telecom self-healing
  line): guaranteed and fast, but "requires reservation of substantial
  amounts of extra resources" and stretches paths after recovery.

This experiment puts numbers on the triangle for one workload: spare
overhead, single-link-failure coverage, the latency *class* of recovery
(none / activation / re-establishment), and the post-recovery path
stretch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.localdetour import plan_local_detours
from repro.baselines.reactive import ReactiveOutcome, evaluate_reactive
from repro.channels.qos import FaultToleranceQoS
from repro.experiments.setup import load_network
from repro.faults.enumerate import all_single_link_failures
from repro.network.spec import TopologySpec
from repro.protocol.config import ProtocolConfig
from repro.protocol.runtime import simulate_scenario
from repro.protocol.signaling import establishment_latency
from repro.recovery.evaluator import RecoveryEvaluator
from repro.util.tables import format_percent, format_table


@dataclass
class SchemeSummary:
    """One restoration scheme's corner of the trade-off triangle."""

    name: str
    spare_fraction: float
    coverage_single_link: "float | None"
    #: "none" (forward masking), "activation" (one report + activation),
    #: "re-establishment" (full signalling round with admission).
    latency_class: str
    #: Mean extra hops of the post-recovery path vs the original primary.
    mean_stretch: "float | None" = None
    #: Mean service-disruption time, in RCC D_max units (measured for BCP
    #: via the protocol runtime; modelled for reactive via the Section 3.4
    #: signalling round trip; ~0 for local patching).
    mean_disruption: "float | None" = None


@dataclass
class BaselineComparisonResult:
    #: ``Topology.name`` of the evaluated network.
    topology: str
    schemes: list[SchemeSummary] = field(default_factory=list)

    def format(self) -> str:
        """Render the trade-off table."""
        rows = [
            [
                scheme.name,
                format_percent(scheme.spare_fraction),
                format_percent(scheme.coverage_single_link),
                scheme.latency_class,
                "-" if scheme.mean_disruption is None
                else f"{scheme.mean_disruption:.1f}",
                "-" if scheme.mean_stretch is None
                else f"{scheme.mean_stretch:+.2f}",
            ]
            for scheme in self.schemes
        ]
        return format_table(
            ["scheme", "spare", "coverage (1 link)", "recovery latency",
             "mean disruption", "path stretch"],
            rows,
            title=(
                f"Section 8: restoration-scheme trade-offs — "
                f"{self.topology}"
            ),
        )

    def scheme(self, name: str) -> SchemeSummary:
        """The summary for one scheme by name; raises ``KeyError``."""
        for scheme in self.schemes:
            if scheme.name == name:
                return scheme
        raise KeyError(name)


def run_baseline_comparison(
    config: TopologySpec, *, mux_degree: int
) -> BaselineComparisonResult:
    """Compare BCP (single backup at ``mux_degree``), reactive
    re-establishment, and pre-planned local detours on the all-pairs
    workload."""
    # --- BCP -----------------------------------------------------------
    qos = FaultToleranceQoS(num_backups=1, mux_degree=mux_degree)
    network, _ = load_network(config, qos)
    result = BaselineComparisonResult(topology=network.topology.name)
    scenarios = all_single_link_failures(network.topology)
    evaluator = RecoveryEvaluator(network)
    stats = evaluator.evaluate_many(scenarios)
    # Stretch of the activated backup vs the failed primary.
    stretches = []
    for scenario in scenarios:
        outcome = evaluator.evaluate(scenario)
        for connection_id, serial in outcome.activated_serial.items():
            connection = network.connection(connection_id)
            backup = next(
                b for b in connection.backups if b.serial == serial
            )
            stretches.append(backup.path.hops - connection.primary.path.hops)
    # Measured service disruptions via the protocol runtime, on eight
    # scenarios spread evenly over the links.
    disruptions: list[float] = []
    for scenario in scenarios[::max(1, len(scenarios) // 8)][:8]:
        metrics = simulate_scenario(network, scenario, ProtocolConfig())
        disruptions.extend(metrics.service_disruptions().values())
    result.schemes.append(SchemeSummary(
        name=f"BCP (1 backup, mux={mux_degree})",
        spare_fraction=network.spare_fraction(),
        coverage_single_link=stats.r_fast,
        latency_class="activation",
        mean_stretch=(sum(stretches) / len(stretches)) if stretches else None,
        mean_disruption=(
            sum(disruptions) / len(disruptions) if disruptions else None
        ),
    ))

    # --- reactive ([BAN93]) ---------------------------------------------
    bare_qos = FaultToleranceQoS(num_backups=0, mux_degree=0)
    bare_network, _ = load_network(config, bare_qos)
    rerouted = failed = 0
    reactive_stretches = []
    reactive_latencies = []
    for scenario in scenarios:
        reactive = evaluate_reactive(bare_network, scenario)
        for connection_id, outcome in reactive.outcomes.items():
            if outcome is ReactiveOutcome.EXCLUDED:
                continue
            failed += 1
            if outcome is ReactiveOutcome.REROUTED:
                rerouted += 1
                connection = bare_network.connection(connection_id)
                new_hops = reactive.new_hops[connection_id]
                reactive_stretches.append(
                    new_hops - connection.primary.path.hops
                )
                # Failure report back to the source, then the Section 3.4
                # two-pass establishment over the replacement path.
                reactive_latencies.append(
                    (connection.primary.path.hops - 1) * 1.0
                    + establishment_latency(new_hops)
                )
    result.schemes.append(SchemeSummary(
        name="reactive re-establishment",
        spare_fraction=bare_network.spare_fraction(),
        coverage_single_link=(rerouted / failed) if failed else None,
        latency_class="re-establishment",
        mean_stretch=(
            sum(reactive_stretches) / len(reactive_stretches)
            if reactive_stretches else None
        ),
        mean_disruption=(
            sum(reactive_latencies) / len(reactive_latencies)
            if reactive_latencies else None
        ),
    ))

    # --- local detours ([ZHE92]) -----------------------------------------
    plan = plan_local_detours(bare_network)
    stretch_values = [
        plan.stretch(link) for link in plan.detours
    ]
    result.schemes.append(SchemeSummary(
        name="pre-planned local detours",
        spare_fraction=plan.spare_fraction,
        coverage_single_link=plan.recovery_ratio_single_link(bare_network),
        latency_class="none (local patch)",
        mean_stretch=(
            sum(stretch_values) / len(stretch_values)
            if stretch_values else None
        ),
        mean_disruption=0.0,
    ))
    return result
