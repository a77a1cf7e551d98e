"""Section 5.2: RCC capacity sizing and bounded control-message delay.

The experiment computes the frame capacity the sizing rule demands for the
loaded workload, then stresses the control plane with a node failure (the
largest report burst) under (a) a compliant frame size and (b) a
deliberately undersized one, measuring the worst per-hop control-message
delay.  The paper's claim: with the rule satisfied, "the control-message
delay on any link is bounded by D_max"; undersizing queues messages beyond
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.delay import required_rcc_frame_messages
from repro.channels.qos import FaultToleranceQoS
from repro.experiments.setup import load_network
from repro.faults.models import FailureScenario
from repro.network.spec import TopologySpec
from repro.protocol.config import ProtocolConfig, RCCParams
from repro.protocol.runtime import ProtocolSimulation
from repro.util.tables import format_table


@dataclass
class RCCSizingResult:
    #: ``Topology.name`` of the evaluated network.
    topology: str
    required_messages: int = 0
    #: frame capacity -> worst observed per-hop message delay.
    worst_delay: dict[int, float] = field(default_factory=dict)
    #: The per-hop budget: D_max plus one eligibility interval (a message
    #: enqueued just after a transmission waits 1/R_max before flying).
    budget: float = 1.0

    def format(self) -> str:
        """Render the sizing comparison table."""
        rows = [
            [capacity,
             f"{delay:.3f}",
             "yes" if delay <= self.budget + 1e-9 else "NO"]
            for capacity, delay in sorted(self.worst_delay.items())
        ]
        return format_table(
            ["frame capacity (msgs)", "worst hop delay", "within budget"],
            rows,
            title=(
                f"Section 5.2: RCC sizing — {self.topology}, required "
                f">= {self.required_messages} msgs/frame, "
                f"budget={self.budget:.2f}"
            ),
        )


def run_rcc_sizing(config: TopologySpec) -> RCCSizingResult:
    """Compare compliant vs. undersized RCC frames under a failure burst."""
    qos = FaultToleranceQoS(num_backups=1, mux_degree=3)
    network, _ = load_network(config, qos)
    required = required_rcc_frame_messages(network)
    result = RCCSizingResult(
        topology=network.topology.name, required_messages=required
    )

    # The worst single-failure burst: fail the most loaded node.
    def burst_size(node) -> int:
        return sum(
            network.registry.channel_count_on_link(link)
            for link in network.topology.incident_links(node)
        )

    victim = max(network.topology.nodes(), key=burst_size)
    scenario = FailureScenario.of_nodes([victim])

    for capacity in (required, 2):  # compliant, deliberately undersized
        protocol = ProtocolConfig(
            rcc=RCCParams(max_messages_per_frame=capacity, max_rate=10.0)
        )
        result.budget = protocol.rcc.max_delay + protocol.rcc.min_interval
        simulation = ProtocolSimulation(network, protocol)
        simulation.inject_scenario(scenario, at=1.0)
        simulation.run(until=300.0)
        result.worst_delay[capacity] = simulation.worst_control_delay()
    return result
