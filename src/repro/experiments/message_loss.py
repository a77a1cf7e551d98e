"""Figure 8: message loss during failure recovery.

The paper's Fig. 8 illustrates which data messages a failure costs: those
in flight on the failed segment and those the source emits before it
learns of the failure; service resumes with the activation message.  This
experiment quantifies it: a steady message stream runs over a connection,
one primary link fails, and the lost-message count is compared with the
prediction

    expected_losses ≈ rate · (service_disruption + in_flight_window)

where the in-flight window covers messages already launched toward the
failed component.  The loss count must also grow with the failure's
distance from the source (reports travel further, so more messages are
emitted into the void).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channels.qos import FaultToleranceQoS
from repro.datapath.stream import DataStream
from repro.experiments.setup import load_network
from repro.faults.models import FailureScenario
from repro.network.spec import TopologySpec
from repro.protocol.config import ProtocolConfig
from repro.protocol.runtime import ProtocolSimulation
from repro.util.tables import format_table


@dataclass
class LossMeasurement:
    connection_id: int
    failed_link_index: int
    sent: int
    delivered: int
    lost: int
    service_disruption: "float | None"
    loss_window: "tuple[float, float] | None"


@dataclass
class MessageLossResult:
    #: ``Topology.name`` of the evaluated network.
    topology: str
    message_rate: float
    measurements: list[LossMeasurement] = field(default_factory=list)

    def format(self) -> str:
        """Render the per-injection loss table."""
        rows = [
            [
                m.connection_id,
                m.failed_link_index,
                m.sent,
                m.delivered,
                m.lost,
                "-" if m.service_disruption is None
                else f"{m.service_disruption:.1f}",
            ]
            for m in self.measurements
        ]
        return format_table(
            ["conn", "failed link #", "sent", "delivered", "lost",
             "disruption"],
            rows,
            title=(
                f"Figure 8: message loss during recovery — "
                f"{self.topology}, rate={self.message_rate:g}"
            ),
        )


def run_message_loss(
    config: TopologySpec,
    *,
    message_rate: float,
    connections: int,
) -> MessageLossResult:
    """Measure per-message loss around single link failures: one
    simulation with a live data stream per injection, all on the one
    network's compiled :class:`~repro.core.plan.NetworkPlan`."""
    qos = FaultToleranceQoS(num_backups=1, mux_degree=1)
    network, _ = load_network(config, qos)
    result = MessageLossResult(
        topology=network.topology.name, message_rate=message_rate
    )

    long_enough = [
        connection for connection in network.connections()
        if connection.primary.path.hops >= 3
    ]
    stride = max(1, len(long_enough) // connections)
    for connection in long_enough[::stride][:connections]:
        connection_id = connection.connection_id
        for index, victim in enumerate(connection.primary.path.links):
            simulation = ProtocolSimulation(network, ProtocolConfig())
            stream = DataStream(
                simulation, connection_id, message_rate=message_rate
            )
            # The stream stops 50 time units before the run does, so
            # every message it sent has landed or is lost.
            stream.start(at=0.0, until=350.0)
            simulation.inject_scenario(
                FailureScenario.of_links([victim]), at=50.0
            )
            simulation.run(until=400.0)
            record = simulation.metrics.recoveries.get(connection_id)
            result.measurements.append(
                LossMeasurement(
                    connection_id=connection_id,
                    failed_link_index=index,
                    sent=stream.report.sent,
                    delivered=stream.report.delivered,
                    lost=stream.report.lost,
                    service_disruption=(
                        record.service_disruption if record else None
                    ),
                    loss_window=stream.report.loss_window,
                )
            )
    return result
