"""Section 5.3: measured recovery delay vs. the analytic Γ bound.

For a sample of connections, every component of the primary path is failed
in turn (one scenario per component), the protocol runtime measures the
service-disruption time, and each measurement is compared against
``Γ ≤ (K-1)·D_max + 2(b-1)(K-1)·D_max``.  The experiment also reproduces
the qualitative claim that failures close to the source recover faster
(Section 5.3: "if the failed component is located close to the source
node, the recovery delay will be very short").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.delay import connection_delay_bound
from repro.channels.qos import FaultToleranceQoS
from repro.experiments.setup import load_network
from repro.faults.models import FailureScenario
from repro.network.spec import TopologySpec
from repro.protocol.config import ProtocolConfig
from repro.protocol.runtime import simulate_scenario
from repro.util.tables import format_table


@dataclass
class DelayMeasurement:
    """One failure injection on one connection."""

    connection_id: int
    hops: int
    failed_link_index: int
    measured: "float | None"
    bound: float

    @property
    def within_bound(self) -> "bool | None":
        if self.measured is None:
            return None
        return self.measured <= self.bound + 1e-9


@dataclass
class DelayBoundResult:
    """All measurements plus the aggregate verdict."""

    #: ``Topology.name`` of the evaluated network.
    topology: str
    d_max: float
    measurements: list[DelayMeasurement] = field(default_factory=list)

    @property
    def violations(self) -> list[DelayMeasurement]:
        return [m for m in self.measurements if m.within_bound is False]

    def format(self) -> str:
        """Render the measurement table."""
        rows = [
            [
                m.connection_id,
                m.hops,
                m.failed_link_index,
                "-" if m.measured is None else f"{m.measured:.2f}",
                f"{m.bound:.2f}",
                {True: "yes", False: "NO", None: "-"}[m.within_bound],
            ]
            for m in self.measurements
        ]
        return format_table(
            ["conn", "K (hops)", "failed link #", "measured Γ", "bound",
             "within"],
            rows,
            title=(
                f"Section 5.3: recovery delay vs bound — {self.topology}, "
                f"D_max={self.d_max}"
            ),
        )


def run_delay_bound(
    config: TopologySpec,
    *,
    num_backups: int,
    connections: int,
) -> DelayBoundResult:
    """Measure service disruptions against the Γ bound.

    ``connections`` distinct connections are picked evenly from the
    workload; every link of each one's primary path is failed in turn, one
    simulation per injection, all on the one network's compiled
    :class:`~repro.core.plan.NetworkPlan`.
    """
    qos = FaultToleranceQoS(num_backups=num_backups, mux_degree=1)
    network, _ = load_network(config, qos)
    protocol = ProtocolConfig()
    result = DelayBoundResult(
        topology=network.topology.name, d_max=protocol.rcc.max_delay)

    loaded = network.connections()
    stride = max(1, len(loaded) // connections)
    for connection in loaded[::stride][:connections]:
        hops = max(c.path.hops for c in connection.channels)
        bound = connection_delay_bound(connection, protocol.rcc.max_delay)
        for index, link in enumerate(connection.primary.path.links):
            metrics = simulate_scenario(
                network,
                FailureScenario.of_links([link]),
                protocol,
                failure_time=1.0,
                horizon=2000.0,
            )
            record = metrics.recoveries.get(connection.connection_id)
            result.measurements.append(
                DelayMeasurement(
                    connection_id=connection.connection_id,
                    hops=hops,
                    failed_link_index=index,
                    measured=record.service_disruption if record else None,
                    bound=bound,
                )
            )
    return result
