#!/usr/bin/env python
"""A narrated recovery: watch every protocol step of one failure.

Gives the protocol runtime a trace log, kills one link, and prints the
complete causal chain — crash, neighbour detection, failure reports
hopping node by node toward both end-nodes, bidirectional activation,
spare draws, end-to-end completion — exactly the sequence of the paper's
Section 4 walkthrough and Fig. 5(c).  Detection is the paper's: the
crashed link's neighbours learn of it at once.

Run:  python examples/trace_walkthrough.py
"""

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.faults import FailureScenario
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.sim import TraceLog


def build():
    network = BCPNetwork(torus(4, 4, capacity=200.0))
    connection = network.establish(
        0, 10, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
    )
    print(f"primary: {' -> '.join(map(str, connection.primary.path))}")
    print(f"backup : {' -> '.join(map(str, connection.backups[0].path))}")
    return network, connection


def run(network, connection):
    simulation = ProtocolSimulation(network, ProtocolConfig(),
                                    trace=TraceLog())
    victim = connection.primary.path.links[2]
    simulation.inject_scenario(FailureScenario.of_links([victim]), at=10.0)
    simulation.run(until=400.0)
    print(f"\n=== failing {victim} at t=10 ===")
    interesting = [
        row for row in simulation.trace.rows
        if row.kind != "report-hop" or row.t < 20
    ]
    for row in interesting[:30]:
        print(f"  {row}")
    record = simulation.metrics.recoveries[connection.connection_id]
    print(f"  -> service disruption: {record.service_disruption:.2f}, "
          f"fully recovered at t={record.completed_at:.2f}")


def main() -> None:
    network, connection = build()
    run(network, connection)


if __name__ == "__main__":
    main()
