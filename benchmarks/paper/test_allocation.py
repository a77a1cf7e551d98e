"""Paper-scale allocation check for the event-level protocol.

    PYTHONPATH=src python -m pytest benchmarks/paper -q

``tests/test_protocol_allocation.py`` holds the tier-1 gate on the 4x4
torus; this is the same count at the scale the ``protocol-recovery``
benchmark workload runs at, where a full collection walks the 4 032
connections of the loaded network as well as whatever the run kept.
"""

from __future__ import annotations

import gc

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.analysis.delay import required_rcc_frame_messages
from repro.experiments.workloads import all_pairs, establish_workload
from repro.obs import NULL_REGISTRY
from repro.protocol import ProtocolConfig, ProtocolSimulation
from repro.protocol.config import RCCParams
from repro.protocol.plan import protocol_plan

#: Tracked objects the node-19 simulation adds (construction + run, the
#: first seed-0 scenario of ``protocol-recovery``).  Measured 22 570 on
#: CPython 3.11; the parent of the PR that added this check kept 59 500
#: and left 19 538 of them to the collector.
RETAINED_BUDGET = 24_000


def test_node_failure_leaves_nothing_to_collect():
    network = BCPNetwork(torus(8, 8, capacity=200.0))
    report = establish_workload(
        network, all_pairs(network.topology),
        FaultToleranceQoS(num_backups=1, mux_degree=3),
    )
    assert report.established == 4032
    # Section 5.2: the frame carries the worst burst, so D_max holds.
    config = ProtocolConfig(rcc=RCCParams(
        max_messages_per_frame=required_rcc_frame_messages(network)
    ))
    protocol_plan(network)  # the plan is the network's, not the run's
    gc.collect()
    gc.disable()
    try:
        start = len(gc.get_objects())
        simulation = ProtocolSimulation(
            network, config, seed=0, metrics=NULL_REGISTRY
        )
        simulation.fail(19, at=1.0)
        simulation.run(until=500.0)
        retained = len(gc.get_objects()) - start
        unreachable = gc.collect()
    finally:
        gc.enable()
    recoveries = simulation.metrics.recoveries.values()
    assert sum(record.recovered for record in recoveries) > 100
    assert unreachable == 0, "the run left cyclic garbage"
    assert retained <= RETAINED_BUDGET, retained
