"""Shared experiment setup: the paper's failure models (Section 7) and
the all-pairs load every table starts from.

A network is a :class:`~repro.network.spec.TopologySpec`; without a
capacity it builds at the paper's per-family link capacity.  Channels
need 1 Mbps per link; the delay QoS is shortest+2 hops.  Experiments
default to the paper's 8x8 scale but accept smaller dimensions for fast
tests.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.channels.qos import FaultToleranceQoS
from repro.core.bcp import BCPNetwork
from repro.core.overlap import OverlapPolicy
from repro.experiments.workloads import (
    WorkloadReport,
    all_pairs,
    establish_workload,
)
from repro.faults.enumerate import (
    all_single_link_failures,
    all_single_node_failures,
    sample_double_node_failures,
)
from repro.faults.models import FailureScenario
from repro.network.spec import TopologySpec
from repro.network.topology import Topology

#: Failure-model labels exactly as the paper's table rows.
FAILURE_MODELS = ("1 link failure", "1 node failure", "2 node failures")


def load_network(
    config: TopologySpec,
    ft_qos: "FaultToleranceQoS | Callable[[int], FaultToleranceQoS]",
    policy: "OverlapPolicy | None" = None,
    checkpoint_every: "int | None" = None,
) -> tuple[BCPNetwork, WorkloadReport]:
    """Build the configured topology and drive the all-pairs workload."""
    network = BCPNetwork(config.build(), policy=policy)
    report = establish_workload(
        network,
        all_pairs(network.topology),
        ft_qos,
        checkpoint_every=checkpoint_every,
    )
    return network, report


def standard_failure_models(
    topology: Topology,
    double_node_samples: int = 200,
    seed: "int | None" = 0,
) -> dict[str, list[FailureScenario]]:
    """The paper's three failure models (Section 7.2): exhaustive single
    link and single node, sampled double node."""
    return {
        "1 link failure": all_single_link_failures(topology),
        "1 node failure": all_single_node_failures(topology),
        "2 node failures": sample_double_node_failures(
            topology, double_node_samples, seed
        ),
    }
