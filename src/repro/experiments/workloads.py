"""Connection workload generators and the establishment driver.

The paper's workload (Section 7): "A total of 4032 connections were
established incrementally, so that there may exist a D-connection between
each node pair, i.e. 64·63 = 4032."  :func:`all_pairs` reproduces it;
:func:`hotspot_pairs` and :func:`mixed_bandwidth_traffic` implement the
"inhomogeneous traffic" variations of Section 7.1 (hot-spots, mixed
bandwidth requirements).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.channels.qos import DelayQoS, FaultToleranceQoS
from repro.channels.traffic import TrafficSpec
from repro.core.bcp import BCPNetwork
from repro.core.establishment import EstablishmentError
from repro.network.components import NodeId
from repro.network.topology import Topology
from repro.util.rng import make_rng

NodePair = "tuple[NodeId, NodeId]"


def all_pairs(topology: Topology) -> list[NodePair]:
    """Every ordered node pair, ascending — the paper's workload order."""
    nodes = sorted(topology.nodes())
    return [(src, dst) for src in nodes for dst in nodes if src != dst]


def hotspot_pairs(
    topology: Topology, hotspots: Sequence[NodeId]
) -> list[NodePair]:
    """A workload skewed toward a few hotspot nodes.

    Each connection endpoint is drawn (seed 0) from a distribution where
    every hotspot counts four times; as many pairs as :func:`all_pairs`,
    so overhead comparisons stay like-for-like.
    """
    nodes = sorted(topology.nodes())
    for hotspot in hotspots:
        if not topology.has_node(hotspot):
            raise ValueError(f"hotspot {hotspot!r} not in topology")
    weighted = list(nodes)
    for hotspot in hotspots:
        weighted.extend([hotspot] * 3)
    rng = make_rng(0)
    count = len(nodes) * (len(nodes) - 1)
    pairs: list[NodePair] = []
    while len(pairs) < count:
        src = rng.choice(weighted)
        dst = rng.choice(weighted)
        if src != dst:
            pairs.append((src, dst))
    return pairs


def uniform_traffic(bandwidth: float = 1.0) -> Callable[[int], TrafficSpec]:
    """The paper's traffic model: every channel needs the same bandwidth."""
    spec = TrafficSpec(bandwidth=bandwidth)
    return lambda index: spec


def mixed_bandwidth_traffic() -> Callable[[int], TrafficSpec]:
    """Mixed bandwidth requirements (Section 7.1's inhomogeneous variant):
    each connection draws (seed 0) one of 0.5, 1, 2 or 4."""
    rng = make_rng(0)
    choices = [TrafficSpec(bandwidth=b) for b in (0.5, 1.0, 2.0, 4.0)]
    return lambda index: rng.choice(choices)


@dataclass
class WorkloadReport:
    """Outcome of driving a workload into a network."""

    requested: int = 0
    established: int = 0
    rejected: int = 0
    #: (network_load, spare_fraction) samples taken along the way.
    checkpoints: list[tuple[float, float]] = field(default_factory=list)

    #: Rejection fraction above which a configuration counts as infeasible
    #: (the paper's N/A: "the total bandwidth requirement had exceeded the
    #: network capacity before establishing all connections").  A sub-1%
    #: residual — a couple of connections pinched by saturated central
    #: links — is reported normally, with the count noted.
    NA_THRESHOLD = 0.01

    @property
    def complete(self) -> bool:
        """Whether every requested connection was established."""
        return self.rejected == 0

    @property
    def essentially_complete(self) -> bool:
        """Whether the workload fit up to the N/A threshold."""
        if self.requested == 0:
            return True
        return self.rejected / self.requested <= self.NA_THRESHOLD


def establish_workload(
    network: BCPNetwork,
    pairs: Sequence[NodePair],
    ft_qos: "FaultToleranceQoS | Callable[[int], FaultToleranceQoS]",
    traffic: "Callable[[int], TrafficSpec] | None" = None,
    checkpoint_every: "int | None" = None,
) -> WorkloadReport:
    """Establish ``pairs`` incrementally, tolerating rejections.

    ``ft_qos`` is either one spec for all connections or a function of the
    connection index (per-connection fault-tolerance control, Section 7.3).
    Load/spare checkpoints every ``checkpoint_every`` connections feed the
    Figure 9 curves.
    """
    traffic = traffic or uniform_traffic()
    delay_qos = DelayQoS()
    report = WorkloadReport(requested=len(pairs))
    sampled = False
    for index, (src, dst) in enumerate(pairs):
        qos = ft_qos(index) if callable(ft_qos) else ft_qos
        try:
            network.establish(src, dst, traffic(index), delay_qos, qos)
        except EstablishmentError:
            report.rejected += 1
        else:
            report.established += 1
        sampled = bool(checkpoint_every) and (index + 1) % checkpoint_every == 0
        if sampled:
            report.checkpoints.append(
                (network.network_load(), network.spare_fraction())
            )
    if not sampled:  # the final state, unless the last step just sampled it
        report.checkpoints.append(
            (network.network_load(), network.spare_fraction())
        )
    return report
