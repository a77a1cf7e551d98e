"""Section 6's scaling claim, measured.

"The efficiency of backup multiplexing does not degrade as the network
scales up.  In fact, backup multiplexing will become more effective in
large-scale and highly-connected networks, because such networks contain
more versatile paths between two end nodes of a connection, thus lowering
the probability that primary channels overlap with one another."

The experiment measures the *multiplexing saving* — how much spare a
given degree reclaims relative to no sharing at all,
``1 − spare(mux=α) / spare(mux=0)`` — across network sizes and
connectivities, under the paper's all-pairs workload.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.channels.qos import FaultToleranceQoS
from repro.core.bcp import BCPNetwork
from repro.experiments.workloads import all_pairs, establish_workload
from repro.network.generators import hypercube, mesh, torus
from repro.network.topology import Topology
from repro.util.tables import format_percent, format_table


@dataclass
class ScalingPoint:
    label: str
    nodes: int
    mean_degree: float
    spare_unshared: float
    spare_multiplexed: float
    #: Fraction of backup pairs per link whose primaries are multiplexable
    #: at the chosen degree, averaged over loaded links — the paper's
    #: actual quantity ("lowering the probability that primary channels
    #: overlap with one another").
    multiplexable_fraction: float = 0.0

    @property
    def saving(self) -> float:
        """Fraction of the unshared spare that multiplexing reclaims."""
        if self.spare_unshared == 0:
            return 0.0
        return 1.0 - self.spare_multiplexed / self.spare_unshared


@dataclass
class ScalingResult:
    mux_degree: int
    points: list[ScalingPoint] = field(default_factory=list)

    def format(self) -> str:
        """Render the scaling table."""
        rows = [
            [
                point.label,
                point.nodes,
                f"{point.mean_degree:.1f}",
                format_percent(point.spare_unshared),
                format_percent(point.spare_multiplexed),
                format_percent(point.saving),
                format_percent(point.multiplexable_fraction),
            ]
            for point in self.points
        ]
        return format_table(
            ["network", "nodes", "degree", "spare mux=0",
             f"spare mux={self.mux_degree}", "saving", "muxable pairs"],
            rows,
            title="Section 6: multiplexing efficiency vs scale and "
                  "connectivity",
        )

    def point(self, label: str) -> ScalingPoint:
        """The point with the given label; raises ``KeyError``."""
        for point in self.points:
            if point.label == label:
                return point
        raise KeyError(label)


def _multiplexable_fraction(network: BCPNetwork, mux_degree: int) -> float:
    """Average fraction of multiplexable backup pairs per loaded link."""
    policy = network.policy
    fractions = []
    for link in network.topology.links():
        entries = network.mux.link_state(link).entries()
        if len(entries) < 2:
            continue
        multiplexable = total = 0
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                total += 1
                if policy.multiplexable_counts(
                    a.mask.bit_count(), b.mask.bit_count(),
                    (a.mask & b.mask).bit_count(), mux_degree,
                ):
                    multiplexable += 1
        fractions.append(multiplexable / total)
    return sum(fractions) / len(fractions) if fractions else 0.0


def _measure(factory: Callable[[], Topology], label: str,
             mux_degree: int) -> ScalingPoint:
    spares = {}
    fraction = 0.0
    sample = factory()
    for degree in (0, mux_degree):
        network = BCPNetwork(factory())
        establish_workload(
            network,
            all_pairs(network.topology),
            FaultToleranceQoS(num_backups=1, mux_degree=degree),
        )
        spares[degree] = network.spare_fraction()
        if degree == mux_degree:
            fraction = _multiplexable_fraction(network, mux_degree)
    return ScalingPoint(
        label=label,
        nodes=sample.num_nodes,
        mean_degree=sample.num_links / sample.num_nodes,
        spare_unshared=spares[0],
        spare_multiplexed=spares[mux_degree],
        multiplexable_fraction=fraction,
    )


def run_scaling(
    *, mux_degree: int, torus_sizes: tuple[int, ...]
) -> ScalingResult:
    """Measure the multiplexing saving across sizes and connectivities.

    Capacities are sized so the all-pairs workload produces the paper's
    ~32% network load at every scale (for a k×k torus the required
    capacity grows like k·(k²−1): both the pair count and the mean path
    length grow with k).
    """
    result = ScalingResult(mux_degree=mux_degree)
    for size in torus_sizes:
        capacity = (size * size - 1) * size / 2.56
        result.points.append(_measure(
            lambda s=size, c=capacity: torus(s, s, c),
            f"{size}x{size} torus",
            mux_degree,
        ))
    # The connectivity sweep: capacities chosen for ~32% load on each
    # topology's own workload.
    result.points.append(_measure(
        lambda: mesh(6, 6, 131.0), "6x6 mesh (degree<4)", mux_degree
    ))
    result.points.append(_measure(
        lambda: hypercube(5, 49.0), "5-cube (degree 5)", mux_degree
    ))
    return result
