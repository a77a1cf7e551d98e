"""Figure 9: average spare-bandwidth reservation vs. network load.

The paper plots, for each multiplexing degree, the spare-bandwidth
fraction as connections are established incrementally (x-axis: the
network-load that the already-established primaries produce), in three
panels: (a) single backup in the torus, (b) double backups in the torus,
(c) single backup in the mesh.

``run_figure9`` regenerates one panel: one curve per mux degree, each
point a (network-load, spare-fraction) checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channels.qos import FaultToleranceQoS
from repro.experiments.setup import load_network
from repro.network.spec import TopologySpec
from repro.util.tables import format_percent, format_table

@dataclass
class Figure9Result:
    """One panel of Figure 9."""

    #: ``Topology.name`` of the evaluated network.
    topology: str
    num_backups: int
    #: mux degree -> [(network_load, spare_fraction), ...] checkpoints.
    curves: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    #: mux degree -> True when the full workload fit (else the curve stops
    #: early; the paper's N/A condition).
    complete: dict[int, bool] = field(default_factory=dict)

    def final_spare(self, degree: int) -> "float | None":
        """Spare fraction at the last checkpoint of one curve."""
        curve = self.curves.get(degree)
        if not curve:
            return None
        return curve[-1][1]

    def format(self) -> str:
        """Render the per-degree load/spare checkpoints as a table."""
        degrees = sorted(self.curves)
        rows = []
        checkpoints = max(len(curve) for curve in self.curves.values())
        for index in range(checkpoints):
            row: list[object] = []
            for degree in degrees:
                curve = self.curves[degree]
                if index < len(curve):
                    load, spare = curve[index]
                    row.extend([format_percent(load), format_percent(spare)])
                else:
                    row.extend(["-", "-"])
            rows.append(row)
        headers = []
        for degree in degrees:
            suffix = "" if self.complete.get(degree, True) else " (N/A)"
            headers.extend([f"load mux={degree}{suffix}", f"spare mux={degree}"])
        title = (
            f"Figure 9: spare bandwidth vs network load — "
            f"{self.topology}, {self.num_backups} backup(s)"
        )
        return format_table(headers, rows, title=title)


def run_figure9(
    config: TopologySpec,
    *,
    num_backups: int,
    mux_degrees: tuple[int, ...],
    checkpoints: int,
) -> Figure9Result:
    """Regenerate one Figure 9 panel.

    A fresh network is loaded per mux degree (the paper's per-curve
    simulation); ``checkpoints`` controls the sampling resolution along
    the establishment sequence.
    """
    topology = config.build()
    result = Figure9Result(topology=topology.name, num_backups=num_backups)
    nodes = topology.num_nodes
    total_connections = nodes * (nodes - 1)
    every = max(1, total_connections // checkpoints)
    for degree in mux_degrees:
        qos = FaultToleranceQoS(num_backups=num_backups, mux_degree=degree)
        _, report = load_network(config, qos, checkpoint_every=every)
        result.curves[degree] = report.checkpoints
        result.complete[degree] = report.essentially_complete
    return result
