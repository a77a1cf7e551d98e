"""Section 7.1/7.4: inhomogeneous traffic and topology sensitivity.

The paper reports (prose, no table): multiplexing efficiency is "relatively
insensitive to network traffic conditions, but more sensitive to network
topology — less effective in sparsely-connected networks", and under
hot-spots or mixed bandwidths "the efficiency of the brute-force scheme
degrades significantly unlike the proposed scheme".

This experiment quantifies both claims: for each workload variant
(uniform, hotspot, mixed-bandwidth) and each topology (torus, mesh, and a
sparse ring-like variant), it reports the proposed scheme's spare fraction
and the R_fast gap to brute-force under single link failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.bruteforce import brute_force_evaluator
from repro.channels.qos import FaultToleranceQoS
from repro.core.bcp import BCPNetwork
from repro.core.overlap import OverlapPolicy
from repro.experiments.workloads import (
    all_pairs,
    establish_workload,
    hotspot_pairs,
    mixed_bandwidth_traffic,
    uniform_traffic,
)
from repro.faults.enumerate import all_single_link_failures
from repro.network.spec import TopologySpec
from repro.recovery import RecoveryEvaluator
from repro.util.tables import format_percent, format_table


@dataclass
class InhomogeneousCell:
    spare: "float | None" = None
    proposed_r_fast: "float | None" = None
    bruteforce_r_fast: "float | None" = None

    @property
    def advantage(self) -> "float | None":
        if self.proposed_r_fast is None or self.bruteforce_r_fast is None:
            return None
        return self.proposed_r_fast - self.bruteforce_r_fast


@dataclass
class InhomogeneousResult:
    cells: dict[tuple[str, str], InhomogeneousCell] = field(default_factory=dict)

    def format(self) -> str:
        """Render the sensitivity table."""
        rows = [
            [
                topology,
                workload,
                format_percent(cell.spare),
                format_percent(cell.proposed_r_fast),
                format_percent(cell.bruteforce_r_fast),
                format_percent(cell.advantage, digits=2),
            ]
            for (topology, workload), cell in sorted(self.cells.items())
        ]
        return format_table(
            ["topology", "workload", "spare", "proposed R_fast",
             "brute-force R_fast", "advantage"],
            rows,
            title="Section 7.1/7.4: inhomogeneity and topology sensitivity "
                  "(single link failures)",
        )


def topologies(rows: int, cols: int) -> dict[str, TopologySpec]:
    """The swept networks by row label: the paper's torus and mesh, and a
    3-regular graph on as many nodes (an odd count has none)."""
    return {
        "torus": TopologySpec("torus", rows, cols),
        "mesh": TopologySpec("mesh", rows, cols),
        "sparse(3-reg)": TopologySpec(
            "random_regular", size=rows * cols, degree=3, capacity=250.0
        ),
    }


def run_inhomogeneous(
    *, rows: int, cols: int, mux_degree: int
) -> InhomogeneousResult:
    """Sweep workload variants across topologies (single backups; the four
    lowest-numbered nodes are the hotspots)."""
    result = InhomogeneousResult()
    qos = FaultToleranceQoS(num_backups=1, mux_degree=mux_degree)
    for topo_name, spec in topologies(rows, cols).items():
        topology_sample = spec.build()
        hotspots = sorted(topology_sample.nodes())[:4]
        workloads = {
            "uniform": (all_pairs(topology_sample), uniform_traffic(1.0)),
            "hotspot": (
                hotspot_pairs(topology_sample, hotspots),
                uniform_traffic(1.0),
            ),
            "mixed-bw": (
                all_pairs(topology_sample),
                mixed_bandwidth_traffic(),
            ),
        }
        for workload_name, (pairs, traffic) in workloads.items():
            network = BCPNetwork(spec.build(), policy=OverlapPolicy())
            establish_workload(network, pairs, qos, traffic=traffic)
            cell = InhomogeneousCell(spare=network.spare_fraction())
            scenarios = all_single_link_failures(network.topology)
            cell.proposed_r_fast = (
                RecoveryEvaluator(network).evaluate_many(scenarios).r_fast
            )
            cell.bruteforce_r_fast = (
                brute_force_evaluator(network).evaluate_many(scenarios).r_fast
            )
            result.cells[(topo_name, workload_name)] = cell
    return result
