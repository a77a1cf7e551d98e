#!/usr/bin/env python
"""Capacity planning: how much does fault-tolerance cost on *your* network?

A network operator's view of the paper's Figure 9 and Table 1: given a
topology and an expected traffic matrix, sweep the backup configurations
and print the spare-bandwidth overhead next to the failure coverage each
buys, including the brute-force and local-detour alternatives.

Swap in your own topology with repro.network.from_edge_list() (one
"src dst capacity" line per duplex link) — everything else is
topology-agnostic.

Run:  python examples/capacity_planning.py
"""

from repro import BCPNetwork, FaultToleranceQoS
from repro.baselines import (
    brute_force_evaluator,
    plan_local_detours,
)
from repro.experiments.workloads import all_pairs, establish_workload
from repro.faults import all_single_link_failures, all_single_node_failures
from repro.network.generators import hypercube
from repro.recovery import RecoveryEvaluator
from repro.util.tables import format_percent, format_table


def sweep(topology_factory, configurations):
    rows = []
    for label, backups, degree in configurations:
        network = BCPNetwork(topology_factory())
        report = establish_workload(
            network,
            all_pairs(network.topology),
            FaultToleranceQoS(num_backups=backups, mux_degree=degree),
        )
        if not report.complete:
            rows.append([label, "N/A", "N/A", "N/A", "N/A"])
            continue
        evaluator = RecoveryEvaluator(network)
        links = evaluator.evaluate_many(
            all_single_link_failures(network.topology))
        nodes = evaluator.evaluate_many(
            all_single_node_failures(network.topology))
        brute = brute_force_evaluator(network).evaluate_many(
            all_single_link_failures(network.topology))
        rows.append([
            label,
            format_percent(network.spare_fraction()),
            format_percent(links.r_fast),
            format_percent(nodes.r_fast),
            format_percent(brute.r_fast),
        ])
    return rows


def main() -> None:
    # Plan for a 32-node hypercube backbone (degree 5, well-connected).
    topology_factory = lambda: hypercube(5, capacity=150.0)

    configurations = [
        ("no backups", 0, 0),
        ("1 backup, no sharing (mux=0)", 1, 0),
        ("1 backup, mux=1 (all single failures)", 1, 1),
        ("1 backup, mux=3 (all link failures)", 1, 3),
        ("1 backup, mux=6 (cheapest)", 1, 6),
        ("2 backups, mux=6", 2, 6),
    ]
    rows = sweep(topology_factory, configurations)
    print(format_table(
        ["configuration", "spare", "R_fast 1-link", "R_fast 1-node",
         "brute-force 1-link"],
        rows,
        title="Fault-tolerance cost sheet — 32-node hypercube, all-pairs "
              "traffic",
    ))

    # And the pre-planned local-detour alternative at a glance.
    network = BCPNetwork(topology_factory())
    establish_workload(network, all_pairs(network.topology),
                       FaultToleranceQoS(num_backups=0, mux_degree=0))
    plan = plan_local_detours(network)
    print(f"\nlocal-detour baseline: spare "
          f"{format_percent(plan.spare_fraction)} for single-link coverage "
          f"{format_percent(plan.recovery_ratio_single_link(network))} "
          f"(avg stretch "
          f"{sum(plan.stretch(l) for l in plan.detours) / len(plan.detours):.1f}"
          f" extra hops per detour)")


if __name__ == "__main__":
    main()
