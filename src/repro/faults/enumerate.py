"""Scenario enumerators for the paper's three failure models."""

from __future__ import annotations

from itertools import combinations

from repro.faults.models import FailureScenario
from repro.network.topology import Topology
from repro.util.rng import make_rng


def all_single_link_failures(topology: Topology) -> list[FailureScenario]:
    """One scenario per simplex link (exhaustive single-link model)."""
    return [FailureScenario.of_links([link]) for link in topology.links()]


def all_single_node_failures(topology: Topology) -> list[FailureScenario]:
    """One scenario per node (exhaustive single-node model)."""
    return [FailureScenario.of_nodes([node]) for node in topology.nodes()]


def sample_double_node_failures(
    topology: Topology, count: int, seed: "int | None" = 0
) -> list[FailureScenario]:
    """``count`` distinct node pairs sampled uniformly without replacement.

    Falls back to the exhaustive list when ``count`` covers all pairs.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    pairs = list(combinations(topology.nodes(), 2))
    if count >= len(pairs):
        return [FailureScenario.of_nodes(pair) for pair in pairs]
    rng = make_rng(seed)
    return [FailureScenario.of_nodes(pair) for pair in rng.sample(pairs, count)]
