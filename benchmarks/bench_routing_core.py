"""Microbenchmarks of the flat-index routing core.

These are the benchmarks gated by ``scripts/check_bench_regression.py``
against the committed ``benchmarks/BENCH_routing.json`` baseline.  The
reference-kernel benchmark is the *calibration anchor*: the gate compares
flat-kernel medians normalised by the anchor's median, so a slower or
faster CI machine shifts every number together and only genuine
regressions of flat-vs-reference relative speed trip the gate.
"""

from __future__ import annotations

import pytest

from repro.network import torus
from repro.network.reservations import ReservationLedger
from repro.routing import (
    RouteConstraints,
    flat_view,
    shortest_path,
)
from repro.routing.flatgraph import RouteCache
from repro.routing.shortest import hop_distance
from tests.routing_oracle import reference_shortest_path

TOPOLOGY = torus(8, 8, capacity=200.0)
DEEP_PAIR = (0, 36)  # torus antipode (4+4 wrap distance): the deepest search


@pytest.fixture
def uncached(benchmark):
    """Time the kernel itself: every round runs once against a fresh,
    empty :class:`RouteCache`, so nothing is ever served memoised."""
    flat = flat_view(TOPOLOGY)

    def empty_cache():
        flat.cache = RouteCache()

    def run(function, *args):
        benchmark.pedantic(
            function, args=args, setup=empty_cache, rounds=3000,
            warmup_rounds=100,
        )

    return run


def test_calibration_reference_bfs(benchmark):
    """Calibration anchor — the retained dict-based reference kernel."""
    benchmark(reference_shortest_path, TOPOLOGY, *DEEP_PAIR)


def test_flat_bfs_uncached(uncached):
    uncached(shortest_path, TOPOLOGY, *DEEP_PAIR)


def test_flat_bfs_cache_hit(benchmark):
    shortest_path(TOPOLOGY, *DEEP_PAIR)  # warm the route cache
    benchmark(shortest_path, TOPOLOGY, *DEEP_PAIR)


def test_flat_hop_distance_uncached(uncached):
    uncached(hop_distance, TOPOLOGY, *DEEP_PAIR)


def test_flat_capacity_floor_uncached(uncached):
    ledger = ReservationLedger(TOPOLOGY)
    for link in list(TOPOLOGY.links())[::5]:
        ledger.reserve_primary(link, 180.0)
    constraints = RouteConstraints(link_admissible=ledger.capacity_floor(50.0))
    uncached(shortest_path, TOPOLOGY, *DEEP_PAIR, constraints)


def test_flat_dijkstra_uncached(benchmark):
    # A custom cost function is never memoised: nothing to empty.
    cost = lambda link: 1.0 + (hash(link) % 7)  # noqa: E731 - benchmark body
    benchmark(shortest_path, TOPOLOGY, *DEEP_PAIR, None, cost)
