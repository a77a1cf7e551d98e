"""Tests for the flat-index routing core (repro.routing.flatgraph).

Covers the golden-path equivalence contract (flat kernels vs the retained
reference implementation, bit-identical including tie-breaks and error
classes), route-cache keying, and the pickle hygiene of the compiled view.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.network import LinkId, Topology, mesh, ring, star, torus
from repro.network.generators import hypercube, random_regular, tree
from repro.network.reservations import ReservationLedger
from repro.obs import MetricsRegistry, obs_session
from repro.routing import (
    NoPathError,
    RouteConstraints,
    flat_view,
    hop_distance,
    shortest_path,
)
from tests.routing_oracle import (
    reference_hop_distance,
    reference_shortest_path,
)


def _topologies():
    return [
        torus(4, 4),
        mesh(3, 5),
        ring(9),
        star(6),
        hypercube(3),
        tree(2, 3),
        random_regular(16, 3, seed=7),
    ]


def _outcome(fn, *args, **kwargs):
    """(kind, value) pair so paths and error classes compare uniformly."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (NoPathError, ValueError, KeyError) as exc:
        return ("err", type(exc))


class TestGoldenEquivalence:
    """Flat kernels must match the reference implementation bit for bit."""

    def test_hop_distance_matches_reference(self):
        for topology in _topologies():
            nodes = list(topology.nodes())
            rng = random.Random(11)
            for _ in range(40):
                src, dst = rng.choice(nodes), rng.choice(nodes)
                assert _outcome(
                    hop_distance, topology, src, dst
                ) == _outcome(reference_hop_distance, topology, src, dst)

    def test_hop_distance_disconnected(self):
        topology = Topology()
        topology.add_node("a")
        topology.add_node("b")
        for fn in (hop_distance, reference_hop_distance):
            with pytest.raises(NoPathError):
                fn(topology, "a", "b")

    def test_unconstrained_paths_identical(self):
        for topology in _topologies():
            nodes = list(topology.nodes())
            rng = random.Random(13)
            for _ in range(30):
                src, dst = rng.sample(nodes, 2)
                flat = _outcome(shortest_path, topology, src, dst)
                ref = _outcome(reference_shortest_path, topology, src, dst)
                assert flat == ref, (topology.name, src, dst)

    def test_constrained_paths_identical(self):
        for topology in _topologies():
            nodes = list(topology.nodes())
            rng = random.Random(17)
            for _ in range(25):
                src, dst = rng.sample(nodes, 2)
                others = [n for n in nodes if n not in (src, dst)]
                excluded_nodes = frozenset(
                    rng.sample(others, min(2, len(others)))
                )
                excluded_links = frozenset(
                    rng.sample(list(topology.links()), 3)
                )
                constraints = RouteConstraints(
                    excluded_nodes=excluded_nodes,
                    excluded_links=excluded_links,
                    max_hops=rng.choice([None, 2, 4]),
                )
                flat = _outcome(
                    shortest_path, topology, src, dst, constraints
                )
                ref = _outcome(
                    reference_shortest_path, topology, src, dst, constraints
                )
                assert flat == ref, (topology.name, src, dst, constraints)

    def test_dijkstra_tie_breaks_identical(self):
        # Coarse integer-ish costs force heavy ties; the uniform zero cost
        # is all ties.  Both must still pop in the reference order.
        costs = [
            lambda link: 1.0 + (hash(link) % 7),
            lambda link: 0.0,
        ]
        for topology in _topologies():
            nodes = list(topology.nodes())
            rng = random.Random(19)
            for cost in costs:
                for _ in range(15):
                    src, dst = rng.sample(nodes, 2)
                    flat = _outcome(
                        shortest_path, topology, src, dst, None, cost
                    )
                    ref = _outcome(
                        reference_shortest_path, topology, src, dst, None,
                        cost,
                    )
                    assert flat == ref, (topology.name, src, dst)

    def test_negative_cost_raises_in_both(self):
        topology = torus(4, 4)
        for fn in (shortest_path, reference_shortest_path):
            with pytest.raises(ValueError, match="negative link cost"):
                fn(topology, 0, 5, None, lambda link: -1.0)

    def test_error_surface_parity(self):
        topology = torus(4, 4)
        cases = [
            ((0, 0), None),                     # src == dst -> ValueError
            ((0, 99), None),                    # unknown endpoint
            ((0, 5), RouteConstraints(excluded_nodes=frozenset({5}))),
        ]
        for (src, dst), constraints in cases:
            flat = _outcome(shortest_path, topology, src, dst, constraints)
            ref = _outcome(
                reference_shortest_path, topology, src, dst, constraints
            )
            assert flat == ref
            assert flat[0] == "err"

    def test_capacity_floor_matches_closure_predicate(self):
        # The reified CapacityFloor fast path must agree with an equivalent
        # opaque closure over the same ledger.
        topology = torus(4, 4)
        ledger = ReservationLedger(topology)
        for link in list(topology.links())[::3]:
            ledger.reserve_primary(link, 180.0)
        bandwidth = 50.0
        floor = ledger.capacity_floor(bandwidth)
        closure = RouteConstraints(
            link_admissible=lambda link: ledger.free(link) + 1e-9 >= bandwidth
        )
        reified = RouteConstraints(link_admissible=floor)
        nodes = list(topology.nodes())
        rng = random.Random(23)
        for _ in range(25):
            src, dst = rng.sample(nodes, 2)
            assert _outcome(
                shortest_path, topology, src, dst, reified
            ) == _outcome(shortest_path, topology, src, dst, closure)


class TestRouteCache:
    def test_static_hits_and_miss_counters(self):
        registry = MetricsRegistry()
        with obs_session(registry):
            topology = torus(4, 4)
            first = shortest_path(topology, 0, 5)
            second = shortest_path(topology, 0, 5)
            assert first == second
            assert registry.counter("route_cache.misses").value == 1
            assert registry.counter("route_cache.hits").value == 1

    def test_hop_distance_cached(self):
        topology = torus(4, 4)
        assert hop_distance(topology, 0, 5) == 2
        cache = flat_view(topology).cache
        size = len(cache)
        assert hop_distance(topology, 0, 5) == 2
        assert len(cache) == size

    def test_one_tree_per_source_answers_distances_and_routes(self):
        registry = MetricsRegistry()
        with obs_session(registry):
            topology = torus(4, 4)
            ledger = ReservationLedger(topology)
            assert hop_distance(topology, 0, 5) == 2          # builds it
            assert hop_distance(topology, 0, 10) == 4
            assert shortest_path(topology, 0, 7).hops == 2
            floor = RouteConstraints(
                link_admissible=ledger.capacity_floor(1.0), max_hops=3
            )
            assert shortest_path(topology, 0, 5, floor).hops == 2
            with pytest.raises(NoPathError):                 # depth 4 > 3
                shortest_path(topology, 0, 10, floor)
            assert registry.counter("route_cache.misses").value == 1
            assert registry.counter("route_cache.hits").value == 4
            assert list(flat_view(topology).cache.static_table()) == [0]

    def test_negative_results_cached(self):
        registry = MetricsRegistry()
        with obs_session(registry):
            topology = torus(4, 4)
            constraints = RouteConstraints(
                excluded_nodes=frozenset({1, 4}),  # isolate node 0's exits
                max_hops=1,
            )
            for _ in range(2):
                with pytest.raises(NoPathError):
                    shortest_path(topology, 0, 10, constraints)
            assert registry.counter("route_cache.hits").value == 1

    def test_equal_exclusions_share_one_entry_and_no_key_holds_a_set(self):
        registry = MetricsRegistry()
        with obs_session(registry):
            topology = torus(4, 4)
            links = list(topology.links())
            # Equal, but built separately (and in another order), plus
            # components the topology does not have, which the search
            # ignores and so must the key.
            first = RouteConstraints(
                excluded_nodes=frozenset({1, 4}),
                excluded_links=frozenset(links[-6:]),
            )
            second = RouteConstraints(
                excluded_nodes=frozenset([4, 1, "absent"]),
                excluded_links=frozenset(
                    [*reversed(links[-6:]), LinkId("absent", 0)]
                ),
            )
            assert first.excluded_nodes is not second.excluded_nodes
            found = shortest_path(topology, 0, 10, first)
            assert shortest_path(topology, 0, 10, second) is found
            assert registry.counter("route_cache.misses").value == 1
            assert registry.counter("route_cache.hits").value == 1
            table = flat_view(topology).cache.static_table()
            assert len(table) == 1
            (key,) = table
            assert not any(isinstance(part, frozenset) for part in key)
            assert all(isinstance(part, (int, type(None))) for part in key)

    def test_floor_route_reflects_a_reservation(self):
        # a->b->c is shortest but capacity-limited; once a reservation
        # saturates a->b the same search must route around it.
        topology = Topology()
        topology.add_link("a", "b", 1.0)
        topology.add_link("b", "c", 5.0)
        topology.add_link("a", "d", 5.0)
        topology.add_link("d", "e", 5.0)
        topology.add_link("e", "c", 5.0)
        ledger = ReservationLedger(topology)
        constraints = RouteConstraints(
            link_admissible=ledger.capacity_floor(1.0)
        )
        before = shortest_path(topology, "a", "c", constraints)
        assert before.nodes == ("a", "b", "c")
        version = ledger.version
        ledger.reserve_primary(topology.link("a", "b"), 1.0)
        assert ledger.version > version
        after = shortest_path(topology, "a", "c", constraints)
        assert after.nodes == ("a", "d", "e", "c")

    def test_floor_route_reflects_a_release(self):
        topology = Topology()
        topology.add_link("a", "b", 1.0)
        topology.add_link("b", "c", 5.0)
        topology.add_link("a", "d", 5.0)
        topology.add_link("d", "e", 5.0)
        topology.add_link("e", "c", 5.0)
        ledger = ReservationLedger(topology)
        link = topology.link("a", "b")
        ledger.reserve_primary(link, 1.0)
        constraints = RouteConstraints(
            link_admissible=ledger.capacity_floor(1.0)
        )
        assert shortest_path(topology, "a", "c", constraints).nodes == (
            "a", "d", "e", "c",
        )
        ledger.release_primary(link, 1.0)
        assert shortest_path(topology, "a", "c", constraints).nodes == (
            "a", "b", "c",
        )

    def test_opaque_predicates_bypass_the_cache(self):
        topology = torus(4, 4)
        calls = []

        def predicate(link):
            calls.append(link)
            return True

        constraints = RouteConstraints(link_admissible=predicate)
        shortest_path(topology, 0, 5, constraints)
        first = len(calls)
        assert first > 0
        shortest_path(topology, 0, 5, constraints)
        assert len(calls) == 2 * first  # re-evaluated, not served cached


def _diamond() -> Topology:
    # a->b->c is the shortest route; a new link a->c would undercut it.
    topology = Topology(name="diamond")
    topology.add_link("a", "b", 5.0)
    topology.add_link("b", "c", 5.0)
    topology.add_link("a", "d", 5.0)
    topology.add_link("d", "e", 5.0)
    topology.add_link("e", "c", 5.0)
    return topology


class TestTopologyVersion:
    """A flat view never goes stale: the topology it compiles is frozen.

    Compiling the view freezes the topology, so a mutation that would make
    the view, or a route it caches, stale is refused.
    """

    def test_stale_view_search_raises(self):
        topology = _diamond()
        view = flat_view(topology)
        with pytest.raises(ValueError, match="'diamond' is frozen"):
            topology.add_link("a", "c", 5.0)
        # The refused mutation left nothing for the view to miss.
        assert flat_view(topology) is view
        assert shortest_path(topology, "a", "c").nodes == ("a", "b", "c")
        assert _outcome(shortest_path, topology, "a", "c") == _outcome(
            reference_shortest_path, topology, "a", "c"
        )

    def test_mutation_invalidates_flat_view_and_routes(self):
        topology = _diamond()
        route = shortest_path(topology, "a", "c")
        view = topology._flat
        assert view is not None
        links = list(topology.links())
        for mutate in (
            lambda: topology.add_node("f"),
            lambda: topology.add_link("a", "c", 5.0),
            lambda: topology.add_duplex_link("c", "f", 5.0),
        ):
            with pytest.raises(ValueError, match="'diamond' is frozen"):
                mutate()
        # Nothing changed, so nothing needs invalidating: the same view
        # answers with the same route.
        assert list(topology.links()) == links
        assert "f" not in set(topology.nodes())
        assert topology._flat is view
        assert shortest_path(topology, "a", "c") == route

    def test_identical_query_not_served_stale_after_mutation(self):
        registry = MetricsRegistry()
        with obs_session(registry):
            topology = _diamond()
            first = shortest_path(topology, "a", "c")
            with pytest.raises(ValueError, match="'diamond' is frozen"):
                topology.add_link("a", "c", 5.0)
            # A grown graph is a new topology with a view of its own; the
            # frozen one keeps answering from its unchanged graph.
            grown = _diamond()
            grown.add_link("a", "c", 5.0)
            assert shortest_path(grown, "a", "c").nodes == ("a", "c")
            assert shortest_path(topology, "a", "c") == first
            assert first.nodes == ("a", "b", "c")
            assert registry.counter("route_cache.misses").value == 2
            assert registry.counter("route_cache.hits").value == 1


class TestPickleHygiene:
    def test_flat_view_dropped_from_pickles(self):
        topology = torus(4, 4)
        path = shortest_path(topology, 0, 5)
        assert topology._flat is not None
        clone = pickle.loads(pickle.dumps(topology))
        assert clone._flat is None
        assert shortest_path(clone, 0, 5) == path

    def test_link_id_pickle_round_trip(self):
        link = torus(2, 2).link(0, 1)
        clone = pickle.loads(pickle.dumps(link))
        assert clone == link
        assert hash(clone) == hash(link)
