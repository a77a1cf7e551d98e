"""Routes read off one cached BFS tree per source, held to the reference.

``FlatTopology`` answers ``hop_distance``, every exclusion-free search and
every capacity-floor search the floor cannot change by walking up the
full unconstrained BFS tree of the source; other floor searches run the
BFS.  Whichever way a search goes, it must return exactly what the
dict-based reference kernel (``tests/routing_oracle.py``) returns with the
equivalent closure predicate.  The loads below are seeded ledger walks
that push links under the floor and release them again, on one ledger,
two alternating ledgers, and one ledger under a failure, routed with
exclusions and held to the reference on the residual copy.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.channels import FaultToleranceQoS
from repro.core.bcp import BCPNetwork
from repro.network import Topology, torus
from repro.network.reservations import ReservationLedger
from repro.routing import (
    NoPathError,
    RouteConstraints,
    hop_distance,
    shortest_path,
)
from repro.routing.flatgraph import FlatTopology
from tests.routing_oracle import (
    reference_hop_distance,
    reference_shortest_path,
    residual_topology,
)
from tests.test_flatgraph import _outcome, _topologies


def _one_way() -> Topology:
    """A directed ring with one-way chords and an isolated node: many
    ordered pairs have no route, and a route back is not the reverse."""
    topology = Topology(name="one-way")
    for i in range(8):
        topology.add_link(i, (i + 1) % 8, 10.0)
    for src, dst in ((0, 4), (5, 2), (3, 7), (6, 1)):
        topology.add_link(src, dst, 10.0)
    topology.add_node(8)
    return topology


def topologies() -> list[Topology]:
    return [*_topologies(), _one_way()]


class LoadWalk:
    """Seeded pushes of links below (and back above) a floor."""

    def __init__(self, ledger: ReservationLedger, seed: int) -> None:
        self.ledger = ledger
        self.links = list(ledger.topology.links())
        self.rng = random.Random(seed)

    def step(self) -> None:
        link = self.rng.choice(self.links)
        held = self.ledger.primary_reserved(link)
        if held and self.rng.random() < 0.4:
            self.ledger.release_primary(link, held)
        else:
            # Leave between 0 and 6 units free: under, at or over the
            # floors the queries ask for.
            target = self.rng.choice([0.0, 1.0, 2.0, 3.0 - 1e-12, 3.0, 6.0])
            take = self.ledger.free(link) - target
            if take > 0:
                self.ledger.reserve_primary(link, take)


class Queries:
    """Random ``(src, dst, bandwidth, max_hops)`` searches compared with
    the reference; counts which way the flat view answered them."""

    BANDWIDTHS = (0.5, 1.0, 3.0, 2.0)

    def __init__(self, monkeypatch, seed: int) -> None:
        self.rng = random.Random(seed)
        self.searches = 0
        self.bfs = 0
        original = FlatTopology._run_bfs

        def counted(view, *args):
            self.bfs += 1
            return original(view, *args)

        monkeypatch.setattr(FlatTopology, "_run_bfs", counted)

    def check(self, topology: Topology, ledger: ReservationLedger,
              count: int) -> None:
        nodes = list(topology.nodes())
        for _ in range(count):
            src, dst = self.rng.sample(nodes, 2)
            bandwidth = self.rng.choice(self.BANDWIDTHS)
            hops = _outcome(reference_hop_distance, topology, src, dst)
            limits = [None, 0]
            if hops[0] == "ok":
                d = hops[1]
                limits += [d - 1, d, d + 2]
            max_hops = self.rng.choice(limits)
            floor = RouteConstraints(
                link_admissible=ledger.capacity_floor(bandwidth),
                max_hops=max_hops,
            )
            closure = RouteConstraints(
                link_admissible=lambda link: ledger.can_reserve_primary(
                    link, bandwidth),
                max_hops=max_hops,
            )
            plain = RouteConstraints(max_hops=max_hops)
            self.searches += 1
            assert _outcome(shortest_path, topology, src, dst, floor) == (
                _outcome(reference_shortest_path, topology, src, dst, closure)
            ), (topology.name, src, dst, bandwidth, max_hops)
            assert _outcome(shortest_path, topology, src, dst, plain) == (
                _outcome(reference_shortest_path, topology, src, dst, plain)
            ), (topology.name, src, dst, max_hops)


class TestHopDistance:
    @pytest.mark.parametrize("topology", topologies(),
                             ids=lambda topology: topology.name)
    def test_every_pair_matches_the_reference(self, topology):
        nodes = list(topology.nodes())
        for src in nodes:
            for dst in nodes:
                assert _outcome(hop_distance, topology, src, dst) == _outcome(
                    reference_hop_distance, topology, src, dst
                ), (topology.name, src, dst)

    def test_unknown_endpoints_are_no_path_errors(self):
        topology = torus(4, 4)
        for fn in (hop_distance, reference_hop_distance):
            for src, dst in ((0, 99), (99, 0), (99, 99), ("x", 3)):
                with pytest.raises(NoPathError, match="unknown endpoint"):
                    fn(topology, src, dst)


class TestFloorSearches:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_ledger_under_a_moving_load(self, monkeypatch, seed):
        queries = Queries(monkeypatch, seed)
        for topology in topologies():
            ledger = ReservationLedger(topology)
            walk = LoadWalk(ledger, seed)
            for _ in range(30):
                for _ in range(4):
                    walk.step()
                queries.check(topology, ledger, 4)
        # Both ways of answering were taken: the tree, and the BFS the
        # floor forces.
        assert 0 < queries.bfs < queries.searches

    def test_a_higher_floor_sees_links_a_lower_one_let_through(self):
        # 0->1->2 is the tree route; with 2 units left on it, floors of 1
        # and 2 keep it and a floor of 3 must take 0->3->2 instead, each
        # time the bar goes up and again once it is there.
        topology = torus(4, 4, 6.0)
        ledger = ReservationLedger(topology)
        tree_route = shortest_path(topology, 0, 2)
        assert tree_route.nodes == (0, 1, 2)
        ledger.reserve_primary_path(tree_route.links, 4.0)
        for bandwidth in (1.0, 3.0, 2.0, 3.0, 6.0):
            closure = RouteConstraints(
                link_admissible=lambda link: ledger.can_reserve_primary(
                    link, bandwidth))
            floor = RouteConstraints(
                link_admissible=ledger.capacity_floor(bandwidth))
            found = shortest_path(topology, 0, 2, floor)
            assert found == reference_shortest_path(topology, 0, 2, closure)
            assert (found == tree_route) == (bandwidth <= 2.0), bandwidth

    def test_only_a_cut_tree_edge_found_first_forces_the_bfs(
        self, monkeypatch
    ):
        queries = Queries(monkeypatch, 0)
        topology = torus(4, 4, 6.0)
        ledger = ReservationLedger(topology)
        far = shortest_path(topology, 0, 10)
        assert shortest_path(topology, 0, 5).nodes == (0, 1, 5)
        # 4->5 is no tree edge of source 0, and 10 is found after 1 and 5.
        ledger.reserve_primary(topology.link(4, 5), 6.0)
        ledger.reserve_primary(far.links[-1], 6.0)
        floor = RouteConstraints(link_admissible=ledger.capacity_floor(1.0))
        served = [shortest_path(topology, 0, dst, floor) for dst in (5, 1)]
        assert [path.nodes for path in served] == [(0, 1, 5), (0, 1)]
        assert queries.bfs == 0
        detour = shortest_path(topology, 0, 10, floor)
        assert queries.bfs == 1
        assert detour != far and detour.hops == far.hops

    def test_two_ledgers_alternating_on_one_topology(self, monkeypatch):
        queries = Queries(monkeypatch, 7)
        topology = torus(4, 4, 6.0)
        ledgers = [ReservationLedger(topology), ReservationLedger(topology)]
        walks = [LoadWalk(ledger, seed) for seed, ledger in enumerate(ledgers)]
        rng = random.Random(3)
        for _ in range(120):
            for walk in walks:
                walk.step()
            queries.check(topology, ledgers[rng.randrange(2)], 2)
        assert 0 < queries.bfs < queries.searches

    def test_residual_topology_follows_the_live_ledger(self, monkeypatch):
        """A failure is an exclusion on the live topology: each floor and
        plain search under it returns what the reference returns on the
        residual copy, gated by the same live ledger."""
        queries = Queries(monkeypatch, 11)
        topology = torus(4, 4, 6.0)
        ledger = ReservationLedger(topology)
        dead_links = list(topology.links())[:6]
        residual = residual_topology(topology, [5], dead_links)
        failed = RouteConstraints(excluded_nodes=frozenset({5}),
                                  excluded_links=frozenset(dead_links))
        nodes = list(residual.nodes())
        walk = LoadWalk(ledger, 5)
        for _ in range(120):
            walk.step()
            walk.step()
            src, dst = queries.rng.sample(nodes, 2)
            bandwidth = queries.rng.choice(Queries.BANDWIDTHS)
            max_hops = queries.rng.choice([None, 2, 4])
            floor = replace(failed, max_hops=max_hops,
                            link_admissible=ledger.capacity_floor(bandwidth))
            closure = RouteConstraints(
                link_admissible=lambda link: ledger.can_reserve_primary(
                    link, bandwidth),
                max_hops=max_hops,
            )
            assert _outcome(shortest_path, topology, src, dst, floor) == (
                _outcome(reference_shortest_path, residual, src, dst, closure)
            ), (src, dst, bandwidth, max_hops)
            plain = replace(failed, max_hops=max_hops)
            assert _outcome(shortest_path, topology, src, dst, plain) == (
                _outcome(reference_shortest_path, residual, src, dst,
                         RouteConstraints(max_hops=max_hops))
            ), (src, dst, max_hops)
        # Every floor search excludes something, so each ran the BFS.
        assert queries.bfs >= 120


class TestWorkCount:
    def test_one_bfs_per_establishment_and_it_is_the_backups(
        self, monkeypatch
    ):
        """A primary is a walk up its source's tree; only the backup
        search, which excludes the primary, runs the BFS (at the parent of
        this change the primary ran it too: two per establishment)."""
        calls = []
        original = FlatTopology._run_bfs

        def counted(view, s, t, ep, max_hops, floor_bw, pred):
            calls.append(floor_bw)
            return original(view, s, t, ep, max_hops, floor_bw, pred)

        monkeypatch.setattr(FlatTopology, "_run_bfs", counted)
        network = BCPNetwork(torus(4, 4, 200.0))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=3)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    network.establish(src, dst, ft_qos=qos)
        assert network.num_connections == 240
        assert calls == [None] * 240
