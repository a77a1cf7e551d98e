"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.multiplexing import LinkMuxState
from repro.core.overlap import (
    ComponentSpace,
    OverlapPolicy,
    simultaneous_activation_probability,
)
from repro.core.reliability import (
    p_muxf_upper_bound,
    pr_multiple_backups,
)
from repro.network.components import LinkId
from repro.network.reservations import ReservationLedger
from repro.network.topology import Topology
from repro.recovery.metrics import RecoveryStats
from repro.routing.paths import Path, shared_component_count
from repro.sim.engine import EventEngine
from repro.util.tables import format_table

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

node_lists = st.lists(
    st.integers(min_value=0, max_value=50), min_size=2, max_size=10, unique=True
)


@st.composite
def paths(draw):
    return Path(draw(node_lists))


@st.composite
def mux_operations(draw):
    """A random sequence of backup add/remove operations on one link."""
    count = draw(st.integers(min_value=1, max_value=12))
    operations = []
    live = []
    next_id = 0
    for _ in range(count):
        if live and draw(st.booleans()) and draw(st.booleans()):
            victim = draw(st.sampled_from(live))
            live.remove(victim)
            operations.append(("remove", victim, None, None, None))
        else:
            nodes = draw(node_lists)
            degree = draw(st.integers(min_value=0, max_value=8))
            bandwidth = draw(
                st.floats(min_value=0.5, max_value=8.0, allow_nan=False)
            )
            operations.append(("add", next_id, nodes, degree, bandwidth))
            live.append(next_id)
            next_id += 1
    return operations


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


class TestPathProperties:
    @given(paths())
    def test_component_count_is_nodes_plus_links(self, path):
        assert len(path.components) == len(path.nodes) + path.hops

    @given(node_lists)
    @example([7, 3])  # one hop: no transit node at all
    def test_component_count_is_the_size_of_the_set(self, nodes):
        # Arithmetic first, on a path that has built no set yet.
        path = Path(nodes)
        with_endpoints = path.component_count(True)
        without = path.component_count(False)
        assert path._components is None and path._transit is None
        assert with_endpoints == len(path.components)
        assert without == len(path.transit_components)

    @given(paths())
    def test_links_match_hops(self, path):
        assert len(path.links) == path.hops
        for link, (a, b) in zip(path.links, zip(path.nodes, path.nodes[1:])):
            assert link == LinkId(a, b)

    @given(paths(), paths())
    def test_shared_count_symmetric(self, a, b):
        assert shared_component_count(a, b) == shared_component_count(b, a)

    @given(paths(), paths())
    def test_shared_count_bounded(self, a, b):
        shared = shared_component_count(a, b)
        assert 0 <= shared <= min(len(a.components), len(b.components))

    @given(paths())
    def test_path_shares_everything_with_itself(self, path):
        assert shared_component_count(path, path) == len(path.components)

    @given(paths(), st.integers(min_value=0, max_value=60))
    def test_intersects_iff_membership(self, path, probe):
        assert path.intersects(frozenset({probe})) == (probe in path.components)


# ---------------------------------------------------------------------------
# overlap / S formula
# ---------------------------------------------------------------------------


class TestOverlapProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    )
    def test_s_is_probability(self, ci, cj, shared, lam):
        shared = min(shared, ci, cj)
        s = simultaneous_activation_probability(ci, cj, shared, lam)
        assert -1e-12 <= s <= 1.0 + 1e-12

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=1e-6, max_value=0.2, allow_nan=False),
    )
    def test_s_monotone_in_overlap(self, ci, cj, lam):
        values = [
            simultaneous_activation_probability(ci, cj, shared, lam)
            for shared in range(min(ci, cj) + 1)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=30),
    )
    def test_zero_lambda_never_coactivates(self, ci, cj, shared):
        shared = min(shared, ci, cj)
        assert simultaneous_activation_probability(ci, cj, shared, 0.0) == 0.0

    @given(paths(), paths(), st.integers(min_value=0, max_value=10))
    def test_multiplexable_symmetric_at_equal_degree(self, a, b, degree):
        policy = OverlapPolicy()
        assert policy.multiplexable(a, b, degree) == policy.multiplexable(
            b, a, degree
        )


# ---------------------------------------------------------------------------
# multiplexing engine
# ---------------------------------------------------------------------------


#: One interner for every drawn primary, as an engine has.
SPACE = ComponentSpace()


class TestMuxStateProperties:
    @given(mux_operations())
    @settings(max_examples=60, deadline=None)
    def test_incremental_always_matches_recompute(self, operations):
        state = LinkMuxState(LinkId("x", "y"), OverlapPolicy())
        for op in operations:
            if op[0] == "add":
                _, cid, nodes, degree, bandwidth = op
                state.add(cid, bandwidth, degree, SPACE.path_mask(Path(nodes)))
            else:
                state.remove(op[1])
            incremental = state.spare_required()
            recomputed = state.spare_required_recomputed()
            assert abs(incremental - recomputed) < 1e-9

    @given(mux_operations())
    @settings(max_examples=60, deadline=None)
    def test_spare_bounded_by_sum_and_max(self, operations):
        state = LinkMuxState(LinkId("x", "y"), OverlapPolicy())
        live: dict[int, float] = {}
        for op in operations:
            if op[0] == "add":
                _, cid, nodes, degree, bandwidth = op
                state.add(cid, bandwidth, degree, SPACE.path_mask(Path(nodes)))
                live[cid] = bandwidth
            else:
                state.remove(op[1])
                live.pop(op[1], None)
            spare = state.spare_required()
            if live:
                assert spare >= max(live.values()) - 1e-9
                assert spare <= sum(live.values()) + 1e-9
            else:
                assert spare == 0.0

    @given(mux_operations())
    @settings(max_examples=40, deadline=None)
    def test_preview_equals_add(self, operations):
        state = LinkMuxState(LinkId("x", "y"), OverlapPolicy())
        for op in operations:
            if op[0] != "add":
                continue
            _, cid, nodes, degree, bandwidth = op
            mask = SPACE.path_mask(Path(nodes))
            preview = state.preview_add(bandwidth, degree, mask)
            actual = state.add(cid, bandwidth, degree, mask)
            assert abs(preview - actual) < 1e-9


# ---------------------------------------------------------------------------
# reliability formulas
# ---------------------------------------------------------------------------


class TestReliabilityProperties:
    @given(
        st.integers(min_value=0, max_value=30),
        st.lists(st.integers(min_value=0, max_value=30), max_size=4),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_pr_is_probability(self, primary, backups, lam):
        value = pr_multiple_backups(primary, backups, lam)
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(
        st.integers(min_value=1, max_value=20),
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
        st.floats(min_value=1e-6, max_value=0.3, allow_nan=False),
    )
    def test_extra_backup_never_hurts(self, primary, backups, lam):
        fewer = pr_multiple_backups(primary, backups[:-1], lam)
        more = pr_multiple_backups(primary, backups, lam)
        assert more >= fewer - 1e-12

    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=8),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_p_muxf_bound_is_probability(self, psi_sizes, nu):
        value = p_muxf_upper_bound(psi_sizes, nu)
        assert 0.0 <= value <= 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=5),
        st.floats(min_value=1e-6, max_value=0.1, allow_nan=False),
    )
    def test_p_muxf_monotone_in_psi(self, psi_sizes, nu):
        bigger = [size + 1 for size in psi_sizes]
        assert p_muxf_upper_bound(bigger, nu) >= p_muxf_upper_bound(
            psi_sizes, nu
        )


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------


class TestLedgerProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["reserve", "release", "spare"]),
                st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
            ),
            max_size=30,
        )
    )
    def test_invariants_under_random_operations(self, operations):
        topology = Topology()
        link = topology.add_link("a", "b", 100.0)
        ledger = ReservationLedger(topology)
        reserved = 0.0
        for action, amount in operations:
            entry = ledger.ledger(link)
            if action == "reserve" and ledger.can_reserve_primary(link, amount):
                ledger.reserve_primary(link, amount)
                reserved += amount
            elif action == "release" and amount <= reserved:
                ledger.release_primary(link, amount)
                reserved -= amount
            elif action == "spare" and ledger.can_set_spare(link, amount):
                ledger.set_spare(link, amount)
            entry = ledger.ledger(link)
            assert entry.primary >= -1e-9
            assert entry.spare >= 0.0
            assert entry.reserved <= entry.capacity + 1e-6
            assert abs(entry.free - (entry.capacity - entry.reserved)) < 1e-9


# ---------------------------------------------------------------------------
# routing vs networkx oracle
# ---------------------------------------------------------------------------


@st.composite
def random_topologies(draw):
    """A random connected duplex topology with 4-12 nodes."""
    import networkx as nx

    count = draw(st.integers(min_value=4, max_value=12))
    extra = draw(st.integers(min_value=0, max_value=count * 2))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    graph = nx.random_labeled_tree(count, seed=seed)
    rng = __import__("random").Random(seed)
    for _ in range(extra):
        a, b = rng.sample(range(count), 2)
        graph.add_edge(a, b)
    topology = Topology(name="random")
    for node in range(count):
        topology.add_node(node)
    for a, b in graph.edges:
        topology.add_duplex_link(a, b, 100.0)
    return topology


class TestRoutingOracle:
    @given(random_topologies(), st.integers(0, 11), st.integers(0, 11))
    @settings(max_examples=60, deadline=None)
    def test_bfs_matches_networkx_distances(self, topology, a, b):
        import networkx as nx

        from repro.routing import hop_distance, shortest_path
        from tests.routing_oracle import to_networkx

        nodes = sorted(topology.nodes())
        src, dst = nodes[a % len(nodes)], nodes[b % len(nodes)]
        if src == dst:
            return
        graph = to_networkx(topology)
        expected = nx.shortest_path_length(graph, src, dst)
        assert hop_distance(topology, src, dst) == expected
        assert shortest_path(topology, src, dst).hops == expected

    @given(random_topologies(), st.integers(0, 11), st.integers(0, 11))
    @settings(max_examples=40, deadline=None)
    def test_sequential_disjoint_bounded_by_max_flow(self, topology, a, b):
        import networkx as nx

        from repro.routing import DisjointPathError, sequential_disjoint_paths
        from tests.routing_oracle import to_networkx

        nodes = sorted(topology.nodes())
        src, dst = nodes[a % len(nodes)], nodes[b % len(nodes)]
        if src == dst:
            return
        optimum = len(list(nx.node_disjoint_paths(
            to_networkx(topology), src, dst
        )))
        try:
            found = sequential_disjoint_paths(topology, src, dst, optimum)
        except DisjointPathError as error:
            found = error.found
        # Greedy may find fewer than the max-flow optimum, never more; and
        # whatever it finds must be mutually disjoint.
        assert 1 <= len(found) <= optimum
        for i in range(len(found)):
            for j in range(i + 1, len(found)):
                assert set(found[i].links).isdisjoint(found[j].links)
                assert set(found[i].interior_nodes).isdisjoint(
                    found[j].interior_nodes
                )


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


class TestMiscProperties:
    @given(
        st.lists(
            st.lists(
                st.text(
                    alphabet=st.characters(
                        whitelist_categories=("L", "N", "P", "Zs")
                    ),
                    max_size=8,
                ),
                min_size=2,
                max_size=2,
            ),
            max_size=8,
        )
    )
    def test_format_table_lines_equal_width(self, rows):
        text = format_table(["col_a", "col_b"], rows)
        lines = text.splitlines()
        widths = {len(line.rstrip()) <= len(lines[1]) for line in lines}
        assert len(lines) == 2 + len(rows)
        assert widths == {True}

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=200),
                st.integers(min_value=0, max_value=200),
            ),
            max_size=10,
        )
    )
    def test_recovery_stats_merge_matches_sequential(self, scenario_counts):
        together = RecoveryStats()
        parts = []
        for failed, fast in scenario_counts:
            fast = min(fast, failed)
            together.add_scenario(failed, fast, failed - fast, 0, 0)
            part = RecoveryStats()
            part.add_scenario(failed, fast, failed - fast, 0, 0)
            parts.append(part)
        merged = RecoveryStats()
        for part in parts:
            merged = merged.merge(part)
        assert merged.failed_primaries == together.failed_primaries
        assert merged.fast_recovered == together.fast_recovered
        assert merged.r_fast == together.r_fast

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
    def test_event_engine_fires_in_sorted_order(self, delays):
        engine = EventEngine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda d=delay: fired.append(d))
        engine.run()
        assert fired == sorted(delays)
