"""Property and golden tests: the vectorized kernel against the scalar pass.

Every link of a running program is a
:class:`~repro.core.multiplexing.LinkMuxState`.
:class:`~repro.core.muxkernel.VectorLinkMux` stays in ``src/`` only
because the frozen ``benchmarks/e2e/layers.py`` names it; until it goes,
every test here drives it and the per-pair state (constructed directly,
or planted as every link of a :class:`MultiplexingEngine`) through
identical op sequences and demands *bit-identical* results — ``==`` on
floats, never ``pytest.approx``.
"""

from __future__ import annotations

import random

import pytest

from repro import BCPNetwork, FaultToleranceQoS
from repro.channels.traffic import TrafficSpec
from repro.channels import Channel, ChannelRole
from repro.core.bcp import BatchRequest
from repro.core.dconnection import DConnection
from repro.core.multiplexing import LinkMuxState, MultiplexingEngine
from repro.core.muxkernel import ComponentArena, VectorLinkMux
from repro.core.overlap import ComponentSpace, OverlapPolicy
from repro.network.components import LinkId
from repro.network.generators import random_regular, ring, torus
from repro.faults import all_single_link_failures
from repro.recovery import RecoveryEvaluator
from repro.routing.paths import Path
from tests.mux_oracle import plant_kernel

LINK = LinkId("u", "v")
#: One interner for the twins' primaries, as an engine has.
SPACE = ComponentSpace()
BANDWIDTHS = (0.5, 1.0, 1.25, 2.0, 3.3)
DEGREES = (0, 1, 2, 3, 5, 6)


def _random_walk_path(topology, rng: random.Random, max_len: int = 9) -> Path:
    """A random simple path drawn from the topology's actual adjacency."""
    nodes_pool = list(topology.nodes())
    while True:
        node = rng.choice(nodes_pool)
        walk = [node]
        seen = {node}
        target = rng.randint(2, max_len)
        while len(walk) < target:
            candidates = [
                nxt for nxt in topology.successors(walk[-1]) if nxt not in seen
            ]
            if not candidates:
                break
            node = rng.choice(candidates)
            walk.append(node)
            seen.add(node)
        if len(walk) >= 2:
            return Path(walk)


def _channel(cid, nodes, role, bandwidth=1.0, mux_degree=3) -> Channel:
    return Channel(
        channel_id=cid,
        connection_id=cid,
        role=role,
        serial=0 if role is ChannelRole.PRIMARY else 1,
        path=Path(nodes),
        traffic=TrafficSpec(bandwidth=bandwidth),
        mux_degree=mux_degree,
    )


def _twin_states(policy=None):
    policy = policy or OverlapPolicy()
    arena = ComponentArena()
    vector = VectorLinkMux(LINK, policy, arena)
    reference = LinkMuxState(LINK, policy)
    return vector, reference


def _assert_twins_equal(vector: VectorLinkMux, reference: LinkMuxState):
    assert len(vector) == len(reference)
    assert vector.spare_required() == reference.spare_required()
    for entry in reference.entries():
        cid = entry.channel_id
        assert cid in vector
        assert vector.psi_size(cid) == reference.psi_size(cid)
        twin = vector.entry(cid)
        assert twin.requirement == entry.requirement
        assert twin.bandwidth == entry.bandwidth
        assert twin.mux_degree == entry.mux_degree


TOPOLOGY_FAMILIES = {
    "torus": lambda: torus(6, 6),
    "ring": lambda: ring(24),
    "random-regular": lambda: random_regular(30, 4, seed=7),
}


class TestVectorVsReferenceProperty:
    """Randomized add/remove sequences: kernel == reference, bit for bit."""

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_randomized_sequences_match(self, family):
        topology = TOPOLOGY_FAMILIES[family]()
        rng = random.Random(hash(family) & 0xFFFF | 1)
        policy = OverlapPolicy()
        vector, reference = _twin_states(policy)
        live: list[int] = []
        next_id = 0
        for step in range(400):
            if live and rng.random() < 0.35:
                cid = live.pop(rng.randrange(len(live)))
                assert vector.remove(cid) == reference.remove(cid)
            else:
                path = _random_walk_path(topology, rng)
                mask = SPACE.path_mask(path)
                bw = rng.choice(BANDWIDTHS)
                degree = rng.choice(DEGREES)
                grown = vector.add(next_id, bw, degree, mask)
                assert grown == reference.add(next_id, bw, degree, mask)
                live.append(next_id)
                next_id += 1
            if step % 25 == 0:
                _assert_twins_equal(vector, reference)
                # The from-scratch oracle agrees with both incrementals.
                assert (
                    vector.spare_required_recomputed()
                    == reference.spare_required_recomputed()
                )
        _assert_twins_equal(vector, reference)

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_preview_and_candidate_psi_match(self, family):
        topology = TOPOLOGY_FAMILIES[family]()
        rng = random.Random(0xC0FFEE)
        policy = OverlapPolicy()
        vector, reference = _twin_states(policy)
        for cid in range(60):
            path = _random_walk_path(topology, rng)
            mask = SPACE.path_mask(path)
            bw = rng.choice(BANDWIDTHS)
            degree = rng.choice(DEGREES)
            vector.add(cid, bw, degree, mask)
            reference.add(cid, bw, degree, mask)
        for _ in range(40):
            path = _random_walk_path(topology, rng)
            mask = SPACE.path_mask(path)
            bw = rng.choice(BANDWIDTHS)
            degree = rng.choice(DEGREES)
            assert vector.preview_add(
                bw, degree, mask
            ) == reference.preview_add(bw, degree, mask)
            degrees = list(DEGREES)
            assert vector.psi_sizes_for_candidate(
                mask, degrees
            ) == reference.psi_sizes_for_candidate(mask, degrees)

    def test_bulk_teardown_matches_sequential_removal(self):
        topology = TOPOLOGY_FAMILIES["torus"]()
        rng = random.Random(99)
        policy = OverlapPolicy()
        vector, reference = _twin_states(policy)
        for cid in range(80):
            path = _random_walk_path(topology, rng)
            mask = SPACE.path_mask(path)
            bw = rng.choice(BANDWIDTHS)
            degree = rng.choice(DEGREES)
            vector.add(cid, bw, degree, mask)
            reference.add(cid, bw, degree, mask)
        victims = rng.sample(range(80), 30)
        final = vector.remove_many(victims)
        for cid in victims:
            reference.remove(cid)
        assert final == reference.spare_required()
        _assert_twins_equal(vector, reference)

    def test_remove_many_unknown_id_raises(self):
        """Validate-then-apply on both backends: an unknown (or
        repeated) id fails loudly and leaves the link untouched."""
        for state in _twin_states():
            state.add(1, 1.0, 1, SPACE.intern(("a", "b")))
            state.add(2, 2.0, 1, SPACE.intern(("b", "c")))
            before = [
                (entry.channel_id, entry.requirement)
                for entry in state.entries()
            ]
            assert state.spare_required() == 3.0
            for bad in ([1, 42], [2, 1, 2]):
                with pytest.raises(KeyError):
                    state.remove_many(bad)
                assert [
                    (entry.channel_id, entry.requirement)
                    for entry in state.entries()
                ] == before
                assert state.spare_required() == 3.0
            assert state.remove_many([1, 2]) == 0.0

    def test_engine_teardown_checks_every_link_first(self):
        engine = MultiplexingEngine()
        primary = _channel(100, ("p", "q", "r"), ChannelRole.PRIMARY)
        resident = _channel(1, ("a", "b", "c"), ChannelRole.BACKUP)
        engine.add_backup(resident, primary)
        # Shares link a->b with the resident, but was never added: the
        # teardown must fail on b->d before a->b loses the resident.
        stranger = _channel(1, ("a", "b", "d"), ChannelRole.BACKUP)
        with pytest.raises(KeyError):
            engine.remove_backups([stranger])
        with pytest.raises(KeyError):
            engine.remove_backup(stranger)
        assert engine.spare_required(LinkId("a", "b")) == 1.0
        assert engine.spare_required(LinkId("b", "c")) == 1.0
        assert engine.remove_backup(resident) == {
            LinkId("a", "b"): 0.0, LinkId("b", "c"): 0.0,
        }


class TestPolicyAgreement:
    """Integer ``sc < α`` test vs exact ``S < α·λ`` — the paper derives
    the former from the latter; off the ``sc == α`` boundary they agree."""

    def test_exact_and_integer_agree_off_boundary(self):
        rng = random.Random(2024)
        integer = OverlapPolicy(failure_probability=1e-6)
        exact = OverlapPolicy(failure_probability=1e-6, exact=True)
        checked = 0
        while checked < 500:
            ci = rng.randint(2, 14)
            cj = rng.randint(2, 14)
            shared = rng.randint(0, min(ci, cj))
            degree = rng.randint(0, 7)
            if shared == degree:
                continue  # the documented boundary: verdicts may differ
            assert integer.multiplexable_counts(
                ci, cj, shared, degree
            ) == exact.multiplexable_counts(ci, cj, shared, degree), (
                ci, cj, shared, degree,
            )
            checked += 1

    def test_exact_policy_engine_stays_on_reference_path(self):
        """The kernel does not implement exact-S; an exact engine keeps
        every link on the per-pair state."""
        engine = MultiplexingEngine(OverlapPolicy(exact=True))
        primary = _channel(100, ("p", "q", "r"), ChannelRole.PRIMARY)
        for cid in range(3):
            engine.add_backup(
                _channel(cid, ("a", "b", "c"), ChannelRole.BACKUP), primary
            )
        states = engine.link_states()
        assert len(states) == 2
        for state in states.values():
            assert isinstance(state, LinkMuxState) and len(state) == 3

    def test_vector_state_rejects_exact_policy(self):
        with pytest.raises(ValueError, match="integer"):
            VectorLinkMux(LINK, OverlapPolicy(exact=True), ComponentArena())


class TestEngineGolden:
    """Two BCPNetworks replaying one workload, one with the kernel
    planted on every link and one on the scalar pass: every observable —
    spare pools, Ψ sizes, P_r, recovery stats — matches."""

    @staticmethod
    def _build_pair(monkeypatch):
        networks = []
        for kernel in (True, False):
            if kernel:
                plant_kernel(monkeypatch)
            else:
                monkeypatch.undo()
            network = BCPNetwork(torus(6, 6))
            rng = random.Random(4242)
            nodes = list(network.topology.nodes())
            requests = []
            for _ in range(14):
                src, dst = rng.sample(nodes, 2)
                requests.append(
                    BatchRequest(
                        src,
                        dst,
                        traffic=TrafficSpec(bandwidth=rng.choice((1.0, 2.0))),
                        ft_qos=FaultToleranceQoS(
                            num_backups=rng.choice((1, 2)),
                            mux_degree=rng.choice((1, 3, 6)),
                        ),
                    )
                )
            results = network.establish_batch(requests)
            for _ in range(6):
                src, dst = rng.sample(nodes, 2)
                try:
                    network.establish(
                        src, dst,
                        ft_qos=FaultToleranceQoS(
                            num_backups=1, mux_degree=rng.choice((1, 3))
                        ),
                    )
                except Exception:
                    pass
            # Interleave bulk teardowns (remove_backups / remove_many).
            established = [
                r for r in results if isinstance(r, DConnection)
            ]
            for victim in established[::4]:
                network.teardown(victim)
            networks.append(network)
        return networks

    def test_spare_pools_and_psi_match(self, monkeypatch):
        kernel_net, reference_net = self._build_pair(monkeypatch)
        for network, backend in (
            (kernel_net, VectorLinkMux), (reference_net, LinkMuxState),
        ):
            populated = [
                state for state in network.mux.link_states().values()
                if len(state)
            ]
            assert populated
            assert all(isinstance(state, backend) for state in populated)
        assert kernel_net.num_connections == reference_net.num_connections
        for link in kernel_net.topology.links():
            assert kernel_net.mux.spare_required(
                link
            ) == reference_net.mux.spare_required(link)
            assert (
                kernel_net.ledger.ledger(link).spare
                == reference_net.ledger.ledger(link).spare
            )
        for conn, twin in zip(
            kernel_net.connections(), reference_net.connections()
        ):
            assert conn.connection_id == twin.connection_id
            assert kernel_net.connection_reliability(
                conn
            ) == reference_net.connection_reliability(twin)
            for backup, twin_backup in zip(conn.backups, twin.backups):
                assert kernel_net.mux.psi_sizes(
                    backup
                ) == reference_net.mux.psi_sizes(twin_backup)

    def test_recovery_stats_match(self, monkeypatch):
        kernel_net, reference_net = self._build_pair(monkeypatch)
        scenarios = list(all_single_link_failures(kernel_net.topology))
        kernel_stats = RecoveryEvaluator(kernel_net).evaluate_many(scenarios)
        reference_stats = RecoveryEvaluator(reference_net).evaluate_many(
            scenarios
        )
        assert kernel_stats == reference_stats


class TestTransplant:
    """Promotion hands the kernel a link's entries and floats verbatim."""

    def test_transplant_state_and_future_ops_match(self):
        topology = TOPOLOGY_FAMILIES["torus"]()
        rng = random.Random(5)
        policy = OverlapPolicy()
        reference = LinkMuxState(LINK, policy)
        for cid in range(50):
            path = _random_walk_path(topology, rng)
            mask = SPACE.path_mask(path)
            reference.add(
                cid, rng.choice(BANDWIDTHS), rng.choice(DEGREES), mask
            )
        # A history the transplant must not recompute away.
        for cid in (3, 17, 40):
            reference.remove(cid)
        vector = VectorLinkMux(LINK, policy, ComponentArena())
        vector.adopt(reference.entries(), reference.spare_required())
        _assert_twins_equal(vector, reference)
        # The transplant is live: the same subsequent ops stay identical.
        path = _random_walk_path(topology, rng)
        mask = SPACE.path_mask(path)
        assert vector.add(
            777, 2.0, 3, mask
        ) == reference.add(777, 2.0, 3, mask)
        assert vector.remove(10) == reference.remove(10)
        _assert_twins_equal(vector, reference)


class TestComponentArena:
    def test_growth_past_initial_geometry(self):
        arena = ComponentArena()
        sets = []
        rng = random.Random(11)
        for i in range(150):  # > 64 rows, > 256 component bits
            members = frozenset(rng.sample(range(600), rng.randint(3, 12)))
            mask = sum(1 << bit for bit in members)
            sets.append((arena.row(mask), members))
        assert len(arena) == len({row for row, _ in sets})
        assert arena.nbytes > 0
        import numpy as np

        rows = np.array([row for row, _ in sets], dtype=np.int64)
        probe_row, probe_members = sets[37]
        shared = arena.shared_counts(rows, probe_row)
        for got, (_, members) in zip(shared, sets):
            assert int(got) == len(members & probe_members)

    def test_row_interning_is_stable(self):
        arena = ComponentArena()
        mask = SPACE.intern(("x", "y", "z"))
        assert arena.row(mask) == arena.row(SPACE.intern(("z", "y", "x")))
        assert arena.mask(arena.row(mask)) == mask
        assert arena.row(0) != arena.row(mask) and arena.mask(arena.row(0)) == 0
