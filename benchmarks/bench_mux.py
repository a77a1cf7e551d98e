"""Multiplexing-engine throughput: naive vs incremental vs vectorized.

The ISSUE's headline cells: admission/teardown latency on one hot link at
10³/10⁴/10⁵ resident backups, vectorized kernel
(:class:`~repro.core.muxkernel.VectorLinkMux`) against the per-pair
reference (:class:`~repro.core.multiplexing.LinkMuxState`), plus the
from-scratch ("naive") spare recompute both ways.  Gated in CI by
``scripts/check_bench_regression.py`` against ``benchmarks/BENCH_mux.json``
(the 10⁵ cells are excluded there via ``-k "not _100k"``; run them
locally for the headline speedup).

Populating a 10⁵-entry link through either incremental path is O(n²)
total work, so the states are *bulk-loaded*: primaries are drawn from a
fixed pool of distinct paths, requirements come from a pool×degree group
computation (exact, because bandwidths are uniformly 1.0 so every fold
order yields the same integer-valued float), and the reference twin is
transplanted entry by entry (:func:`reference_twin`).
``test_bulk_loader_matches_sequential`` proves the loader against real
sequential admission; the naive cells are restricted to populations where
O(n²) terminates (their growth ratio is the point of
``bench_scalability``).
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.multiplexing import LinkMuxState
from repro.core.muxkernel import ComponentArena, VectorLinkMux
from repro.core.overlap import OverlapPolicy
from repro.network import torus
from repro.network.components import LinkId
from repro.routing.paths import Path
from tests.routing_oracle import reference_shortest_path

LINK = LinkId("hot", "spot")
CALIBRATION_TOPOLOGY = torus(8, 8, capacity=200.0)
DEEP_PAIR = (0, 36)

#: Primaries are drawn from this pool of distinct paths on a 16×16 torus
#: (1280 components — a realistically wide arena).
POOL_TOPOLOGY = torus(16, 16)
POOL_SIZE = 512
DEGREES = (1, 3, 5, 6)


def _random_walk_path(topology, rng: random.Random, max_len: int = 9) -> Path:
    nodes_pool = list(topology.nodes())
    while True:
        node = rng.choice(nodes_pool)
        walk, seen = [node], {node}
        target = rng.randint(3, max_len)
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


def _component_pool(seed: int = 0) -> list[frozenset]:
    rng = random.Random(seed)
    policy = OverlapPolicy()
    pool: list[frozenset] = []
    seen: set[frozenset] = set()
    while len(pool) < POOL_SIZE:
        components = policy.component_set(_random_walk_path(POOL_TOPOLOGY, rng))
        if components not in seen:
            seen.add(components)
            pool.append(components)
    return pool


_POOL = _component_pool()


def build_kernel_state(population: int, seed: int = 1) -> VectorLinkMux:
    """A kernel link state with ``population`` resident backups, loaded in
    O(pool² + n) instead of the O(n²) a replayed admission history costs.

    Exact: all bandwidths are 1.0, so every entry's requirement is
    ``1.0 + |Π|`` — an integer-valued float identical under any summation
    order — and the incremental history would produce the same columns.
    """
    arena = ComponentArena()
    state = VectorLinkMux(LINK, OverlapPolicy(), arena)
    pool_rows = np.array([arena.row(c) for c in _POOL], dtype=np.int64)
    rng = random.Random(seed)
    pick = np.array(
        [rng.randrange(POOL_SIZE) for _ in range(population)], dtype=np.int64
    )
    deg_idx = np.array(
        [rng.randrange(len(DEGREES)) for _ in range(population)], dtype=np.int64
    )
    for cid in range(population):
        state._append(
            cid, 1.0, DEGREES[deg_idx[cid]], 1.0, int(pool_rows[pick[cid]])
        )
    # Pairwise shared counts between pool members (pool² popcount rows).
    shared = np.stack(
        [arena.shared_counts(pool_rows, int(row)) for row in pool_rows]
    )
    sizes = np.array([len(c) for c in _POOL], dtype=np.int64)
    # Entries per (pool path, degree) group.
    counts = np.zeros((POOL_SIZE, len(DEGREES)), dtype=np.int64)
    np.add.at(counts, (pick, deg_idx), 1)
    degree_values = np.array(DEGREES, dtype=np.int64)
    # |Π| per group: conflicting = lower-or-equal degree AND sc >= degree
    # (every DEGREES value is > 0), minus the entry itself when its own
    # primary qualifies (sc(self, self) = |components| >= degree).
    requirement_by_group = np.zeros((POOL_SIZE, len(DEGREES)))
    for di, degree in enumerate(DEGREES):
        eligible = counts[:, degree_values <= degree].sum(axis=1)
        conflicts = (shared >= degree) @ eligible
        self_term = (sizes >= degree).astype(np.int64)
        requirement_by_group[:, di] = 1.0 + conflicts - self_term
    state._requirement[:population] = requirement_by_group[pick, deg_idx]
    state._spare_required = (
        float(state._requirement[:population].max()) if population else 0.0
    )
    return state


def reference_twin(state: VectorLinkMux) -> LinkMuxState:
    """Transplant a kernel state into a per-pair :class:`LinkMuxState`
    with identical live state (entries, requirements, spare pool) —
    standing the oracle up at populations where replaying the op history
    through Python pair tests would take minutes."""
    reference = LinkMuxState(state.link, state.policy)
    for entry in state.entries():
        entry.mask = reference._space.mask(entry.primary_components)
        reference._entries[entry.channel_id] = entry
    reference._spare_required = state.spare_required()
    return reference


_CANDIDATE = _POOL[7]
_CANDIDATE_ID = 10_000_000


def _cycle(state):
    state.add(_CANDIDATE_ID, 1.0, 3, _CANDIDATE)
    state.remove(_CANDIDATE_ID)


def test_calibration_reference_bfs(benchmark):
    """Calibration anchor — the retained dict-based reference kernel."""
    benchmark(reference_shortest_path, CALIBRATION_TOPOLOGY, *DEEP_PAIR)


def test_bulk_loader_matches_sequential():
    """The bulk loader is exact: same columns as replayed admission."""
    loaded = build_kernel_state(300, seed=5)
    arena = ComponentArena()
    replayed = VectorLinkMux(LINK, OverlapPolicy(), arena)
    for pos in range(len(loaded)):
        entry = loaded.entry(int(loaded._channel_ids[pos]))
        replayed.add(
            entry.channel_id, entry.bandwidth, entry.mux_degree,
            entry.primary_components,
        )
    assert replayed.spare_required() == loaded.spare_required()
    for pos in range(len(loaded)):
        cid = int(loaded._channel_ids[pos])
        assert replayed.entry(cid).requirement == loaded.entry(cid).requirement
    assert loaded.spare_required() == loaded.spare_required_recomputed()


# ----------------------------------------------------------------------
# admission/teardown cycle: vectorized kernel
# ----------------------------------------------------------------------
def test_mux_kernel_cycle_1k(benchmark):
    state = build_kernel_state(1_000)
    benchmark(_cycle, state)
    assert len(state) == 1_000


def test_mux_kernel_cycle_10k(benchmark):
    state = build_kernel_state(10_000)
    benchmark(_cycle, state)
    assert len(state) == 10_000


def test_mux_kernel_cycle_100k(benchmark):
    state = build_kernel_state(100_000)
    benchmark(_cycle, state)
    assert len(state) == 100_000


# ----------------------------------------------------------------------
# admission/teardown cycle: per-pair reference (incremental)
# ----------------------------------------------------------------------
def test_mux_reference_cycle_1k(benchmark):
    state = reference_twin(build_kernel_state(1_000))
    benchmark(_cycle, state)
    assert len(state) == 1_000


def test_mux_reference_cycle_10k(benchmark):
    state = reference_twin(build_kernel_state(10_000))
    benchmark(_cycle, state)
    assert len(state) == 10_000


def test_mux_reference_cycle_100k(benchmark):
    state = reference_twin(build_kernel_state(100_000))
    benchmark(_cycle, state)
    assert len(state) == 100_000


# ----------------------------------------------------------------------
# bulk teardown (the churn path): remove_many vs one-by-one.  Each round
# tears down the newest 100 residents (tail-first, the churn common
# case) and re-admits them in original order, so every round sees the
# identical layout.
# ----------------------------------------------------------------------
TEARDOWN_BATCH = 100


def _teardown_refill_kernel(state: VectorLinkMux):
    n = len(state)
    victims = [
        int(state._channel_ids[n - 1 - i]) for i in range(TEARDOWN_BATCH)
    ]
    entries = [state.entry(cid) for cid in victims]
    state.remove_many(victims)
    for entry in reversed(entries):
        state.add(
            entry.channel_id, entry.bandwidth, entry.mux_degree,
            entry.primary_components,
        )


def test_mux_kernel_bulk_teardown_10k(benchmark):
    state = build_kernel_state(10_000)
    benchmark(_teardown_refill_kernel, state)
    assert len(state) == 10_000
    assert state.spare_required() == build_kernel_state(10_000).spare_required()


def test_mux_reference_bulk_teardown_10k(benchmark):
    kernel = build_kernel_state(10_000)
    reference = reference_twin(kernel)

    def cycle():
        order = list(reference._entries)[-TEARDOWN_BATCH:]
        entries = [reference._entries[cid] for cid in reversed(order)]
        reference.remove_many([entry.channel_id for entry in entries])
        for entry in reversed(entries):
            reference.add(
                entry.channel_id, entry.bandwidth, entry.mux_degree,
                entry.primary_components,
            )

    benchmark(cycle)
    assert len(reference) == 10_000
    assert reference.spare_required() == kernel.spare_required()


# ----------------------------------------------------------------------
# naive from-scratch spare recompute (Section 6's O(n²) baseline);
# larger populations are pointless — the growth ratio is the claim and
# bench_scalability measures it directly.
# ----------------------------------------------------------------------
def test_mux_naive_recompute_1k(benchmark):
    state = build_kernel_state(1_000)
    reference = reference_twin(state)
    result = benchmark(reference.spare_required_recomputed)
    assert result == state.spare_required()


def test_mux_kernel_naive_recompute_1k(benchmark):
    state = build_kernel_state(1_000)
    result = benchmark(state.spare_required_recomputed)
    assert result == state.spare_required()
