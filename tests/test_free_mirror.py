"""The flat view's free-capacity mirror follows the ledger's change log.

Contract under test (``repro.network.reservations`` module docstring,
``FlatTopology._sync_free``): after any sequence of ledger mutations the
mirror equals a fresh ``free_values()`` mapped through the edge table,
and keeping it so costs reads proportional to what the mutations touched
— never one read per link per search.
"""

from __future__ import annotations

import random

import pytest

from repro.channels import FaultToleranceQoS, TrafficSpec
from repro.core.bcp import BCPNetwork
from repro.network import LinkId, torus
from repro.network.reservations import (
    InsufficientCapacityError,
    LinkLedger,
    ReservationLedger,
)
from repro.routing import flat_view


def assert_mirror_current(view, ledger) -> None:
    """Sync ``view`` to ``ledger``, then compare every edge slot against
    the ledger's own bulk read (taken *after* the sync, so a lazy
    reconciliation inside ``free_values()`` cannot mask a stale mirror)."""
    view._sync_free(ledger)
    mirrored = list(view._free)
    by_link = dict(zip(ledger.topology.links(), ledger.free_values()))
    assert mirrored == [by_link[link] for link in view._links]


class CountingCalls:
    """Counts calls of ``owner.name`` while installed via monkeypatch."""

    def __init__(self, monkeypatch, owner, name) -> None:
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def count_free_reads(monkeypatch) -> list:
    """Make ``LinkLedger.free`` count its reads into the returned
    one-element list."""
    reads = [0]
    original = LinkLedger.free

    def counted(entry):
        reads[0] += 1
        return original.fget(entry)

    monkeypatch.setattr(LinkLedger, "free", property(counted))
    return reads


class Walk:
    """A seeded random walk over every ledger mutator."""

    def __init__(self, ledger: ReservationLedger, seed: int) -> None:
        self.ledger = ledger
        self.rng = random.Random(seed)
        self.saved_pools = ledger.snapshot_pools()
        self.steps = [
            self.reserve_primary, self.release_primary,
            self.reserve_primary_path, self.release_primary_path,
            self.set_spare, self.set_spares,
            self.failed_path_reserve, self.failed_set_spares,
            self.restore_pools,
        ]

    def links(self, count: int = 1) -> list[LinkId]:
        return self.rng.sample(list(self.ledger.topology.links()), count)

    def step(self) -> str:
        action = self.rng.choice(self.steps)
        action()
        return action.__name__

    # Mutators that may legitimately be refused (a full link, an empty
    # pool) must then leave the log alone, like the forced failures below.
    def attempt(self, call, *args) -> None:
        cursor, version = self.ledger.change_cursor, self.ledger.version
        try:
            call(*args)
        except (InsufficientCapacityError, ValueError):
            assert self.ledger.change_cursor == cursor
            assert self.ledger.version == version

    def reserve_primary(self) -> None:
        self.attempt(self.ledger.reserve_primary, *self.links(),
                     self.rng.uniform(0.0, 3.0))

    def release_primary(self) -> None:
        (link,) = self.links()
        held = self.ledger.primary_reserved(link)
        self.attempt(self.ledger.release_primary, link,
                     self.rng.uniform(0.0, held))

    def reserve_primary_path(self) -> None:
        self.attempt(self.ledger.reserve_primary_path, self.links(4),
                     self.rng.uniform(0.0, 2.0))

    def release_primary_path(self) -> None:
        links = self.links(3)
        held = min(self.ledger.primary_reserved(link) for link in links)
        self.attempt(self.ledger.release_primary_path, links,
                     self.rng.uniform(0.0, held))

    def set_spare(self) -> None:
        self.attempt(self.ledger.set_spare, *self.links(),
                     self.rng.uniform(0.0, 4.0))

    def set_spares(self) -> None:
        self.attempt(self.ledger.set_spares, {
            link: self.rng.uniform(0.0, 4.0) for link in self.links(5)
        })

    def failed_path_reserve(self) -> None:
        """Validate-then-apply: the last link cannot fit, so nothing on
        the feasible prefix may be written or logged."""
        links = self.links(3)
        cursor, version = self.ledger.change_cursor, self.ledger.version
        before = self.ledger.snapshot_pools()
        with pytest.raises(InsufficientCapacityError):
            self.ledger.reserve_primary_path(
                links, self.ledger.free(links[-1]) + 1.0
            )
        assert self.ledger.change_cursor == cursor
        assert self.ledger.version == version
        assert self.ledger.snapshot_pools() == before

    def failed_set_spares(self) -> None:
        first, last = self.links(2)
        cursor = self.ledger.change_cursor
        before = self.ledger.snapshot_pools()
        with pytest.raises(InsufficientCapacityError):
            self.ledger.set_spares({first: 0.5, last: 1e9})
        assert self.ledger.change_cursor == cursor
        assert self.ledger.snapshot_pools() == before

    def restore_pools(self) -> None:
        """Swap the live pools with the ones saved at the last swap."""
        current = self.ledger.snapshot_pools()
        rows = self.saved_pools + current[len(self.saved_pools):]
        self.ledger.restore_pools(rows)
        self.saved_pools = current


class TestRandomWalk:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mirror_equals_free_values_after_every_step(self, seed):
        topology = torus(3, 3, 10.0)
        ledger = ReservationLedger(topology)
        walk = Walk(ledger, seed)
        seen = set()
        for _ in range(400):
            seen.add(walk.step())
            assert_mirror_current(flat_view(topology), ledger)
        assert seen == {action.__name__ for action in walk.steps}
        assert ledger.audit() == []

    def test_steady_walk_never_rereads_every_link(self, monkeypatch):
        """Between wholesale rewrites the mirror is fed by the log alone."""
        topology = torus(3, 3, 10.0)
        ledger = ReservationLedger(topology)
        view = flat_view(topology)
        walk = Walk(ledger, seed=5)
        walk.steps.remove(walk.restore_pools)
        assert_mirror_current(view, ledger)          # first use: full
        bulk = CountingCalls(monkeypatch, ReservationLedger, "free_values")
        for _ in range(300):
            walk.step()
            view._sync_free(ledger)
        assert bulk.calls == 0
        assert_mirror_current(view, ledger)

    def test_unchanged_ledger_costs_no_reads(self, monkeypatch):
        topology = torus(3, 3, 10.0)
        ledger = ReservationLedger(topology)
        view = flat_view(topology)
        ledger.set_spare(next(topology.links()), 2.0)
        view._sync_free(ledger)
        reads = count_free_reads(monkeypatch)
        view._sync_free(ledger)
        assert reads[0] == 0


class TestWholesaleRewrites:
    def test_restore_pools_forces_full_resync(self, monkeypatch):
        topology = torus(3, 3, 10.0)
        ledger = ReservationLedger(topology)
        view = flat_view(topology)
        links = list(topology.links())
        ledger.reserve_primary_path(links[:5], 2.0)
        assert_mirror_current(view, ledger)
        rows = [(1.0, 0.5)] * len(links)
        bulk = CountingCalls(monkeypatch, ReservationLedger, "free_values")
        ledger.restore_pools(rows)
        view._sync_free(ledger)
        assert bulk.calls == 1
        assert set(view._free) == {8.5}

    def test_trimmed_log_forces_full_resync(self, monkeypatch):
        monkeypatch.setattr(ReservationLedger, "CHANGE_LOG_LIMIT", 8)
        topology = torus(3, 3, 10.0)
        ledger = ReservationLedger(topology)
        lagging = flat_view(topology)
        assert_mirror_current(lagging, ledger)
        links = list(topology.links())
        for round_ in range(6):
            ledger.reserve_primary_path(links[round_:round_ + 3], 0.5)
        assert len(ledger._log) <= 8 < ledger.change_cursor
        assert ledger.changes_since(0) is None
        bulk = CountingCalls(monkeypatch, ReservationLedger, "free_values")
        lagging._sync_free(ledger)
        assert bulk.calls == 1
        assert_mirror_current(lagging, ledger)

    def test_consumer_that_keeps_up_survives_trims(self, monkeypatch):
        monkeypatch.setattr(ReservationLedger, "CHANGE_LOG_LIMIT", 8)
        topology = torus(3, 3, 10.0)
        ledger = ReservationLedger(topology)
        view = flat_view(topology)
        assert_mirror_current(view, ledger)
        bulk = CountingCalls(monkeypatch, ReservationLedger, "free_values")
        links = list(topology.links())
        for round_ in range(40):
            ledger.set_spares({links[(round_ + k) % len(links)]: 0.1 * round_
                               for k in range(3)})
            view._sync_free(ledger)
        assert ledger._log_base > 0          # trims happened
        assert bulk.calls == 0
        assert_mirror_current(view, ledger)

    def test_default_bound_holds_over_a_long_history(self):
        topology = torus(3, 3, 10.0)
        ledger = ReservationLedger(topology)
        link = next(topology.links())
        for step in range(3 * ReservationLedger.CHANGE_LOG_LIMIT):
            ledger.set_spare(link, float(step % 7))
        assert len(ledger._log) <= ReservationLedger.CHANGE_LOG_LIMIT
        assert ledger.change_cursor == 3 * ReservationLedger.CHANGE_LOG_LIMIT
        assert_mirror_current(flat_view(topology), ledger)


class TestSharing:
    def test_two_ledgers_alternate_on_one_view(self):
        topology = torus(3, 3, 10.0)
        view = flat_view(topology)
        ledgers = [ReservationLedger(topology), ReservationLedger(topology)]
        walks = [Walk(ledger, seed) for seed, ledger in enumerate(ledgers)]
        rng = random.Random(9)
        for _ in range(200):
            # Both move between looks, so equal cursors of different
            # ledgers must never be mistaken for "nothing changed".
            for walk in walks:
                walk.step()
            which = rng.randrange(2)
            assert_mirror_current(view, ledgers[which])

    def test_a_ledger_of_another_topology_is_refused(self):
        # Log positions address the ledger's own topology; a failure is
        # routed on that topology with exclusions, never on a copy.
        view = flat_view(torus(3, 3, 10.0))
        other = ReservationLedger(torus(3, 3, 10.0))
        with pytest.raises(ValueError, match="ledger's topology"):
            view._sync_free(other)
        assert view._free_ledger is None

    def test_reading_never_writes_the_ledger(self):
        topology = torus(3, 3, 10.0)
        ledger = ReservationLedger(topology)
        ledger.reserve_primary(next(topology.links()), 1.0)
        before = (ledger.version, ledger.change_cursor, list(ledger._log),
                  ledger.snapshot_pools())
        view = flat_view(topology)
        view._sync_free(ledger)
        view._sync_free(ledger)
        assert before == (ledger.version, ledger.change_cursor,
                          list(ledger._log), ledger.snapshot_pools())


class TestEstablishmentCost:
    @staticmethod
    def reads_per_establishment(monkeypatch, side: int) -> float:
        """``LinkLedger.free`` reads per establishment over the same
        short-haul pairs (two hops along a row) on a ``side x side``
        torus, the first (full-sync) establishment excluded."""
        network = BCPNetwork(torus(side, side, 200.0))
        ft_qos = FaultToleranceQoS(num_backups=1, mux_degree=3)
        pairs = [(row * side, row * side + 2) for row in range(4)] * 5
        network.establish(1, side + 1, TrafficSpec(bandwidth=1.0),
                          ft_qos=ft_qos)
        with monkeypatch.context() as patch:
            reads = count_free_reads(patch)
            for src, dst in pairs:
                network.establish(src, dst, TrafficSpec(bandwidth=1.0),
                                  ft_qos=ft_qos)
        assert_mirror_current(flat_view(network.topology), network.ledger)
        return reads[0] / len(pairs)

    def test_free_reads_do_not_grow_with_the_link_count(self, monkeypatch):
        small = self.reads_per_establishment(monkeypatch, 4)
        large = self.reads_per_establishment(monkeypatch, 12)
        # 64 vs 576 links.  Reads follow the routes (the 12x12 backup
        # cannot wrap around a 4-ring, so it is two hops longer), not the
        # link count: far fewer than one per link of even the small torus.
        assert small <= large < 2 * small
        assert large < 64 / 2
