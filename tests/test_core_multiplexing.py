"""Tests for repro.core.multiplexing: Π/Ψ sets and spare-pool sizing."""

from __future__ import annotations

import random

import pytest

from repro.channels import Channel, ChannelRole, TrafficSpec
from repro.core.multiplexing import LinkMuxState, MultiplexingEngine
from repro.core.overlap import ComponentSpace, OverlapPolicy
from repro.network import LinkId
from repro.routing import Path
from tests.mux_oracle import FrozensetLinkMuxState

LINK = LinkId("x", "y")
#: One interner for every hand-built primary below, as an engine has.
SPACE = ComponentSpace()


def state(**policy_kwargs) -> LinkMuxState:
    return LinkMuxState(LINK, OverlapPolicy(**policy_kwargs))


def mask_of(*nodes) -> int:
    """The bitset of the primary through ``nodes`` (endpoints counted)."""
    return SPACE.path_mask(Path(nodes))


class TestLinkMuxStateBasics:
    def test_empty_state_needs_no_spare(self):
        assert state().spare_required() == 0.0

    def test_single_backup_needs_own_bandwidth(self):
        s = state()
        comps = mask_of(1, 2, 3)
        assert s.add(0, 2.0, 3, comps) == 2.0

    def test_duplicate_add_rejected(self):
        s = state()
        comps = mask_of(1, 2, 3)
        s.add(0, 1.0, 3, comps)
        with pytest.raises(ValueError, match="already"):
            s.add(0, 1.0, 3, comps)

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError):
            state().remove(7)

    def test_len_and_contains(self):
        s = state()
        comps = mask_of(1, 2)
        s.add(5, 1.0, 1, comps)
        assert len(s) == 1 and 5 in s and 6 not in s


class TestSharingSemantics:
    def test_disjoint_primaries_share_at_mux1(self):
        s = state()
        a = mask_of(1, 2, 3)
        b = mask_of(4, 5, 6)
        s.add(0, 1.0, 1, a)
        assert s.add(1, 1.0, 1, b) == 1.0  # fully multiplexed

    def test_overlapping_primaries_do_not_share_at_mux1(self):
        s = state()
        a = mask_of(1, 2, 3)
        b = mask_of(9, 2, 8)  # shares node 2
        s.add(0, 1.0, 1, a)
        assert s.add(1, 1.0, 1, b) == 2.0

    def test_mux0_disables_sharing_entirely(self):
        s = state()
        a = mask_of(1, 2, 3)
        b = mask_of(4, 5, 6)
        s.add(0, 1.0, 0, a)
        assert s.add(1, 1.0, 0, b) == 2.0

    def test_link_sharing_blocks_mux3(self):
        s = state()
        a = mask_of(1, 2, 3)
        b = mask_of(0, 2, 3, 4)  # shares link 2->3 (sc = 3)
        s.add(0, 1.0, 3, a)
        assert s.add(1, 1.0, 3, b) == 2.0

    def test_node_sharing_allowed_at_mux3(self):
        s = state()
        a = mask_of(1, 2, 3)
        b = mask_of(9, 2, 8)  # sc = 1 < 3
        s.add(0, 1.0, 3, a)
        assert s.add(1, 1.0, 3, b) == 1.0

    def test_priority_filter_excludes_lower_priority_conflicts(self):
        # A high-priority (mux=1) backup's requirement counts conflicting
        # peers of priority <= its own; a LOWER-priority conflicting backup
        # (larger degree) is excluded — it will activate after us.
        s = state()
        a = mask_of(1, 2, 3)
        b = mask_of(9, 2, 8)  # conflicts with a at degree 1 (sc=1)
        s.add(0, 1.0, 1, a)       # high priority
        spare = s.add(1, 1.0, 6, b)  # low priority, sc=1 < 6: shares
        # Entry a: conflicts judged at degree 1 but only peers with degree
        # <= 1 count; entry b: degree 6 sees sc=1 < 6 so multiplexable.
        assert spare == 1.0

    def test_requirement_is_max_over_entries(self):
        s = state()
        a = mask_of(1, 2, 3)
        b = mask_of(9, 2, 8)    # conflicts with a (sc=1)
        c = mask_of(10, 11, 12)  # disjoint from both
        s.add(0, 1.0, 1, a)
        s.add(1, 1.0, 1, b)
        assert s.spare_required() == 2.0
        s.add(2, 1.0, 1, c)
        assert s.spare_required() == 2.0  # c shares with both

    def test_heterogeneous_bandwidths(self):
        s = state()
        a = mask_of(1, 2, 3)
        b = mask_of(9, 2, 8)
        s.add(0, 5.0, 1, a)
        assert s.add(1, 2.0, 1, b) == 7.0


class TestIncrementalConsistency:
    def test_incremental_matches_recompute_after_adds_and_removes(self):
        s = state()
        paths = [
            (0, (1, 2, 3), 1),
            (1, (9, 2, 8), 3),
            (2, (1, 4, 3), 6),
            (3, (7, 8, 9), 1),
            (4, (1, 2, 5), 5),
            (5, (6, 5, 3), 0),
        ]
        for cid, nodes, degree in paths:
            comps = mask_of(*nodes)
            s.add(cid, 1.0 + cid * 0.5, degree, comps)
            assert s.spare_required() == pytest.approx(
                s.spare_required_recomputed()
            )
        for cid in (1, 4, 0):
            s.remove(cid)
            assert s.spare_required() == pytest.approx(
                s.spare_required_recomputed()
            )

    def test_preview_matches_actual_add(self):
        s = state()
        backups = [
            (0, (1, 2, 3), 1),
            (1, (9, 2, 8), 3),
            (2, (7, 5, 4), 6),
        ]
        for cid, nodes, degree in backups:
            comps = mask_of(*nodes)
            predicted = s.preview_add(1.0, degree, comps)
            actual = s.add(cid, 1.0, degree, comps)
            assert predicted == pytest.approx(actual)

    def test_preview_does_not_mutate(self):
        s = state()
        comps = mask_of(1, 2, 3)
        s.add(0, 1.0, 1, comps)
        before = s.spare_required()
        other = mask_of(9, 2, 8)
        s.preview_add(1.0, 1, other)
        assert s.spare_required() == before and len(s) == 1


class TestPsiSets:
    def test_psi_counts_multiplexed_peers(self):
        s = state()
        a = mask_of(1, 2, 3)
        b = mask_of(4, 5, 6)     # disjoint: multiplexable with a
        c = mask_of(9, 2, 8)     # conflicts with a
        s.add(0, 1.0, 1, a)
        s.add(1, 1.0, 1, b)
        s.add(2, 1.0, 1, c)
        assert s.psi_size(0) == 1  # only b shares with a
        assert s.psi_size(1) == 2  # b shares with both a and c

    def test_psi_sizes_for_candidate(self):
        s = state()
        a = mask_of(1, 2, 3)
        s.add(0, 1.0, 1, a)
        candidate = mask_of(9, 2, 8)  # sc = 1 against a
        sizes = s.psi_sizes_for_candidate(candidate, [0, 1, 2, 6])
        assert sizes == {0: 0, 1: 0, 2: 1, 6: 1}


class TestMultiplexingEngine:
    def _backup(self, cid, nodes, degree, bandwidth=1.0):
        return Channel(
            channel_id=cid,
            connection_id=cid,
            role=ChannelRole.BACKUP,
            serial=1,
            path=Path(nodes),
            traffic=TrafficSpec(bandwidth=bandwidth),
            mux_degree=degree,
        )

    def _primary(self, cid, nodes):
        return Channel(
            channel_id=cid + 1000,
            connection_id=cid,
            role=ChannelRole.PRIMARY,
            serial=0,
            path=Path(nodes),
            traffic=TrafficSpec(),
        )

    def test_add_backup_touches_every_path_link(self):
        engine = MultiplexingEngine()
        backup = self._backup(0, (1, 2, 3), 1)
        primary = self._primary(0, (1, 5, 3))
        requirements = engine.add_backup(backup, primary)
        assert set(requirements) == {LinkId(1, 2), LinkId(2, 3)}
        assert all(value == 1.0 for value in requirements.values())

    def test_add_primary_rejected(self):
        engine = MultiplexingEngine()
        primary = self._primary(0, (1, 5, 3))
        with pytest.raises(ValueError, match="not a backup"):
            engine.add_backup(primary, primary)

    def test_remove_backup_round_trip(self):
        engine = MultiplexingEngine()
        backup = self._backup(0, (1, 2, 3), 1)
        primary = self._primary(0, (1, 5, 3))
        engine.add_backup(backup, primary)
        requirements = engine.remove_backup(backup)
        assert all(value == 0.0 for value in requirements.values())
        assert engine.spare_required(LinkId(1, 2)) == 0.0

    def test_refused_remove_adds_no_link_state(self):
        # Node numbers of a 4x4 torus: 0->4->5 and 10->11->15 are paths
        # of it that share no link.
        engine = MultiplexingEngine()
        engine.add_backup(self._backup(0, (0, 4, 5), 1),
                          self._primary(0, (0, 1, 5)))
        assert len(engine.link_states()) == 2
        stranger = self._backup(1, (10, 11, 15), 1)
        with pytest.raises(KeyError, match=r"backup 1 not on link 10->11"):
            engine.remove_backup(stranger)
        assert len(engine.link_states()) == 2

    def test_spare_required_unknown_link_is_zero(self):
        assert MultiplexingEngine().spare_required(LinkId(7, 8)) == 0.0

    def test_psi_sizes_per_link(self):
        engine = MultiplexingEngine()
        first = self._backup(0, (1, 2, 3), 1)
        engine.add_backup(first, self._primary(0, (1, 8, 3)))
        second = self._backup(1, (1, 2, 9), 1)
        engine.add_backup(second, self._primary(1, (1, 7, 9)))
        sizes = engine.psi_sizes(second)
        # Primaries share endpoint node 1 -> sc >= 1 -> NOT multiplexable
        # at degree 1, so Ψ is empty on the shared link.
        assert sizes[LinkId(1, 2)] == 0


class TestEngineOverlapCache:
    def _backup(self, cid, nodes, degree, bandwidth=1.0):
        return Channel(
            channel_id=cid,
            connection_id=cid,
            role=ChannelRole.BACKUP,
            serial=1,
            path=Path(nodes),
            traffic=TrafficSpec(bandwidth=bandwidth),
            mux_degree=degree,
        )

    def _primary(self, cid, nodes):
        return Channel(
            channel_id=cid + 1000,
            connection_id=cid,
            role=ChannelRole.PRIMARY,
            serial=0,
            path=Path(nodes),
            traffic=TrafficSpec(),
        )

    def test_masks_resolve_pairs_without_set_intersections(self):
        # Two backups sharing two links: each primary is interned once in
        # the engine-wide space (5 distinct components each, sharing node
        # 4), and every link entry of a backup holds that one int.
        engine = MultiplexingEngine()
        engine.add_backup(self._backup(0, (1, 2, 3, 4), 3),
                         self._primary(0, (1, 8, 4)))
        engine.add_backup(self._backup(1, (0, 2, 3, 4), 3),
                         self._primary(1, (0, 9, 4)))
        assert len(engine._space) == 9
        for channel_id, links in ((0, [(1, 2), (2, 3), (3, 4)]),
                                  (1, [(0, 2), (2, 3), (3, 4)])):
            masks = [engine.link_state(LinkId(*link)).entry(channel_id).mask
                     for link in links]
            assert masks[0].bit_count() == 5
            assert all(mask is masks[0] for mask in masks)

    def test_mask_counts_interior_nodes_without_endpoints(self):
        engine = MultiplexingEngine(OverlapPolicy(count_endpoints=False))
        path = Path((1, 8, 9, 4))
        mask = engine.primary_mask(path)
        assert mask.bit_count() == path.component_count(False) == 5
        # Sharing only the endpoints is sharing nothing.
        assert mask & engine.primary_mask(Path((1, 7, 4))) == 0

    def test_masks_agree_with_set_intersections(self):
        # The popcount pair test must size pools exactly as explicit set
        # intersections do, whichever interner numbered the bits: the
        # engine's, or a private one that saw the components in another
        # order.
        engine = MultiplexingEngine()
        engine.add_backup(self._backup(0, (1, 2, 3, 4), 3),
                         self._primary(0, (1, 8, 4)))
        engine.add_backup(self._backup(1, (0, 2, 3, 4), 2),
                         self._primary(1, (0, 9, 4)))
        shared_space = engine.link_state(LinkId(2, 3))
        own_space = LinkMuxState(LinkId(2, 3), engine.policy)
        private = ComponentSpace()
        private.intern(range(20))
        primaries = [self._primary(0, (1, 8, 4)), self._primary(1, (0, 9, 4))]
        for i, (primary, degree) in enumerate(zip(primaries, (3, 2))):
            own_space.add(i, 1.0, degree, private.path_mask(primary.path))
        # By hand: the primaries share only node 4 (sc = 1 < 2 < 3), so
        # the two backups multiplex and one unit of spare covers both.
        a, b = (primary.path.components for primary in primaries)
        assert len(a & b) == 1
        assert (shared_space.spare_required()
                == own_space.spare_required()
                == shared_space.spare_required_recomputed()
                == 1.0)
        # A candidate through node 4 alone (sc = 1 with each primary)
        # multiplexes with both residents at degree 2.
        candidate = Path((4, 7))
        assert (shared_space.preview_add(1.0, 2, engine.primary_mask(candidate))
                == own_space.preview_add(1.0, 2, private.path_mask(candidate))
                == 1.0)

    def test_readd_with_new_primary_not_served_stale_counts(self):
        engine = MultiplexingEngine()
        engine.add_backup(self._backup(0, (1, 2, 3), 5),
                         self._primary(0, (1, 7, 3)))
        # First primary of backup 1 heavily overlaps backup 0's primary.
        engine.add_backup(self._backup(1, (5, 2, 3), 5),
                         self._primary(1, (1, 7, 3)))
        before = engine.spare_required(LinkId(2, 3))
        engine.remove_backup(self._backup(1, (5, 2, 3), 5))
        # Same channel id, disjoint primary: must re-derive the overlap.
        engine.add_backup(self._backup(1, (5, 2, 3), 5),
                         self._primary(1, (5, 8, 6)))
        after = engine.spare_required(LinkId(2, 3))
        fresh = MultiplexingEngine()
        fresh.add_backup(self._backup(0, (1, 2, 3), 5),
                         self._primary(0, (1, 7, 3)))
        fresh.add_backup(self._backup(1, (5, 2, 3), 5),
                         self._primary(1, (5, 8, 6)))
        assert after == fresh.spare_required(LinkId(2, 3))
        assert after < before  # disjoint primaries now multiplex


def link_floats(s: LinkMuxState) -> tuple:
    """Every float and Ψ size a link state holds, for exact comparison."""
    return (
        [(entry.channel_id, entry.requirement) for entry in s.entries()],
        s.spare_required(),
        [s.psi_size(entry.channel_id) for entry in s.entries()],
    )


class TestPairScanMemo:
    """``preview_add`` → ``add`` shares one pass over the residents; a
    link that previews must stay bit-equal to a twin that never does, and
    a scan must never outlive the state it was taken on."""

    #: Exactly representable, so incremental sums equal the recompute.
    BANDWIDTHS = (0.25, 0.5, 1.0, 2.75)
    DEGREES = (0, 1, 2, 3, 6)

    def candidate(self, rng):
        nodes = rng.sample(range(10), rng.randint(2, 5))
        return (rng.choice(self.BANDWIDTHS), rng.choice(self.DEGREES),
                mask_of(*nodes))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_previewing_link_equals_its_twin(self, seed, exact):
        rng = random.Random(seed)
        previewing, twin = state(exact=exact), state(exact=exact)
        next_id = 0
        for _ in range(160):
            if len(twin) and rng.random() < 0.35:
                cid = rng.choice([e.channel_id for e in twin.entries()])
                assert previewing.remove(cid) == twin.remove(cid)
            else:
                bandwidth, degree, comps = self.candidate(rng)
                mode = rng.choice(("own", "other", "none"))
                if mode == "own":
                    predicted = previewing.preview_add(bandwidth, degree, comps)
                elif mode == "other":
                    previewing.preview_add(*self.candidate(rng))
                grown = previewing.add(next_id, bandwidth, degree, comps)
                assert grown == twin.add(next_id, bandwidth, degree, comps)
                if mode == "own":
                    assert predicted == grown
                # The freshly added entry's Ψ comes from its add's scan.
                assert previewing.psi_size(next_id) == twin.psi_size(next_id)
                next_id += 1
            assert link_floats(previewing) == link_floats(twin)
            assert (previewing.spare_required()
                    == previewing.spare_required_recomputed())
        assert next_id > 60 and len(twin) > 10

    def test_preview_a_preview_b_add_a(self):
        previewing, twin = state(), state()
        for s in (previewing, twin):
            s.add(0, 1.0, 1, mask_of(1, 2, 3))
            s.add(1, 0.5, 3, mask_of(3, 4, 5))
        a = (2.75, 1, mask_of(1, 2, 9))
        b = (0.25, 6, mask_of(7, 8))
        predicted = previewing.preview_add(*a)
        previewing.preview_add(*b)
        assert previewing.add(2, *a) == twin.add(2, *a) == predicted
        assert link_floats(previewing) == link_floats(twin)

    def test_remove_between_preview_and_add(self):
        previewing, twin = state(), state()
        for s in (previewing, twin):
            s.add(0, 1.0, 1, mask_of(1, 2, 3))
            s.add(1, 0.5, 1, mask_of(3, 4, 5))
        candidate = (2.0, 1, mask_of(1, 4))   # conflicts with both
        stale = previewing.preview_add(*candidate)
        for s in (previewing, twin):
            s.remove(0)
        grown = previewing.add(2, *candidate)
        assert grown == twin.add(2, *candidate) == 2.5 < stale
        assert link_floats(previewing) == link_floats(twin)

    def test_set_requirements_between_preview_and_add(self):
        previewing, twin = state(), state()
        for s in (previewing, twin):
            s.add(0, 1.0, 1, mask_of(1, 2, 3))
        candidate = (2.0, 1, mask_of(1, 9))
        previewing.preview_add(*candidate)
        for s in (previewing, twin):
            s.set_requirements({0: 4.0}, 4.0)
        assert previewing.preview_add(*candidate) == 6.0
        assert previewing.add(1, *candidate) == twin.add(1, *candidate) == 6.0
        assert link_floats(previewing) == link_floats(twin)

    def test_committed_scan_is_not_a_preview(self):
        """Adding the same description twice: the second add (and a
        preview between them) must see the first as a resident."""
        s = state()
        candidate = (1.0, 1, mask_of(1, 2, 3))
        assert s.preview_add(*candidate) == 1.0
        assert s.add(0, *candidate) == 1.0
        assert s.preview_add(*candidate) == 2.0
        assert s.add(1, *candidate) == 2.0
        assert s.psi_size(0) == s.psi_size(1) == 0
        assert s.spare_required() == s.spare_required_recomputed()

    def test_psi_of_an_older_entry_rescans(self):
        s = state()
        s.add(0, 1.0, 1, mask_of(1, 2, 3))
        assert s.psi_size(0) == 0
        s.add(1, 1.0, 1, mask_of(7, 8, 9))      # multiplexes with 0
        assert s.psi_size(1) == 1
        assert s.psi_size(0) == 1                  # not 1's scan, not stale
        s.remove(1)
        assert s.psi_size(0) == 0

    def test_preview_on_one_link_never_serves_another(self):
        engine = MultiplexingEngine()
        near, far = LinkId(1, 2), LinkId(2, 3)
        engine.link_state(near).add(0, 1.0, 1, mask_of(1, 5, 3))
        candidate = (1.0, 1, mask_of(1, 6, 3))  # conflicts on `near`
        assert engine.link_state(near).preview_add(*candidate) == 2.0
        assert engine.link_state(far).preview_add(*candidate) == 1.0
        assert engine.link_state(far).add(1, *candidate) == 1.0
        assert engine.link_state(near).add(1, *candidate) == 2.0


class TestLazyPoolMaximum:
    def test_maximum_through_untouched_shrunk_and_departed_holders(self):
        s = state()
        s.add(0, 1.0, 1, mask_of(1, 2, 3))
        s.add(1, 2.0, 1, mask_of(3, 4, 5))   # conflicts with 0 (node 3)
        s.add(2, 0.5, 1, mask_of(7, 8))      # multiplexes with both
        s.add(3, 2.5, 1, mask_of(9, 10))     # multiplexes with all
        assert [e.requirement for e in s.entries()] == [3.0, 3.0, 0.5, 2.5]
        # Neither peak holder (0, 1) is charged by 2: maximum untouched.
        assert s.remove(2) == 3.0 == s.spare_required_recomputed()
        # 1 leaves and 0 sheds its bandwidth: both held the maximum.
        assert s.remove(1) == 2.5 == s.spare_required_recomputed()
        # The sole holder leaves.
        assert s.remove(3) == 1.0 == s.spare_required_recomputed()
        assert s.remove(0) == 0.0


class TestEarlyExitBoundary:
    """Integer mode skips a resident sharing fewer than ν components
    after one popcount (the pair scan: fewer than the candidate's ν;
    removal: fewer than the leaver's ν).  Put every overlap on either
    side of that cut, for every order of the two degrees, and hold the
    link to the frozenset oracle float for float."""

    #: Exactly representable, so incremental sums equal the recompute.
    BANDWIDTHS = (0.25, 0.5, 1.0, 2.75)
    #: The candidate's primary: components 0..9.
    CANDIDATE = frozenset(range(10))

    @staticmethod
    def near(degree: int) -> "list[int]":
        return [d for d in (degree - 1, degree, degree + 1) if d >= 0]

    def residents(self, candidate_degree: int):
        """``(id, bandwidth, ν, components)``: for each ν_o below, at and
        above ν_c (and 0), one resident per overlap with the candidate
        within one of ν_c or ν_o.  Residents overlap each other in the
        shared prefix of the candidate's components."""
        degrees = sorted({0, *self.near(candidate_degree)})
        rows = []
        for other_degree in degrees:
            overlaps = sorted(
                {*self.near(candidate_degree), *self.near(other_degree)}
            )
            for overlap in overlaps:
                channel_id = len(rows)
                components = frozenset(range(overlap)) | {
                    100 + 10 * channel_id + k for k in range(3)
                }
                rows.append((
                    channel_id, self.BANDWIDTHS[channel_id % 4],
                    other_degree, components,
                ))
        return rows

    @staticmethod
    def floats(link) -> list:
        return [
            (entry.channel_id, entry.requirement.hex(),
             link.psi_size(entry.channel_id))
            for entry in link.entries()
        ] + [link.spare_required().hex()]

    def assert_agree(self, link, oracle) -> None:
        assert self.floats(link) == self.floats(oracle)
        assert link.spare_required() == link.spare_required_recomputed()

    @pytest.mark.parametrize("candidate_degree", [0, 1, 3])
    def test_scan_and_removal_at_the_cut(self, candidate_degree):
        space = ComponentSpace()
        link = state()
        oracle = FrozensetLinkMuxState(LINK, OverlapPolicy())
        residents = self.residents(candidate_degree)
        for channel_id, bandwidth, degree, components in residents:
            mask = space.intern(sorted(components))
            assert (link.preview_add(bandwidth, degree, mask).hex()
                    == oracle.preview_add(bandwidth, degree, components).hex())
            assert (link.add(channel_id, bandwidth, degree, mask).hex()
                    == oracle.add(channel_id, bandwidth, degree, components).hex())
            self.assert_agree(link, oracle)

        candidate_id = len(residents)
        mask = space.intern(sorted(self.CANDIDATE))
        for bandwidth in self.BANDWIDTHS:
            assert (link.preview_add(bandwidth, candidate_degree, mask).hex()
                    == oracle.preview_add(
                        bandwidth, candidate_degree, self.CANDIDATE).hex())
        # Ψ of the candidate: every resident sharing fewer than ν_c.
        expected_psi = sum(
            len(components & self.CANDIDATE) < candidate_degree
            for _, _, _, components in residents
        )
        assert (link.add(candidate_id, 2.75, candidate_degree, mask).hex()
                == oracle.add(
                    candidate_id, 2.75, candidate_degree, self.CANDIDATE).hex())
        assert link.psi_size(candidate_id) == expected_psi
        self.assert_agree(link, oracle)

        # Every resident leaves, one call each and then the rest in one
        # batch, so each ν is a leaver against survivors on both sides of
        # its cut; the candidate leaves in the middle.
        order = [candidate_id] + [row[0] for row in residents]
        order.insert(len(order) // 2, order.pop(0))
        half = len(order) // 2
        for channel_id in order[:half]:
            assert (link.remove_many([channel_id]).hex()
                    == oracle.remove_many([channel_id]).hex())
            self.assert_agree(link, oracle)
        assert (link.remove_many(order[half:]).hex()
                == oracle.remove_many(order[half:]).hex())
        assert len(link) == 0 and link.spare_required() == 0.0


class TestSharedRows:
    """A backup's facts live once, in one row every link it crosses
    references; ``entries()`` / ``entry()`` are views built on read."""

    #: Not exactly representable: requirements depend on the history.
    BANDWIDTHS = (0.1, 0.2, 0.3, 0.7)

    def _connection(self, rng, cid):
        start = rng.randrange(6)
        ring = [(start + step) % 6 for step in range(rng.randint(2, 4))]
        backup = Channel(
            channel_id=cid, connection_id=cid, role=ChannelRole.BACKUP,
            serial=1, path=Path(ring),
            traffic=TrafficSpec(bandwidth=rng.choice(self.BANDWIDTHS)),
            mux_degree=rng.choice((1, 2, 3)),
        )
        primary = Channel(
            channel_id=1000 + cid, connection_id=cid,
            role=ChannelRole.PRIMARY, serial=0,
            path=Path(rng.sample(range(10, 20), 4)), traffic=TrafficSpec(),
        )
        return backup, primary

    def _loaded_engine(self, seed):
        """An engine after a seeded run of adds and removals, and the
        connections still resident."""
        rng = random.Random(seed)
        engine = MultiplexingEngine()
        live = {}
        for cid in range(40):
            backup, primary = self._connection(rng, cid)
            engine.add_backup(backup, primary)
            live[cid] = (backup, primary)
            if rng.random() < 0.4:
                backup, _ = live.pop(rng.choice(sorted(live)))
                engine.remove_backup(backup)
        return engine, live

    def test_entry_views_write_nothing_back(self):
        from repro.core.muxkernel import ComponentArena, VectorLinkMux

        engine, _ = self._loaded_engine(0)
        arena = ComponentArena()
        for link, scalar in engine.link_states().items():
            if not len(scalar):
                continue
            vector = VectorLinkMux(link, scalar.policy, arena)
            vector.adopt(scalar.entries(), scalar.spare_required())
            for s in (scalar, vector):
                before = (link_floats(s), s.spare_required_recomputed(),
                          s.preview_add(0.3, 2, mask_of(10, 11, 12)))
                views = s.entries()
                views.append(s.entry(views[0].channel_id))
                for view in views:
                    view.requirement += 100.0
                    view.bandwidth = 50.0
                    view.mux_degree = 0
                    view.mask = 0
                after = (link_floats(s), s.spare_required_recomputed(),
                         s.preview_add(0.3, 2, mask_of(10, 11, 12)))
                assert after == before, (link, type(s).__name__)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_restore_link_rebuilds_the_same_floats(self, seed):
        engine, live = self._loaded_engine(seed)
        restored = MultiplexingEngine()
        replayed = MultiplexingEngine()
        for link, s in engine.link_states().items():
            entries = [
                (*live[entry.channel_id], entry.requirement)
                for entry in s.entries()
            ]
            if not entries:
                continue
            restored.restore_link(link, entries, s.spare_required())
            for backup, primary, _ in entries:
                replayed.link_state(link).add(
                    backup.channel_id, backup.bandwidth, backup.mux_degree,
                    replayed.primary_mask(primary.path),
                )
        differs = False
        for link, s in engine.link_states().items():
            if len(s):
                assert link_floats(restored.link_state(link)) == link_floats(s)
                differs |= (
                    link_floats(replayed.link_state(link)) != link_floats(s)
                )
        # The recorded floats are not what a plain replay computes.
        assert differs
        # Restored link by link, each backup's links still share one row.
        for backup, _ in live.values():
            rows = [restored.link_state(link).row(backup.channel_id)
                    for link in backup.path.links]
            assert all(row is rows[0] for row in rows)
