"""Reference oracle for the multiplexing engine's link state.

:class:`~repro.core.multiplexing.LinkMuxState` takes a primary as one
integer bitmask, worked out once per admission by
:meth:`~repro.core.multiplexing.MultiplexingEngine.primary_mask`.  It
used to take the primary's component *frozenset* and intern it itself,
memoised per set.  This module is that version, kept verbatim apart from
its names, so ``tests/test_mux_differential.py`` can hold the mask path
to it float for float.

:func:`plant_kernel` makes every link an engine creates the vectorized
:class:`~repro.core.muxkernel.VectorLinkMux` instead, so the tests that
hold the kernel to the scalar pass can drive it through a whole network
while the kernel module stays in ``src/``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.multiplexing import BackupRow, MultiplexingEngine
from repro.core.muxkernel import ComponentArena, VectorLinkMux
from repro.core.overlap import OverlapPolicy
from repro.network.components import LinkId
from repro.util.validation import check_positive


class FrozensetSpace:
    """Interner from components to bits, memoised per component set."""

    def __init__(self) -> None:
        self._bits: dict[object, int] = {}
        self._set_masks: dict[frozenset, int] = {}

    def _intern(self, components: Iterable) -> int:
        bits = self._bits
        mask = 0
        for component in components:
            bit = bits.get(component)
            if bit is None:
                bit = 1 << len(bits)
                bits[component] = bit
            mask |= bit
        return mask

    def mask(self, components: frozenset) -> int:
        """The integer bitset of ``components``, interning new ones."""
        cached = self._set_masks.get(components)
        if cached is None:
            cached = self._set_masks[components] = self._intern(components)
        return cached


def check_resident(state, channel_ids: list[int]) -> None:
    """Raise ``KeyError`` unless ``state.remove_many(channel_ids)`` would
    succeed: every id resident and listed once."""
    seen = set()
    for channel_id in channel_ids:
        if channel_id not in state or channel_id in seen:
            raise KeyError(f"backup {channel_id} not on link {state.link}")
        seen.add(channel_id)


@dataclass(slots=True)
class FrozensetEntry:
    """Multiplexing bookkeeping for one backup on one link."""

    channel_id: int
    bandwidth: float
    mux_degree: int
    primary_components: frozenset
    #: bw(B_i) + Σ bw over Π(B_i, ℓ); maintained incrementally.  Π itself
    #: is not stored: membership is a pure function of the two entries,
    #: so removal re-derives it with the pair test that ``add`` used.
    requirement: float = 0.0
    #: Integer bitset of ``primary_components`` under the owning link
    #: state's :class:`FrozensetSpace`.
    mask: int = 0


@dataclass(slots=True)
class _PairScan:
    """What one pass over a link's residents learns about a candidate
    backup ``(mask, ν, bandwidth)`` under the integer test — everything
    ``preview_add``, ``add`` and the candidate's ``psi_size`` need."""

    key: tuple
    #: bw(candidate) + Σ bw over Π(candidate, ℓ), folded in resident order.
    requirement: float
    #: Residents whose Π gains the candidate, in resident order.
    charged: "list[FrozensetEntry]"
    #: Largest current requirement among ``charged`` (-1.0 if none).
    charged_peak: float
    #: |Ψ(candidate, ℓ)|.
    psi: int
    #: ``None`` while the scan describes a candidate; the channel id once
    #: ``add`` committed it (it then answers that entry's ``psi_size``).
    channel_id: "int | None" = None


class FrozensetLinkMuxState:
    """The frozenset-keyed link state: ``add`` / ``preview_add`` /
    ``psi_sizes_for_candidate`` take a primary's component set."""

    def __init__(
        self,
        link: LinkId,
        policy: OverlapPolicy,
        space: "FrozensetSpace | None" = None,
    ) -> None:
        self.link = link
        self.policy = policy
        #: Component interner, shared across every link of an engine:
        #: each distinct primary resolves to an integer bitset once, and
        #: every pairwise shared-count below is a popcount.
        self._space = space if space is not None else FrozensetSpace()
        self._entries: dict[int, FrozensetEntry] = {}
        self._spare_required = 0.0
        #: The last integer-mode pair scan — a previewed candidate's, or
        #: the last added entry's; any later mutation drops or replaces it.
        self._scan: "_PairScan | None" = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, channel_id: object) -> bool:
        return channel_id in self._entries

    def entries(self) -> list[FrozensetEntry]:
        """All backup entries on this link, in registration order."""
        return list(self._entries.values())

    def entry(self, channel_id: int) -> FrozensetEntry:
        """The entry for one backup; raises ``KeyError`` if absent."""
        return self._entries[channel_id]

    def spare_required(self) -> float:
        """The pool size required by the current backup set.

        O(1): the maximum is maintained incrementally by :meth:`add` /
        :meth:`remove` instead of being recomputed per query.
        """
        return self._spare_required

    def spare_required_recomputed(self) -> float:
        """O(n²) from-scratch recomputation — validation oracle for the
        incremental bookkeeping, and the naive baseline of Section 6."""
        entries = list(self._entries.values())
        best = 0.0
        for entry in entries:
            requirement = entry.bandwidth
            for other in entries:
                if other.channel_id != entry.channel_id and self._in_pi(entry, other):
                    requirement += other.bandwidth
            best = max(best, requirement)
        return best

    def psi_size(self, channel_id: int) -> int:
        """|Ψ(B_i, ℓ)| — how many backups share spare with ``B_i``
        (Section 3.3's multiplexing-failure bound input)."""
        entry = self._entries[channel_id]
        if not self.policy.exact:
            scan = self._scan
            if scan is not None and scan.channel_id == channel_id:
                # Nothing changed since this entry's own add scanned.
                return scan.psi
            # Integer mode, inlined: multiplexable ⇔ sc < ν.
            degree = entry.mux_degree
            if degree <= 0:
                return 0
            mask = entry.mask
            return sum(
                1
                for other in self._entries.values()
                if other is not entry
                and (mask & other.mask).bit_count() < degree
            )
        return sum(
            1
            for other in self._entries.values()
            if other is not entry and self._multiplexable(entry, other)
        )

    def psi_sizes_for_candidate(
        self, primary_components: frozenset, mux_degrees: list[int]
    ) -> dict[int, int]:
        """|Ψ| a *new* backup would see on this link, per candidate degree.

        This is the forward-pass computation of the literal negotiation
        scheme (Section 3.4): the reservation message collects these counts
        so the destination can pick the largest admissible ν.
        """
        mask = self._space.mask(primary_components)
        count = len(primary_components)
        sizes = dict.fromkeys(mux_degrees, 0)
        for other in self._entries.values():
            shared = (mask & other.mask).bit_count()
            other_count = len(other.primary_components)
            for degree in mux_degrees:
                if self.policy.multiplexable_counts(
                    count, other_count, shared, degree
                ):
                    sizes[degree] += 1
        return sizes

    # ------------------------------------------------------------------
    # pair tests
    # ------------------------------------------------------------------
    def _multiplexable(self, perspective: FrozensetEntry, other: FrozensetEntry) -> bool:
        """Whether ``other`` may share ``perspective``'s spare, judged by
        ``perspective``'s own threshold ν."""
        return self.policy.multiplexable_counts(
            len(perspective.primary_components),
            len(other.primary_components),
            (perspective.mask & other.mask).bit_count(),
            perspective.mux_degree,
        )

    def _in_pi(self, perspective: FrozensetEntry, other: FrozensetEntry) -> bool:
        """Whether ``other`` belongs to Π(perspective, ℓ)."""
        return other.mux_degree <= perspective.mux_degree and not self._multiplexable(
            perspective, other
        )

    def _pair_scan(self, mask: int, degree: int, bandwidth: float) -> _PairScan:
        """The integer-mode pass over the residents for one candidate:
        ``in_pi(p, o) ⇔ o.ν ≤ p.ν and not (p.ν > 0 and sc < p.ν)`` with
        ``sc`` a popcount, judged both ways per resident.  Served from
        the link's memo when the same candidate was scanned last and
        nothing mutated since — a commit that follows its own preview —
        and rescanned otherwise."""
        key = (mask, degree, bandwidth)
        scan = self._scan
        if scan is not None and scan.channel_id is None and scan.key == key:
            return scan
        requirement = bandwidth
        charged = []
        charged_peak = -1.0
        psi = 0
        for other in self._entries.values():
            shared = (mask & other.mask).bit_count()
            other_degree = other.mux_degree
            if shared < degree:
                psi += 1
            elif other_degree <= degree:
                requirement += other.bandwidth
            if degree <= other_degree and (
                other_degree <= 0 or shared >= other_degree
            ):
                charged.append(other)
                if other.requirement > charged_peak:
                    charged_peak = other.requirement
        scan = self._scan = _PairScan(key, requirement, charged, charged_peak, psi)
        return scan

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def preview_add(
        self, bandwidth: float, mux_degree: int, primary_components: frozenset
    ) -> float:
        """Pool size this link would need if the described backup joined.

        Pure query — used by establishment to test admission before
        committing, without mutating any state.
        """
        check_positive(bandwidth, "bandwidth")
        mask = self._space.mask(primary_components)
        if not self.policy.exact:
            # Entries the candidate does not conflict with keep their
            # current requirement, whose maximum is already maintained in
            # ``_spare_required`` — only the charged ones can exceed it.
            scan = self._pair_scan(mask, mux_degree, bandwidth)
            best = self._spare_required
            if scan.charged_peak >= 0.0 and scan.charged_peak + bandwidth > best:
                best = scan.charged_peak + bandwidth
            return max(best, scan.requirement)
        candidate = FrozensetEntry(-1, bandwidth, mux_degree, primary_components, mask=mask)
        new_requirement = bandwidth
        best = 0.0
        for other in self._entries.values():
            if self._in_pi(candidate, other):
                new_requirement += other.bandwidth
            if self._in_pi(other, candidate):
                best = max(best, other.requirement + bandwidth)
            else:
                best = max(best, other.requirement)
        return max(best, new_requirement)

    def add(
        self,
        channel_id: int,
        bandwidth: float,
        mux_degree: int,
        primary_components: frozenset,
    ) -> float:
        """Register a backup; returns the new required pool size.

        O(n) in the number of backups already on the link: one pairwise
        test per existing entry, updating requirements incrementally.
        """
        if channel_id in self._entries:
            raise ValueError(f"backup {channel_id} already on link {self.link}")
        check_positive(bandwidth, "bandwidth")
        mask = self._space.mask(primary_components)
        entry = FrozensetEntry(
            channel_id, bandwidth, mux_degree, primary_components, bandwidth, mask
        )
        # Requirements only grow on add, so the cached maximum needs at
        # most the new entry's requirement and the ones that just grew.
        peak = self._spare_required
        if not self.policy.exact:
            scan = self._pair_scan(mask, mux_degree, bandwidth)
            entry.requirement = scan.requirement
            for other in scan.charged:
                other.requirement += bandwidth
                if other.requirement > peak:
                    peak = other.requirement
            scan.channel_id = channel_id
        else:
            for other in self._entries.values():
                if self._in_pi(entry, other):
                    entry.requirement += other.bandwidth
                if self._in_pi(other, entry):
                    other.requirement += bandwidth
                    if other.requirement > peak:
                        peak = other.requirement
        self._entries[channel_id] = entry
        self._spare_required = max(peak, entry.requirement)
        return self._spare_required

    def remove(self, channel_id: int) -> float:
        """Deregister a backup; returns the new required pool size."""
        return self.remove_many([channel_id])

    def remove_many(self, channel_ids: list[int]) -> float:
        """Deregister several backups in order; returns the final pool
        size.  Validate-then-apply: an unknown id raises ``KeyError``
        and leaves the link untouched."""
        check_resident(self, channel_ids)
        self._scan = None
        entries = self._entries
        exact = self.policy.exact
        # Requirements only shrink on remove, so the pool maximum moves
        # only if an entry that held it leaves or sheds bandwidth.
        old_peak = self._spare_required
        peak_moved = False
        for channel_id in channel_ids:
            entry = entries.pop(channel_id)
            if entry.requirement >= old_peak:
                peak_moved = True
            bandwidth = entry.bandwidth
            degree = entry.mux_degree
            mask = entry.mask
            # Survivors whose Π held the leaver shed its bandwidth —
            # in_pi(other, entry), the test ``add`` charged them by.
            for other in entries.values():
                other_degree = other.mux_degree
                if degree > other_degree:
                    continue
                if exact:
                    charged = not self._multiplexable(other, entry)
                else:
                    charged = (
                        other_degree <= 0
                        or (mask & other.mask).bit_count() >= other_degree
                    )
                if charged:
                    if other.requirement >= old_peak:
                        peak_moved = True
                    other.requirement -= bandwidth
        if peak_moved:
            self._spare_required = max(
                (other.requirement for other in entries.values()), default=0.0
            )
        return self._spare_required


class PlantedKernel(VectorLinkMux):
    """The vectorized kernel as a planted link state.  A restore reads a
    backup's row from a link that holds it; the kernel keeps columns, so
    :meth:`row` rebuilds the row from them."""

    def row(self, channel_id: int) -> BackupRow:
        entry = self.entry(channel_id)
        return BackupRow(
            channel_id, entry.bandwidth, entry.mux_degree, entry.mask
        )


def _kernel_link_state(engine: MultiplexingEngine, link: LinkId):
    """:meth:`MultiplexingEngine.link_state`, creating a
    :class:`PlantedKernel` (an engine's links share one arena)."""
    state = engine._links.get(link)
    if state is None:
        arena = vars(engine).setdefault("_kernel_arena", ComponentArena())
        state = engine._links[link] = PlantedKernel(link, engine.policy, arena)
    return state


def plant_kernel(monkeypatch) -> None:
    """Until ``monkeypatch`` undoes it, every link a multiplexing engine
    creates is a :class:`PlantedKernel`."""
    monkeypatch.setattr(MultiplexingEngine, "link_state", _kernel_link_state)
