"""Backup multiplexing: per-link spare-pool sizing (Sections 3.2 and 6).

At each link ℓ, the spare pool must be large enough to activate any backup
``B_i`` together with every *conflicting* backup that would draw from the
pool before it.  Following Section 3.2:

* ``Π(B_i, ℓ)`` — the backups **not multiplexable** with ``B_i`` — contains
  every backup ``B_j`` on ℓ with ``ν_j ≤ ν_i`` (the paper's refinement:
  "we consider only backups with no greater multiplexing degrees") whose
  simultaneous-activation probability satisfies ``S(B_i, B_j) ≥ ν_i``.
* the pool is sized ``spare(ℓ) = max_i [ bw(B_i) + Σ_{B_j ∈ Π(B_i,ℓ)} bw(B_j) ]``.

The ``ν_j ≤ ν_i`` filter is sound because activation is priority-ordered
by multiplexing degree (Section 4.3): when spare is contended, backups
with smaller ν draw first, so ``B_i`` only needs headroom for conflicting
backups of equal or higher priority.  This is exactly what makes the
paper's guarantees hold (mux=1 ⇒ all single failures covered, mux=3 ⇒ all
single *link* failures covered), and the recovery evaluator activates in
the same order.

``Ψ(B_i, ℓ)`` — the backups *multiplexed with* ``B_i`` (sharing its spare)
— feeds the multiplexing-failure bound of Section 3.3.

Storage: what is per backup is stored once.
:meth:`MultiplexingEngine.add_backup` builds one slotted
:class:`BackupRow` per backup (channel id, bandwidth, ν, primary mask)
and every link the backup crosses references that same object; a
:class:`LinkMuxState` keeps its rows in registration order plus the one
fact that differs per link, the backup's requirement there.
:class:`MuxEntry` is the per-(backup, link) view that ``entries()`` and
``entry()`` build on read; mutating one writes nothing back.

Complexity (Section 6): adding or removing a backup updates a link in
O(n) pairwise tests by maintaining each entry's requirement incrementally;
recomputing from scratch would be O(n²).  Both paths exist (the scratch
recompute doubles as a validation oracle) and the ratio test of
``benchmarks/paper`` measures the gap.  Admitting one
backup costs one such pass per link, not three: the admission preview,
the commit and the new entry's |Ψ| share :meth:`LinkMuxState._pair_scan`.
Under the integer test most of a pass is decided by one popcount: a
backup is in another's Π only if their primaries share at least as many
components as the larger of their two ν, so a resident sharing fewer
than the candidate's (or the leaver's) ν costs one popcount and one
comparison, and only the conflicting residents run the full test.  On the
§7 8×8 torus that is 69.7 % of the pairs an all-pairs build tests at ν=3
and 92.2 % at ν=6.

Every link runs on :class:`LinkMuxState`: the pure-Python pass above is
the only multiplexing backend, and the runtime needs nothing beyond the
standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import indexOf

from repro.channels.channel import Channel, ChannelRole
from repro.core.overlap import ComponentSpace, OverlapPolicy
from repro.network.components import LinkId
from repro.routing.paths import Path
from repro.util.validation import check_positive


def check_resident(state, channel_ids: list[int]) -> None:
    """Raise ``KeyError`` unless ``state.remove_many(channel_ids)`` would
    succeed: every id resident and listed once.  ``remove_many`` calls
    it before removing anything; the engine calls it once on every link
    of a teardown before touching any, then removes through the link
    states' unchecked ``_remove_resident``."""
    seen = set()
    for channel_id in channel_ids:
        if channel_id not in state or channel_id in seen:
            raise KeyError(f"backup {channel_id} not on link {state.link}")
        seen.add(channel_id)


@dataclass(slots=True, eq=False)
class BackupRow:
    """What one backup brings to every link it crosses, stored once: the
    engine builds one per backup and each link state references it."""

    channel_id: int
    bandwidth: float
    mux_degree: int
    #: The primary's components as an integer bitset under the engine's
    #: :class:`~repro.core.overlap.ComponentSpace`; ``c(M)`` is its
    #: popcount.
    mask: int


@dataclass(slots=True)
class MuxEntry:
    """Multiplexing bookkeeping for one backup on one link — a view built
    on read from the backup's :class:`BackupRow` and its requirement on
    the link; mutating it changes no link state."""

    channel_id: int
    bandwidth: float
    mux_degree: int
    mask: int
    #: bw(B_i) + Σ bw over Π(B_i, ℓ); maintained incrementally.  Π itself
    #: is not stored: membership is a pure function of the two rows, so
    #: removal re-derives it with the pair test that ``add`` used.
    requirement: float


@dataclass(slots=True)
class _PairScan:
    """What one pass over a link's residents learns about a candidate
    backup ``(mask, ν, bandwidth)`` under the integer test — everything
    ``preview_add``, ``add`` and the candidate's ``psi_size`` need."""

    key: tuple
    #: bw(candidate) + Σ bw over Π(candidate, ℓ), folded in resident order.
    requirement: float
    #: Ids of the residents whose Π gains the candidate, in resident order.
    charged: "list[int]"
    #: Largest current requirement among ``charged`` (-1.0 if none).
    charged_peak: float
    #: |Ψ(candidate, ℓ)|.
    psi: int
    #: ``None`` while the scan describes a candidate; the channel id once
    #: ``add`` committed it (it then answers that entry's ``psi_size``).
    channel_id: "int | None" = None


class LinkMuxState:
    """Multiplexing state of the backups on one simplex link."""

    def __init__(self, link: LinkId, policy: OverlapPolicy) -> None:
        self.link = link
        self.policy = policy
        #: The resident backups' shared rows, in registration order.
        self._rows: list[BackupRow] = []
        #: channel id -> its requirement on this link, in the same order
        #: as ``_rows``: bw(B_i) + Σ bw over Π(B_i, ℓ), maintained
        #: incrementally.
        self._requirements: dict[int, float] = {}
        self._spare_required = 0.0
        #: The last integer-mode pair scan — a previewed candidate's, or
        #: the last added entry's; any later mutation drops or replaces it.
        self._scan: "_PairScan | None" = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, channel_id: object) -> bool:
        return channel_id in self._requirements

    def row(self, channel_id: int) -> BackupRow:
        """The shared row of one resident backup; raises ``KeyError``.
        ``_requirements`` lists the residents in ``_rows`` order, so the
        row's position is one C-level search of its keys."""
        if channel_id not in self._requirements:
            raise KeyError(channel_id)
        return self._rows[indexOf(self._requirements, channel_id)]

    def entries(self) -> list[MuxEntry]:
        """All backup entries on this link, in registration order
        (views: mutating one does not write back)."""
        return [
            MuxEntry(
                row.channel_id, row.bandwidth, row.mux_degree, row.mask,
                requirement,
            )
            for row, requirement in zip(self._rows, self._requirements.values())
        ]

    def entry(self, channel_id: int) -> MuxEntry:
        """The entry view for one backup; raises ``KeyError`` if absent."""
        row = self.row(channel_id)
        return MuxEntry(
            channel_id, row.bandwidth, row.mux_degree, row.mask,
            self._requirements[channel_id],
        )

    def set_requirements(
        self, requirements: "dict[int, float]", spare_required: float
    ) -> None:
        """Overwrite per-entry requirements and the pool maximum verbatim.

        Requirement values are maintained *incrementally* by :meth:`add` /
        :meth:`remove`, so in IEEE arithmetic they depend on the full
        add/remove history, not just the resident entry set.  Snapshot
        restore therefore re-adds entries in recorded order and then
        calls this to transplant the float state recorded at snapshot
        time, making post-restore pool sizing bit-identical to the
        uninterrupted run.  ``spare_required`` must be the largest
        resident requirement, as in every recorded state:
        :meth:`remove_many` relies on that to skip recomputing it.
        """
        resident = self._requirements
        for channel_id, requirement in requirements.items():
            if channel_id not in resident:
                raise KeyError(channel_id)
            resident[channel_id] = requirement
        self._spare_required = spare_required
        self._scan = None

    def spare_required(self) -> float:
        """The pool size required by the current backup set.

        O(1): the maximum is maintained incrementally by :meth:`add` /
        :meth:`remove` instead of being recomputed per query.
        """
        return self._spare_required

    def spare_required_recomputed(self) -> float:
        """O(n²) from-scratch recomputation — validation oracle for the
        incremental bookkeeping, and the naive baseline of Section 6."""
        rows = self._rows
        best = 0.0
        for row in rows:
            requirement = row.bandwidth
            for other in rows:
                if other is not row and self._in_pi(row, other):
                    requirement += other.bandwidth
            best = max(best, requirement)
        return best

    def psi_size(self, channel_id: int) -> int:
        """|Ψ(B_i, ℓ)| — how many backups share spare with ``B_i``
        (Section 3.3's multiplexing-failure bound input)."""
        scan = self._scan
        if scan is not None and scan.channel_id == channel_id:
            # Nothing changed since this entry's own add scanned.
            return scan.psi
        row = self.row(channel_id)
        if not self.policy.exact:
            # Integer mode, inlined: multiplexable ⇔ sc < ν.
            degree = row.mux_degree
            if degree <= 0:
                return 0
            mask = row.mask
            return sum(
                1
                for other in self._rows
                if other is not row
                and (mask & other.mask).bit_count() < degree
            )
        return sum(
            1
            for other in self._rows
            if other is not row and self._multiplexable(row, other)
        )

    def psi_sizes_for_candidate(
        self, mask: int, mux_degrees: list[int]
    ) -> dict[int, int]:
        """|Ψ| a *new* backup would see on this link, per candidate degree.

        This is the forward-pass computation of the literal negotiation
        scheme (Section 3.4): the reservation message collects these counts
        so the destination can pick the largest admissible ν.
        """
        count = mask.bit_count()
        sizes = dict.fromkeys(mux_degrees, 0)
        for other in self._rows:
            shared = (mask & other.mask).bit_count()
            other_count = other.mask.bit_count()
            for degree in mux_degrees:
                if self.policy.multiplexable_counts(
                    count, other_count, shared, degree
                ):
                    sizes[degree] += 1
        return sizes

    # ------------------------------------------------------------------
    # pair tests
    # ------------------------------------------------------------------
    def _multiplexable(self, perspective: BackupRow, other: BackupRow) -> bool:
        """Whether ``other`` may share ``perspective``'s spare, judged by
        ``perspective``'s own threshold ν."""
        return self.policy.multiplexable_counts(
            perspective.mask.bit_count(),
            other.mask.bit_count(),
            (perspective.mask & other.mask).bit_count(),
            perspective.mux_degree,
        )

    def _in_pi(self, perspective: BackupRow, other: BackupRow) -> bool:
        """Whether ``other`` belongs to Π(perspective, ℓ)."""
        return other.mux_degree <= perspective.mux_degree and not self._multiplexable(
            perspective, other
        )

    def _pair_scan(self, mask: int, degree: int, bandwidth: float) -> _PairScan:
        """The integer-mode pass over the residents for one candidate.

        With ``sc`` the pair's shared-component popcount (never negative,
        so ``ν ≤ 0`` needs no case of its own), the two tests are
        ``o ∈ Π(c) ⇔ o.ν ≤ c.ν and sc ≥ c.ν`` and ``c ∈ Π(o) ⇔ c.ν ≤ o.ν
        and sc ≥ o.ν``.  Both need ``sc ≥ c.ν`` (the second through
        ``sc ≥ o.ν ≥ c.ν``), so a resident with ``sc < c.ν`` is in
        Ψ(c), in neither Π, and costs one popcount and one comparison;
        |Ψ| is the residents minus the conflicting ones.  Only those run
        the full test, in resident order, so every float is folded in
        the order the plain per-pair test folds it.  Served from the
        link's memo when the same candidate was scanned last and nothing
        mutated since — a commit that follows its own preview — and
        rescanned otherwise."""
        key = (mask, degree, bandwidth)
        scan = self._scan
        if scan is not None and scan.channel_id is None and scan.key == key:
            return scan
        requirements = self._requirements
        rows = self._rows
        requirement = bandwidth
        charged = []
        charged_peak = -1.0
        conflicting = 0
        for other in rows:
            shared = (mask & other.mask).bit_count()
            if shared < degree:
                continue
            conflicting += 1
            other_degree = other.mux_degree
            if other_degree <= degree:
                requirement += other.bandwidth
                if other_degree < degree:
                    continue
            elif shared < other_degree:
                continue
            other_id = other.channel_id
            charged.append(other_id)
            other_requirement = requirements[other_id]
            if other_requirement > charged_peak:
                charged_peak = other_requirement
        scan = self._scan = _PairScan(
            key, requirement, charged, charged_peak, len(rows) - conflicting
        )
        return scan

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def preview_add(self, bandwidth: float, mux_degree: int, mask: int) -> float:
        """Pool size this link would need if the described backup joined.

        Pure query — used by establishment to test admission before
        committing, without mutating any state.
        """
        check_positive(bandwidth, "bandwidth")
        if not self.policy.exact:
            # Entries the candidate does not conflict with keep their
            # current requirement, whose maximum is already maintained in
            # ``_spare_required`` — only the charged ones can exceed it.
            scan = self._pair_scan(mask, mux_degree, bandwidth)
            best = self._spare_required
            if scan.charged_peak >= 0.0 and scan.charged_peak + bandwidth > best:
                best = scan.charged_peak + bandwidth
            return max(best, scan.requirement)
        candidate = BackupRow(-1, bandwidth, mux_degree, mask)
        new_requirement = bandwidth
        best = 0.0
        for other, requirement in zip(self._rows, self._requirements.values()):
            if self._in_pi(candidate, other):
                new_requirement += other.bandwidth
            if self._in_pi(other, candidate):
                best = max(best, requirement + bandwidth)
            else:
                best = max(best, requirement)
        return max(best, new_requirement)

    def add(
        self,
        channel_id: int,
        bandwidth: float,
        mux_degree: int,
        mask: int,
    ) -> float:
        """Register a backup; returns the new required pool size."""
        return self.add_row(BackupRow(channel_id, bandwidth, mux_degree, mask))

    def add_row(self, row: BackupRow) -> float:
        """Register the backup ``row`` describes, referencing ``row``
        itself; returns the new required pool size.

        O(n) in the number of backups already on the link: one pairwise
        test per existing entry, updating requirements incrementally.
        """
        channel_id = row.channel_id
        requirements = self._requirements
        if channel_id in requirements:
            raise ValueError(f"backup {channel_id} already on link {self.link}")
        bandwidth = row.bandwidth
        check_positive(bandwidth, "bandwidth")
        # Requirements only grow on add, so the cached maximum needs at
        # most the new entry's requirement and the ones that just grew.
        peak = self._spare_required
        if not self.policy.exact:
            scan = self._pair_scan(row.mask, row.mux_degree, bandwidth)
            requirement = scan.requirement
            for other_id in scan.charged:
                requirements[other_id] += bandwidth
            # Rounding is monotonic, so the largest grown requirement is
            # the largest charged one grown.
            if scan.charged_peak >= 0.0 and scan.charged_peak + bandwidth > peak:
                peak = scan.charged_peak + bandwidth
            scan.channel_id = channel_id
        else:
            requirement = bandwidth
            for other in self._rows:
                if self._in_pi(row, other):
                    requirement += other.bandwidth
                if self._in_pi(other, row):
                    grown = requirements[other.channel_id] + bandwidth
                    requirements[other.channel_id] = grown
                    if grown > peak:
                        peak = grown
        self._rows.append(row)
        requirements[channel_id] = requirement
        self._spare_required = max(peak, requirement)
        return self._spare_required

    def remove(self, channel_id: int) -> float:
        """Deregister a backup; returns the new required pool size."""
        return self.remove_many([channel_id])

    def remove_many(self, channel_ids: list[int]) -> float:
        """Deregister several backups in order; returns the final pool
        size.  Validate-then-apply: an unknown id raises ``KeyError``
        and leaves the link untouched."""
        check_resident(self, channel_ids)
        return self._remove_resident(channel_ids)

    def _remove_resident(self, channel_ids: list[int]) -> float:
        """:meth:`remove_many` for ids :func:`check_resident` passed.

        A survivor sheds the leaver's bandwidth iff the leaver is in its
        Π — ``in_pi(other, leaver)``, the test ``add`` charged it by.
        Under the integer test that needs ``sc ≥ other.ν ≥ leaver.ν``,
        so a survivor sharing fewer than ``leaver.ν`` components is
        skipped after one popcount and one comparison."""
        self._scan = None
        rows = self._rows
        requirements = self._requirements
        exact = self.policy.exact
        # Requirements only shrink on remove, so the pool maximum moves
        # only if an entry that held it leaves or sheds bandwidth.
        old_peak = self._spare_required
        peak_moved = False
        for channel_id in channel_ids:
            # Rows and requirements are in the same order (see ``row``).
            leaver = rows.pop(indexOf(requirements, channel_id))
            if requirements.pop(channel_id) >= old_peak:
                peak_moved = True
            bandwidth = leaver.bandwidth
            degree = leaver.mux_degree
            if exact:
                for other in rows:
                    if degree > other.mux_degree or self._multiplexable(
                        other, leaver
                    ):
                        continue
                    other_id = other.channel_id
                    requirement = requirements[other_id]
                    if requirement >= old_peak:
                        peak_moved = True
                    requirements[other_id] = requirement - bandwidth
            else:
                mask = leaver.mask
                for other in rows:
                    shared = (mask & other.mask).bit_count()
                    if shared < degree:
                        continue
                    other_degree = other.mux_degree
                    if other_degree < degree or shared < other_degree:
                        continue
                    other_id = other.channel_id
                    requirement = requirements[other_id]
                    if requirement >= old_peak:
                        peak_moved = True
                    requirements[other_id] = requirement - bandwidth
        if peak_moved:
            self._spare_required = max(requirements.values(), default=0.0)
        return self._spare_required


class MultiplexingEngine:
    """Backup-multiplexing state across all links of a network.

    Owns one :class:`LinkMuxState` per link (created lazily), keyed by
    the channels' paths.  The engine is pure bookkeeping: the
    establishment machinery is responsible for mirroring pool sizes into
    the reservation ledger.
    """

    def __init__(self, policy: OverlapPolicy | None = None) -> None:
        self.policy = policy or OverlapPolicy()
        #: Engine-wide interner: a primary resolves once per admission
        #: to an integer bitset, which every link the backup crosses
        #: keeps in its row.
        self._space = ComponentSpace()
        self._links: dict = {}

    def link_state(self, link: LinkId):
        """The (lazily created) multiplexing state of ``link``."""
        state = self._links.get(link)
        if state is None:
            state = self._links[link] = LinkMuxState(link, self.policy)
        return state

    def spare_required(self, link: LinkId) -> float:
        """Required pool size of ``link`` (0 for untouched links)."""
        state = self._links.get(link)
        return state.spare_required() if state else 0.0

    def link_states(self) -> dict:
        """Live per-link states — only links that ever saw a backup.

        Read-only view for the snapshot codec; an empty state is
        indistinguishable from an untouched link (its pool requirement
        is exactly ``0.0``), so snapshots skip both.
        """
        return self._links

    def primary_mask(self, path: Path) -> int:
        """The bitset of a primary's components under the policy — its
        links and its nodes (interior ones only unless
        ``count_endpoints``) — interning new ones.  Work it out once per
        admission and hand it to every link."""
        space = self._space
        nodes = path.nodes if self.policy.count_endpoints else path.interior_nodes
        return space.intern(nodes) | space.intern(path.links)

    # ------------------------------------------------------------------
    def _add(self, link: LinkId, row: BackupRow) -> float:
        """Register the backup ``row`` describes on one link."""
        state = self._links.get(link)
        if state is None:
            state = self.link_state(link)
        return state.add_row(row)

    def _row(self, backup: Channel, primary: Channel) -> BackupRow:
        """The one row every link of ``backup`` references."""
        return BackupRow(
            backup.channel_id, backup.bandwidth, backup.mux_degree,
            self.primary_mask(primary.path),
        )

    def add_backup(self, backup: Channel, primary: Channel) -> dict[LinkId, float]:
        """Register ``backup`` on every link of its path; returns the new
        required pool size per link."""
        if backup.role is not ChannelRole.BACKUP:
            raise ValueError(f"channel {backup.channel_id} is not a backup")
        row = self._row(backup, primary)
        return {link: self._add(link, row) for link in backup.path.links}

    def restore_link(
        self,
        link: LinkId,
        entries: "list[tuple[Channel, Channel, float]]",
        spare_required: float,
    ) -> None:
        """Rebuild ``link`` from a snapshot row: ``entries`` holds
        ``(backup, primary, requirement)`` in recorded insertion order.

        Adds are replayed in that order, then the recorded floats are
        transplanted over the freshly computed ones — see
        :meth:`LinkMuxState.set_requirements` for why.  A backup whose
        row a link restored earlier holds reuses that row, so a restored
        network stores each backup's row once, as a built one does."""
        for backup, primary, _ in entries:
            self._add(link, self._restored_row(backup, primary))
        self.link_state(link).set_requirements(
            {backup.channel_id: requirement for backup, _, requirement in entries},
            spare_required,
        )

    def _restored_row(self, backup: Channel, primary: Channel) -> BackupRow:
        """``backup``'s row as a link restored before holds it, else a
        new one."""
        for link in backup.path.links:
            state = self._links.get(link)
            if state is not None and backup.channel_id in state:
                return state.row(backup.channel_id)
        return self._row(backup, primary)

    def remove_backup(self, backup: Channel) -> dict[LinkId, float]:
        """Deregister ``backup`` from every link of its path; returns the
        new required pool size per link."""
        return self._remove([backup])

    def remove_backups(self, backups: "list[Channel]") -> dict[LinkId, float]:
        """Deregister several backups at once; returns the new required
        pool size per *affected* link.

        The returned mapping holds each link's final requirement —
        suitable for one bulk :meth:`ReservationLedger.set_spares` mirror
        (the incremental-teardown path: only links some removed backup
        crossed are touched, everything else keeps its pool untouched)."""
        return self._remove(backups)

    def _remove(self, backups: "list[Channel]") -> dict[LinkId, float]:
        """Group the removals by link and tear each link down in one
        ``remove_many`` call (same per-link order as backup-by-backup
        removal, so the final state is bit-identical).
        Validate-then-apply: a backup missing from any of its links
        raises ``KeyError`` before any link is touched."""
        per_link: dict[LinkId, list[int]] = {}
        for backup in backups:
            for link in backup.path.links:
                per_link.setdefault(link, []).append(backup.channel_id)
        links = self._links
        for link, channel_ids in per_link.items():
            # Looked up, not created: a refused removal adds no state.
            state = links.get(link)
            if state is None:
                raise KeyError(f"backup {channel_ids[0]} not on link {link}")
            check_resident(state, channel_ids)
        return {
            link: links[link]._remove_resident(channel_ids)
            for link, channel_ids in per_link.items()
        }

    def psi_sizes(self, backup: Channel) -> dict[LinkId, int]:
        """|Ψ(B_i, ℓ)| for every link of the backup's path — the inputs of
        the P_muxf upper bound (Section 3.3)."""
        return {
            link: self.link_state(link).psi_size(backup.channel_id)
            for link in backup.path.links
        }
