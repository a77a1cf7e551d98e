"""Vectorized multiplexing kernel: packed-bitset Π-set maintenance.

The per-pair hot loop of :class:`~repro.core.multiplexing.LinkMuxState`
performs one Python-level conflict test per backup already on a link for
every admission, teardown, and preview.  Section 6's scalability argument
(O(n) incremental maintenance versus the O(n²) recompute) survives that
constant factor at paper scale, but not at 10⁵–10⁶ live backups.  This
module keeps the same O(n) update contract and replaces the n Python pair
tests with *one vectorized conflict test per link*:

* :class:`ComponentArena` — an engine-wide table from each distinct
  primary mask (the engine's
  :class:`~repro.core.overlap.ComponentSpace` bitset) to one row of a
  shared numpy ``uint64`` arena holding the same bits (grown
  geometrically in both rows and words).  ``sc(M_i, M_j)`` for one
  candidate against many rows is a single
  ``bitwise_count(words[rows] & words[row]).sum(axis=1)``.
* :class:`VectorLinkMux` — the multiplexing state of one link with
  array-resident per-entry columns (``channel_id``, ``bandwidth``,
  ``mux_degree``, ``requirement``, arena row) plus a per-link
  *distinct-row table*: entries carry a slot into the link's list of
  distinct arena rows, so a conflict test popcounts once per distinct
  primary (bounded by the topology, not the admission count — churn
  re-routes the same pairs) and fans out per entry with one gather.
  ``add`` / ``remove`` /
  ``preview_add`` / ``psi_size`` are bit-for-bit equivalent to the
  per-pair reference implementation: requirement sums use a sequential
  left fold (``np.cumsum``), per-entry increments/decrements are the same
  single IEEE operations the reference applies, and maxima are exact, so
  ``spare_required`` and every Ψ size match the reference byte for byte
  (property-tested over randomized add/remove sequences).

The kernel covers the paper's integer multiplexability test (``sc < α``,
the default :class:`~repro.core.overlap.OverlapPolicy`).  Exact-``S``
policies keep the scalar path — their verdicts hinge on libm ``pow``
behaviour that the kernel will not re-derive in float32/float64 array
form.

Each link operation pays a fixed numpy dispatch overhead, so the kernel
only wins on densely populated links;
:class:`~repro.core.multiplexing.MultiplexingEngine` decides per link
when to promote (see ``KERNEL_MIN_POPULATION`` there) and nothing else
constructs a :class:`VectorLinkMux` outside tests and benchmarks.  The
engine imports this module at its first promotion, which is what keeps
numpy out of every process that never promotes a link.
"""

from __future__ import annotations

import numpy as np

from repro.core.multiplexing import MuxEntry, check_resident
from repro.network.components import LinkId
from repro.util.validation import check_positive

__all__ = ["ComponentArena", "VectorLinkMux"]


class ComponentArena:
    """Packed-bitset rows keyed by primary mask.

    Each distinct primary mask is copied, word by word, into one row of
    a shared 2-D ``uint64`` arena; bit ``i`` of the mask is bit ``i`` of
    the row, so a row popcount equals the mask's.  Both dimensions grow
    geometrically, so a settled workload stops allocating.  The arena is
    append-only: rows are never evicted, because distinct primary paths
    are bounded by the topology (not by churn volume) and teardown must
    not invalidate the rows other live backups reference.
    """

    __slots__ = ("_rows", "_masks", "_words", "_width")

    #: Initial geometry: 64 rows x 4 words (256 component bits).
    _INITIAL_ROWS = 64
    _INITIAL_WORDS = 4

    def __init__(self) -> None:
        self._rows: dict[int, int] = {}
        self._masks: list[int] = []
        self._words = np.zeros(
            (self._INITIAL_ROWS, self._INITIAL_WORDS), dtype=np.uint64
        )
        #: Words in use (<= allocated width); kernels slice to this.
        self._width = 1

    # -- geometry ------------------------------------------------------
    def __len__(self) -> int:
        """Distinct masks interned so far (rows in use)."""
        return len(self._masks)

    @property
    def nbytes(self) -> int:
        """Allocated arena size in bytes."""
        return self._words.nbytes

    def mask(self, row: int) -> int:
        """The mask interned at ``row``."""
        return self._masks[row]

    def _grow_rows(self, needed: int) -> None:
        allocated = self._words.shape[0]
        if needed <= allocated:
            return
        grown = np.zeros(
            (max(needed, allocated * 2), self._words.shape[1]),
            dtype=np.uint64,
        )
        grown[:allocated] = self._words
        self._words = grown

    def _grow_width(self, needed_words: int) -> None:
        allocated = self._words.shape[1]
        if needed_words > allocated:
            grown = np.zeros(
                (self._words.shape[0], max(needed_words, allocated * 2)),
                dtype=np.uint64,
            )
            grown[:, :allocated] = self._words
            self._words = grown
        if needed_words > self._width:
            self._width = needed_words

    # -- interning -----------------------------------------------------
    def row(self, mask: int) -> int:
        """The arena row of ``mask``, interning it if new."""
        cached = self._rows.get(mask)
        if cached is not None:
            return cached
        row = len(self._masks)
        self._grow_rows(row + 1)
        words = (mask.bit_length() + 63) >> 6
        if words:
            self._grow_width(words)
            self._words[row, :words] = np.frombuffer(
                mask.to_bytes(8 * words, "little"), dtype="<u8"
            )
        self._rows[mask] = row
        self._masks.append(mask)
        return row

    # -- kernels -------------------------------------------------------
    def shared_counts(self, rows, row: int):
        """``sc`` between the mask at ``row`` and each mask in ``rows`` —
        the one-vectorized-conflict-test-per-link primitive."""
        words = self._words[:, : self._width]
        return np.bitwise_count(words[rows] & words[row]).sum(
            axis=1, dtype=np.int64
        )


def _left_fold_sum(initial: float, values) -> float:
    """``((initial + v0) + v1) + ...`` — the reference engine accumulates
    requirements with a sequential left fold, and byte-identity demands
    the same association (``np.cumsum`` is a sequential accumulate, not a
    pairwise reduction)."""
    if values.size == 0:
        return initial
    acc = np.empty(values.size + 1, dtype=np.float64)
    acc[0] = initial
    acc[1:] = values
    return float(np.cumsum(acc)[-1])


class VectorLinkMux:
    """Multiplexing state of one link, array-resident.

    Drop-in replacement for the per-pair
    :class:`~repro.core.multiplexing.LinkMuxState` under an *integer*
    :class:`~repro.core.overlap.OverlapPolicy` (``exact=False``).  Entries
    live in registration order in parallel numpy columns; every query and
    mutation runs one vectorized pass over them instead of n Python pair
    tests, with IEEE-identical arithmetic (see module docstring).
    """

    __slots__ = (
        "link", "policy", "arena",
        "_ids", "_n",
        "_channel_ids", "_bandwidth", "_degree", "_requirement", "_row",
        "_rowslot", "_slot_of", "_distinct_rows", "_distinct_n",
        "_spare_required",
    )

    _INITIAL_CAPACITY = 8

    def __init__(self, link: LinkId, policy, arena: ComponentArena) -> None:
        if policy.exact:
            raise ValueError(
                "VectorLinkMux implements the integer multiplexability "
                "test only; exact-S policies use the reference "
                "LinkMuxState"
            )
        self.link = link
        self.policy = policy
        self.arena = arena
        self._ids: dict[int, int] = {}
        self._n = 0
        cap = self._INITIAL_CAPACITY
        self._channel_ids = np.zeros(cap, dtype=np.int64)
        self._bandwidth = np.zeros(cap, dtype=np.float64)
        self._degree = np.zeros(cap, dtype=np.int64)
        self._requirement = np.zeros(cap, dtype=np.float64)
        self._row = np.zeros(cap, dtype=np.int64)
        #: Per-entry index into this link's distinct-row table: shared
        #: counts are computed once per *distinct* primary on the
        #: link, then gathered per entry — entries routinely share
        #: primaries, and distinct primaries through one link are
        #: bounded by the topology, not by the resident population.
        self._rowslot = np.zeros(cap, dtype=np.int64)
        self._slot_of: dict[int, int] = {}
        self._distinct_rows = np.zeros(cap, dtype=np.int64)
        #: Like the arena, the distinct-row table is append-only: a slot
        #: whose last entry left stays (costs one row in the per-link
        #: pass, bounded as above) so surviving slots never renumber.
        self._distinct_n = 0
        self._spare_required = 0.0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, channel_id: object) -> bool:
        return channel_id in self._ids

    def entries(self) -> list:
        """All backup entries, materialized in registration order
        (snapshots: mutating one does not write back)."""
        return [self._materialize(pos) for pos in range(self._n)]

    def entry(self, channel_id: int):
        """The entry snapshot for one backup; raises ``KeyError``."""
        return self._materialize(self._ids[channel_id])

    def _materialize(self, pos: int):
        return MuxEntry(
            channel_id=int(self._channel_ids[pos]),
            bandwidth=float(self._bandwidth[pos]),
            mux_degree=int(self._degree[pos]),
            mask=self.arena.mask(int(self._row[pos])),
            requirement=float(self._requirement[pos]),
        )

    def spare_required(self) -> float:
        """The pool size required by the current backup set (O(1))."""
        return self._spare_required

    def set_requirements(
        self, requirements: "dict[int, float]", spare_required: float
    ) -> None:
        """Overwrite per-entry requirements and the pool maximum verbatim.

        Same contract as
        :meth:`repro.core.multiplexing.LinkMuxState.set_requirements`:
        the incremental float columns depend on the add/remove history,
        so snapshot restore rebuilds the integer structure via
        :meth:`add` and then transplants the recorded floats here.
        """
        for channel_id, requirement in requirements.items():
            self._requirement[self._ids[channel_id]] = requirement
        self._spare_required = spare_required

    def _shared_with_all(self, row: int):
        """``sc`` between the mask at ``row`` and every resident entry:
        one vectorized pass over the link's *distinct* primaries,
        gathered out per entry."""
        row_shared = self.arena.shared_counts(
            self._distinct_rows[: self._distinct_n], row
        )
        return row_shared[self._rowslot[: self._n]]

    def spare_required_recomputed(self) -> float:
        """From-scratch recomputation — validation oracle and the naive
        baseline of Section 6 (O(n) vectorized passes, one per entry)."""
        n = self._n
        best = 0.0
        rows = self._row[:n]
        degrees = self._degree[:n]
        bandwidths = self._bandwidth[:n]
        for pos in range(n):
            shared = self._shared_with_all(int(rows[pos]))
            in_pi = self._pi_mask(int(degrees[pos]), degrees, shared)
            in_pi[pos] = False
            requirement = _left_fold_sum(
                float(bandwidths[pos]), bandwidths[in_pi]
            )
            best = max(best, requirement)
        return best

    def psi_size(self, channel_id: int) -> int:
        """|Ψ(B_i, ℓ)| — how many backups share spare with ``B_i``."""
        pos = self._ids[channel_id]
        degree = int(self._degree[pos])
        if degree <= 0 or self._n <= 1:
            return 0
        shared = self._shared_with_all(int(self._row[pos]))
        multiplexable = shared < degree
        multiplexable[pos] = False
        return int(multiplexable.sum())

    def psi_sizes_for_candidate(
        self, mask: int, mux_degrees: list[int]
    ) -> dict[int, int]:
        """|Ψ| a *new* backup would see on this link, per candidate degree
        (the forward-pass computation of the literal scheme)."""
        sizes = dict.fromkeys(mux_degrees, 0)
        if self._n == 0:
            return sizes
        shared = self._shared_with_all(self.arena.row(mask))
        for degree in mux_degrees:
            if degree > 0:
                sizes[degree] = int((shared < degree).sum())
        return sizes

    # ------------------------------------------------------------------
    # the vectorized pair tests
    # ------------------------------------------------------------------
    @staticmethod
    def _pi_mask(degree: int, other_degrees, shared):
        """``other ∈ Π(perspective)`` for every entry at once: priority
        filter ``ν_o ≤ ν_p`` and not multiplexable with ``B_p``."""
        if degree <= 0:
            return other_degrees <= degree
        return (other_degrees <= degree) & (shared >= degree)

    @staticmethod
    def _reverse_pi_mask(degree: int, other_degrees, shared):
        """``perspective ∈ Π(other)`` for every entry at once."""
        return (other_degrees >= degree) & (
            (other_degrees <= 0) | (shared >= other_degrees)
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def preview_add(self, bandwidth: float, mux_degree: int, mask: int) -> float:
        """Pool size this link would need if the described backup joined
        (pure query; one vectorized conflict test)."""
        check_positive(bandwidth, "bandwidth")
        n = self._n
        best = self._spare_required
        if n == 0:
            return max(best, bandwidth)
        shared = self._shared_with_all(self.arena.row(mask))
        degrees = self._degree[:n]
        in_pi = self._pi_mask(mux_degree, degrees, shared)
        new_requirement = _left_fold_sum(bandwidth, self._bandwidth[:n][in_pi])
        reverse = self._reverse_pi_mask(mux_degree, degrees, shared)
        if reverse.any():
            conflict_peak = float(self._requirement[:n][reverse].max())
            if conflict_peak + bandwidth > best:
                best = conflict_peak + bandwidth
        return max(best, new_requirement)

    def add(
        self,
        channel_id: int,
        bandwidth: float,
        mux_degree: int,
        mask: int,
    ) -> float:
        """Register a backup; returns the new required pool size.

        O(n) like the reference, but as one vectorized conflict test:
        the Π membership of the new entry and the reverse memberships of
        every existing entry come out of a single shared-count pass.
        """
        if channel_id in self._ids:
            raise ValueError(f"backup {channel_id} already on link {self.link}")
        check_positive(bandwidth, "bandwidth")
        row = self.arena.row(mask)
        n = self._n
        peak = self._spare_required
        requirement = bandwidth
        if n:
            shared = self._shared_with_all(row)
            degrees = self._degree[:n]
            in_pi = self._pi_mask(mux_degree, degrees, shared)
            requirement = _left_fold_sum(
                bandwidth, self._bandwidth[:n][in_pi]
            )
            reverse = self._reverse_pi_mask(mux_degree, degrees, shared)
            if reverse.any():
                grown = self._requirement[:n]
                grown[reverse] += bandwidth
                peak = max(peak, float(grown[reverse].max()))
        self._append(channel_id, bandwidth, mux_degree, requirement, row)
        self._spare_required = max(peak, requirement)
        return self._spare_required

    def add_row(self, row) -> float:
        """:meth:`add` for a backup the engine describes by its shared
        :class:`~repro.core.multiplexing.BackupRow`, whose fields this
        link copies into its columns."""
        return self.add(row.channel_id, row.bandwidth, row.mux_degree, row.mask)

    def adopt(self, entries: list, spare_required: float) -> None:
        """Take over another link state's resident ``entries`` (in
        registration order) and pool maximum verbatim — promotion: no
        pair test runs and no float is recomputed."""
        for entry in entries:
            self._append(
                entry.channel_id, entry.bandwidth, entry.mux_degree,
                entry.requirement, self.arena.row(entry.mask),
            )
        self._spare_required = spare_required

    def remove(self, channel_id: int) -> float:
        """Deregister a backup; returns the new required pool size."""
        return self.remove_many([channel_id])

    def remove_many(self, channel_ids: list[int]) -> float:
        """Deregister several backups in order; returns the final pool
        size (the bulk-teardown path: one call per touched link).
        Validate-then-apply: an unknown id raises ``KeyError`` and
        leaves the link untouched."""
        check_resident(self, channel_ids)
        return self._remove_resident(channel_ids)

    def _remove_resident(self, channel_ids: list[int]) -> float:
        """:meth:`remove_many` for ids ``check_resident`` passed."""
        for channel_id in channel_ids:
            self._remove_at(self._ids.pop(channel_id))
        n = self._n
        self._spare_required = (
            float(self._requirement[:n].max()) if n else 0.0
        )
        return self._spare_required

    # -- internals -----------------------------------------------------
    def _remove_at(self, pos: int) -> None:
        """Drop the entry at ``pos``, decrementing the survivors whose Π
        sets contained it (recomputed as one vectorized conflict test —
        the kernel stores no per-entry conflict sets)."""
        n = self._n
        row = int(self._row[pos])
        degree = int(self._degree[pos])
        bandwidth = float(self._bandwidth[pos])
        shared = self._shared_with_all(row)
        reverse = self._reverse_pi_mask(degree, self._degree[:n], shared)
        reverse[pos] = False
        if reverse.any():
            self._requirement[:n][reverse] -= bandwidth
        self._n = n - 1
        if pos == n - 1:
            return  # tail removal: nothing shifts (the churn common case)
        for column in (
            self._channel_ids, self._bandwidth, self._degree,
            self._requirement, self._row, self._rowslot,
        ):
            column[pos : n - 1] = column[pos + 1 : n]
        for cid, p in self._ids.items():
            if p > pos:
                self._ids[cid] = p - 1

    def _slot(self, row: int) -> int:
        """The distinct-row slot of ``row``, appending it if new."""
        slot = self._slot_of.get(row)
        if slot is not None:
            return slot
        slot = self._distinct_n
        if slot == self._distinct_rows.shape[0]:
            grown = np.zeros(slot * 2, dtype=np.int64)
            grown[:slot] = self._distinct_rows
            self._distinct_rows = grown
        self._distinct_rows[slot] = row
        self._slot_of[row] = slot
        self._distinct_n = slot + 1
        return slot

    def _append(
        self, channel_id: int, bandwidth: float, mux_degree: int,
        requirement: float, row: int,
    ) -> None:
        n = self._n
        if n == self._channel_ids.shape[0]:
            for name in (
                "_channel_ids", "_bandwidth", "_degree",
                "_requirement", "_row", "_rowslot",
            ):
                old = getattr(self, name)
                grown = np.zeros(old.shape[0] * 2, dtype=old.dtype)
                grown[:n] = old
                setattr(self, name, grown)
        self._channel_ids[n] = channel_id
        self._bandwidth[n] = bandwidth
        self._degree[n] = mux_degree
        self._requirement[n] = requirement
        self._row[n] = row
        self._rowslot[n] = self._slot(row)
        self._ids[channel_id] = n
        self._n = n + 1
