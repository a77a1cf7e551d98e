"""Per-link bandwidth bookkeeping.

Every simplex link tracks two reservation pools:

* ``primary`` — bandwidth dedicated to active (primary) channels, exactly
  as in a conventional real-time channel scheme, and
* ``spare`` — the shared pool sized by backup multiplexing (Section 3.2),
  from which activated backups draw.

The admission rule everywhere is ``primary + spare <= capacity``.  The
ledger enforces it and exposes the two network-wide percentages the paper
reports: *network-load* (primary bandwidth over total capacity) and
*spare bandwidth* (spare reservation over total capacity).

A ledger freezes its topology (:meth:`~repro.network.topology.Topology.freeze`):
its entries, and :meth:`free_values`, are in ``topology.links()`` order
for good, which is what lets the flat routing core's free-capacity
mirror index them positionally.  Failures are state on top of that
static link set — components a search excludes — never deletion.

Free-capacity mirror contract
-----------------------------

The flat routing core keeps a per-edge copy of every link's free
bandwidth and must not re-read all links for each search.  The ledger
therefore keeps a **change log**: every mutator that succeeds appends the
:class:`LinkLedger` entries it wrote (each entry knows its position in
``topology.links()`` order) before it bumps :attr:`version`; a
validate-then-apply call that raises logs nothing, because it wrote
nothing.  A consumer remembers :attr:`~ReservationLedger.change_cursor`
as of its last refresh and asks :meth:`~ReservationLedger.changes_since`
for the suffix it has not seen, re-reading ``entry.free`` of exactly
those entries (an entry may appear more than once; replay is idempotent).
The ledger holds no per-consumer state, so any number of mirrors may
follow one ledger and none of them ever writes to it.

``changes_since`` answers ``None`` — *resync fully through*
:meth:`~ReservationLedger.free_values` — whenever the suffix cannot be
served: the cursor predates a trim, or the ledger was rewritten
wholesale since (:meth:`~ReservationLedger.restore_pools`).  A consumer
must also resync fully on first use and when it is handed a different
ledger object; cursors of different ledgers are unrelated.

*Trim rule.*  The log is bounded: once it holds more than
:attr:`~ReservationLedger.CHANGE_LOG_LIMIT` entries the older half is
dropped.  A consumer that lags by more than the kept half would have
paid about as much replaying as resyncing, so nothing is lost.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import ClassVar

from repro.network.components import LinkId
from repro.network.topology import Topology
from repro.util.validation import check_non_negative

#: Reservations within this absolute bandwidth tolerance of capacity are
#: accepted, absorbing float round-off from repeated reserve/release cycles.
_EPSILON = 1e-9

#: Public alias of the admission tolerance, for callers (the flat routing
#: core) that reimplement ``can_reserve_primary`` over raw arrays and must
#: agree bit-for-bit with the ledger's decision.
CAPACITY_EPSILON = _EPSILON


class CapacityFloor:
    """The standard "enough free bandwidth" link predicate, reified.

    Behaves exactly like ``lambda link: ledger.can_reserve_primary(link,
    bandwidth)`` but carries its parameters openly, so the flat routing
    core can recognise it, skip the per-link Python call, and test
    admissibility as an array compare (``free + epsilon >= bandwidth``)
    — and so the route cache can key on ``(ledger, bandwidth)`` instead
    of refusing to cache behind an opaque closure.
    """

    __slots__ = ("ledger", "bandwidth")

    def __init__(self, ledger: "ReservationLedger", bandwidth: float) -> None:
        self.ledger = ledger
        self.bandwidth = bandwidth

    def __call__(self, link: LinkId) -> bool:
        return self.ledger.can_reserve_primary(link, self.bandwidth)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CapacityFloor(bandwidth={self.bandwidth:g})"


class InsufficientCapacityError(Exception):
    """Raised when a reservation would exceed a link's capacity."""

    def __init__(self, link: LinkId, requested: float, available: float) -> None:
        super().__init__(
            f"link {link}: requested {requested:g} but only {available:g} available"
        )
        self.link = link
        self.requested = requested
        self.available = available


@dataclass(slots=True)
class LinkLedger:
    """Reservation state of one simplex link."""

    capacity: float
    primary: float = 0.0
    spare: float = 0.0
    #: Position in ``topology.links()`` order — how the ledger's change
    #: log addresses this entry to positional consumers.
    pos: int = 0

    @property
    def reserved(self) -> float:
        """Total committed bandwidth (primary + spare)."""
        return self.primary + self.spare

    @property
    def free(self) -> float:
        """Uncommitted bandwidth available for new reservations."""
        return self.capacity - self.reserved


@dataclass
class ReservationLedger:
    """Bandwidth reservations for every link of a topology.

    The ledger is deliberately policy-free: it only enforces capacity.  The
    multiplexing engine decides *how much* spare each link needs and calls
    :meth:`set_spare`; the establishment machinery decides *whether* a path
    is admissible via :meth:`can_reserve_primary` / :meth:`can_set_spare`.
    """

    #: Change-log length past which the older half is dropped (see the
    #: module docstring's mirror contract).
    CHANGE_LOG_LIMIT: ClassVar[int] = 4096

    topology: Topology
    _links: dict[LinkId, LinkLedger] = field(init=False)
    _version: int = field(init=False, default=0)
    #: Entries written since ``_log_base``, oldest first; absolute log
    #: position of ``_log[i]`` is ``_log_base + i``.
    _log: list[LinkLedger] = field(init=False, default_factory=list, repr=False)
    _log_base: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        self.topology.freeze()
        self._links = {
            link: LinkLedger(capacity=self.topology.capacity(link), pos=pos)
            for pos, link in enumerate(self.topology.links())
        }

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Bumped by every reservation change; version-keyed consumers
        (compiled plans, route-cache floor tables) compare it to tell
        whether any pool moved.
        """
        return self._version

    # ------------------------------------------------------------------
    # change log (the free-capacity mirror contract, module docstring)
    # ------------------------------------------------------------------
    @property
    def change_cursor(self) -> int:
        """Absolute position of the change log's end.  Moves whenever a
        pool is written, so an unchanged cursor means unchanged pools."""
        return self._log_base + len(self._log)

    def changes_since(self, cursor: int) -> "list[LinkLedger] | None":
        """The entries written since ``cursor`` (a past
        :attr:`change_cursor` of *this* ledger), oldest first and possibly
        repeating — or ``None`` when the log no longer reaches back that
        far and the caller must resync through :meth:`free_values`."""
        start = cursor - self._log_base
        if start < 0:
            return None
        return self._log[start:]

    def _commit(self, entries: "Iterable[LinkLedger]") -> None:
        """Close a successful mutation: log the entries it wrote, trim the
        log to its bound, bump :attr:`version`."""
        log = self._log
        log.extend(entries)
        if len(log) > self.CHANGE_LOG_LIMIT:
            drop = len(log) // 2
            del log[:drop]
            self._log_base += drop
        self._version += 1

    def _void_log(self) -> None:
        """Make every outstanding cursor unservable (wholesale rewrite):
        the base jumps past the old end, so even a caught-up consumer
        gets ``None`` from :meth:`changes_since`."""
        self._log_base += len(self._log) + 1
        self._log.clear()

    # ------------------------------------------------------------------
    # per-link accessors
    # ------------------------------------------------------------------
    def ledger(self, link: LinkId) -> LinkLedger:
        """The :class:`LinkLedger` for ``link``."""
        return self._links[link]

    def free(self, link: LinkId) -> float:
        """Uncommitted bandwidth on ``link``."""
        return self._links[link].free

    def primary_reserved(self, link: LinkId) -> float:
        """Primary-pool reservation on ``link``."""
        return self._links[link].primary

    def spare_reserved(self, link: LinkId) -> float:
        """Spare-pool reservation on ``link``."""
        return self._links[link].spare

    # ------------------------------------------------------------------
    # primary-pool operations
    # ------------------------------------------------------------------
    def can_reserve_primary(self, link: LinkId, bandwidth: float) -> bool:
        """Whether ``bandwidth`` more primary reservation fits on ``link``."""
        return self._links[link].free + _EPSILON >= bandwidth

    def capacity_floor(self, bandwidth: float) -> CapacityFloor:
        """A :class:`CapacityFloor` predicate bound to this ledger.

        Use this instead of a lambda over :meth:`can_reserve_primary` when
        building :class:`~repro.routing.shortest.RouteConstraints` — the
        flat routing core fast-paths and caches searches whose predicate
        is a recognised capacity floor.
        """
        return CapacityFloor(self, bandwidth)

    def free_values(self) -> list[float]:
        """Per-link free bandwidth, in ``topology.links()`` order.

        Bulk accessor for the flat routing core's free-capacity mirror;
        one list build here replaces a dict lookup per link per search.
        """
        return [entry.free for entry in self._links.values()]

    def reserve_primary(self, link: LinkId, bandwidth: float) -> None:
        """Commit primary bandwidth; raises on capacity overflow."""
        check_non_negative(bandwidth, "bandwidth")
        entry = self._links[link]
        if entry.free + _EPSILON < bandwidth:
            raise InsufficientCapacityError(link, bandwidth, entry.free)
        entry.primary += bandwidth
        self._commit((entry,))

    def release_primary(self, link: LinkId, bandwidth: float) -> None:
        """Return primary bandwidth to the free pool."""
        check_non_negative(bandwidth, "bandwidth")
        entry = self._links[link]
        if entry.primary + _EPSILON < bandwidth:
            raise ValueError(
                f"link {link}: releasing {bandwidth:g} primary but only "
                f"{entry.primary:g} reserved"
            )
        entry.primary = max(0.0, entry.primary - bandwidth)
        self._commit((entry,))

    def reserve_primary_path(
        self, links: Iterable[LinkId], bandwidth: float
    ) -> None:
        """Commit primary bandwidth on every link of a path, atomically.

        Validate-then-apply: either every link had room and all are
        reserved under **one** version bump, or nothing changed and
        :class:`InsufficientCapacityError` names the first violating
        link.  ``links`` must not repeat a link (paths are simple).
        """
        check_non_negative(bandwidth, "bandwidth")
        links = tuple(links)
        entries = [self._links[link] for link in links]
        for link, entry in zip(links, entries):
            if entry.free + _EPSILON < bandwidth:
                raise InsufficientCapacityError(link, bandwidth, entry.free)
        for entry in entries:
            entry.primary += bandwidth
        self._commit(entries)

    def release_primary_path(
        self, links: Iterable[LinkId], bandwidth: float
    ) -> None:
        """Release primary bandwidth on every link of a path, atomically.

        The bulk twin of :meth:`release_primary` (teardown's hot path):
        validate-then-apply with a single version bump.
        """
        check_non_negative(bandwidth, "bandwidth")
        links = tuple(links)
        entries = [self._links[link] for link in links]
        for link, entry in zip(links, entries):
            if entry.primary + _EPSILON < bandwidth:
                raise ValueError(
                    f"link {link}: releasing {bandwidth:g} primary but only "
                    f"{entry.primary:g} reserved"
                )
        for entry in entries:
            entry.primary = max(0.0, entry.primary - bandwidth)
        self._commit(entries)

    # ------------------------------------------------------------------
    # spare-pool operations
    # ------------------------------------------------------------------
    def can_set_spare(self, link: LinkId, amount: float) -> bool:
        """Whether the spare pool of ``link`` can be resized to ``amount``."""
        entry = self._links[link]
        return entry.primary + amount <= entry.capacity + _EPSILON

    def set_spare(self, link: LinkId, amount: float) -> None:
        """Resize the spare pool of ``link`` to exactly ``amount``.

        Multiplexing recomputes the required spare from scratch (or
        incrementally) and installs the result here, so the operation is an
        absolute set rather than a relative reserve/release.
        """
        check_non_negative(amount, "amount")
        entry = self._links[link]
        if entry.primary + amount > entry.capacity + _EPSILON:
            raise InsufficientCapacityError(
                link, amount, entry.capacity - entry.primary
            )
        entry.spare = amount
        self._commit((entry,))

    def set_spares(self, amounts: "Mapping[LinkId, float]") -> None:
        """Resize many links' spare pools at once, atomically.

        Validate-then-apply over the whole mapping: either every resize
        fits (and everything is installed under **one** version bump) or
        nothing changed and :class:`InsufficientCapacityError` names the
        first violating link.  This is the establishment/teardown bulk
        path — a backup commit or a connection teardown touches every
        link of a path, and per-link :meth:`set_spare` calls would both
        bump the version per link (defeating floor-table reuse) and need
        manual rollback on mid-path failure.
        """
        entries = []
        for link, amount in amounts.items():
            check_non_negative(amount, "amount")
            entry = self._links[link]
            if entry.primary + amount > entry.capacity + _EPSILON:
                raise InsufficientCapacityError(
                    link, amount, entry.capacity - entry.primary
                )
            entries.append(entry)
        if not entries:
            return
        for entry, amount in zip(entries, amounts.values()):
            entry.spare = amount
        self._commit(entries)

    # ------------------------------------------------------------------
    # network-wide metrics (paper Section 7.1)
    # ------------------------------------------------------------------
    def network_load(self) -> float:
        """Primary bandwidth over total capacity — the paper's *network-load*."""
        total = self.topology.total_capacity()
        return sum(entry.primary for entry in self._links.values()) / total

    def spare_fraction(self) -> float:
        """Spare reservation over total capacity — the paper's
        *average spare bandwidth*."""
        total = self.topology.total_capacity()
        return sum(entry.spare for entry in self._links.values()) / total

    def total_spare(self) -> float:
        """Absolute spare bandwidth summed over all links."""
        return sum(entry.spare for entry in self._links.values())

    def audit(self) -> list[str]:
        """Conservation check over every link: both pools non-negative and
        ``primary + spare <= capacity`` (within the admission tolerance).
        Returns one human-readable problem string per violating link —
        empty means the ledger is internally consistent.  Used by the
        protocol invariant auditor; cheap enough to run per sweep."""
        problems: list[str] = []
        for link, entry in self._links.items():
            if entry.primary < -_EPSILON:
                problems.append(
                    f"link {link}: negative primary pool {entry.primary:g}"
                )
            if entry.spare < -_EPSILON:
                problems.append(
                    f"link {link}: negative spare pool {entry.spare:g}"
                )
            if entry.reserved > entry.capacity + _EPSILON:
                problems.append(
                    f"link {link}: reserved {entry.reserved:g} exceeds "
                    f"capacity {entry.capacity:g}"
                )
        return problems

    def snapshot_pools(self) -> list[tuple[float, float]]:
        """``(primary, spare)`` per link, in ``topology.links()`` order.

        The full-ledger twin of :meth:`snapshot_spares`, used by the
        snapshot codec (:mod:`repro.serve.state`).  Values are the raw
        floats — restore writes them back verbatim so admission decisions
        after a restore are bit-identical to the uninterrupted run.
        """
        return [(entry.primary, entry.spare) for entry in self._links.values()]

    def restore_pools(self, pools: "Iterable[tuple[float, float]]") -> None:
        """Overwrite every link's pools from a :meth:`snapshot_pools` row
        list (same order and length as ``topology.links()``).

        Validate-then-apply (:meth:`check_pools`), or nothing changes.
        On success the ledger :attr:`version` is bumped, the change log
        voided and the spare cache dropped, so every consumer —
        route-cache floor tables, the flat view's free-capacity mirror,
        spare-pool snapshots — recompiles instead of serving pre-restore
        state.
        """
        for entry, primary, spare in self.check_pools(pools):
            entry.primary = primary
            entry.spare = spare
        self._void_log()
        self._version += 1

    def check_pools(self, pools: "Iterable[tuple[float, float]]") -> list:
        """Raise unless :meth:`restore_pools` would take ``pools``: one row
        per link, every pool non-negative and within the link's capacity
        (admission tolerance applies).  Returns ``(entry, primary,
        spare)`` per link; changes nothing."""
        rows = list(pools)
        if len(rows) != len(self._links):
            raise ValueError(
                f"restore_pools: snapshot has {len(rows)} links but the "
                f"topology has {len(self._links)}"
            )
        resolved = []
        for (link, entry), (primary, spare) in zip(self._links.items(), rows):
            if primary < -_EPSILON or spare < -_EPSILON:
                raise ValueError(
                    f"link {link}: negative restored pool "
                    f"(primary {primary:g}, spare {spare:g})"
                )
            if primary + spare > entry.capacity + _EPSILON:
                raise InsufficientCapacityError(
                    link, primary + spare, entry.capacity
                )
            resolved.append((entry, primary, spare))
        return resolved

    def snapshot_spares(self) -> dict[LinkId, float]:
        """Copy of every link's current spare reservation.

        The recovery evaluator and the protocol runtime draw from copies
        so that evaluating a failure never mutates the network.
        """
        return {link: entry.spare for link, entry in self._links.items()}
