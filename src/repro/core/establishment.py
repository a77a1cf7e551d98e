"""D-connection establishment (Section 3).

Implements the paper's establishment procedure:

1. route the primary over a shortest feasible path (admission-checked,
   delay QoS respected),
2. route each backup over a shortest feasible path avoiding the components
   of all channels established so far ("sequential shortest-path search",
   Section 7), where a link is feasible for a backup iff the spare-pool
   growth computed by backup multiplexing fits its remaining capacity,
3. size spare pools via :class:`~repro.core.multiplexing.MultiplexingEngine`
   and mirror them into the reservation ledger.

Both QoS-negotiation schemes of Section 3.4 are provided:

* **prescriptive / loose** — the client (or BCP heuristically) fixes the
  backup count and multiplexing degree; the resultant ``P_r`` is computed
  and offered back (:meth:`EstablishmentEngine.negotiate_loose`).
* **literal** — the client gives a required ``P_r``; a forward-pass
  computation of |Ψ| per candidate ν lets the destination pick the largest
  (cheapest) degree that meets it, adding backups incrementally when one
  is not enough (:meth:`EstablishmentEngine.establish_literal`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.channels.admission import AdmissionController, AdmissionError
from repro.channels.channel import Channel, ChannelRole
from repro.channels.qos import DelayQoS, FaultToleranceQoS
from repro.channels.registry import ChannelRegistry
from repro.channels.traffic import TrafficSpec
from repro.core.dconnection import ConnectionState, DConnection
from repro.core.multiplexing import MultiplexingEngine
from repro.core.reliability import (
    connection_pr,
    p_muxf_upper_bound,
    pr_multiple_backups,
)
from repro.network.components import LinkId, NodeId
from repro.network.reservations import ReservationLedger
from repro.network.topology import Topology
from repro.routing.paths import Path
from repro.routing.shortest import (
    NoPathError,
    RouteConstraints,
    hop_distance,
    shortest_path,
)

#: The backup multiplexing degrees loose negotiation tries, cheapest first
#: (Section 3.4, scheme 1).
NEGOTIATION_DEGREES = (6, 5, 3, 1, 0)

#: How far one relaxation loosens each existing backup's degree when the
#: literal scheme needs room for another backup (Section 3.4: "further
#: relaxed, if necessary").
RELAX_STEP = 2


class EstablishmentError(Exception):
    """Raised when a D-connection (or one of its channels) cannot be
    established; establishment is all-or-nothing, so the network state is
    unchanged when this propagates."""


@dataclass(frozen=True)
class BatchRequest:
    """One establishment request of
    :meth:`EstablishmentEngine.establish_batch`."""

    src: NodeId
    dst: NodeId
    traffic: TrafficSpec = TrafficSpec()
    delay_qos: DelayQoS = DelayQoS()
    ft_qos: FaultToleranceQoS = FaultToleranceQoS()


@dataclass
class NegotiationOffer:
    """Result of the loose negotiation scheme (Section 3.4, scheme 1).

    The connection is *live* when the offer is produced; a dissatisfied
    client calls :meth:`reject`, which tears it down.
    """

    connection: DConnection
    required_pr: float
    achieved_pr: float
    _engine: "EstablishmentEngine"

    @property
    def satisfied(self) -> bool:
        """Whether the offered reliability meets the client's request."""
        return self.achieved_pr >= self.required_pr

    def reject(self) -> None:
        """Decline the offer and tear the connection down."""
        self._engine.teardown(self.connection)


def spare_aware_backup_cost(engine: "EstablishmentEngine",
                            connection: DConnection, mux_degree: int):
    """Link-cost function biasing backup routes toward links where the
    backup multiplexes for free.

    This is the direction of the paper's [HAN97b] follow-up ("a backup
    routing algorithm which can reduce the spare bandwidth up to 40%,
    compared to the shortest path routing method"): instead of a pure
    shortest path, each link costs a small constant plus the spare-pool
    *growth* the backup would cause there, so routes prefer links whose
    existing pools already cover the new backup.
    """
    mask = engine.mux.primary_mask(connection.primary.path)
    bandwidth = connection.traffic.bandwidth

    def cost(link: LinkId) -> float:
        required = engine.mux.link_state(link).preview_add(
            bandwidth, mux_degree, mask
        )
        growth = max(0.0, required - engine.ledger.spare_reserved(link))
        # The per-hop base (2x the channel bandwidth) keeps routes short —
        # stretching one hop must save at least two hops' worth of new
        # spare — and the growth term steers ties toward links whose pools
        # already cover the backup.  A smaller base reduces spare further
        # but starts rejecting connections on the paper's workload.
        return 2.0 * bandwidth + growth

    return cost


class EstablishmentEngine:
    """Routes, admits, and reserves the channels of D-connections.

    ``backup_cost_factory`` switches backup routing from pure shortest-path
    (the paper's evaluation setting) to a cost-biased search; see
    :func:`spare_aware_backup_cost`.
    """

    #: Bound on the exclude-and-retry loop of backup routing; each retry
    #: excludes at least one violating link, so the loop terminates anyway —
    #: this just caps pathological cases early.
    MAX_ROUTE_RETRIES = 64

    def __init__(
        self,
        topology: Topology,
        ledger: ReservationLedger,
        registry: ChannelRegistry,
        mux_engine: MultiplexingEngine,
        backup_cost_factory=None,
    ) -> None:
        self.topology = topology
        self.ledger = ledger
        self.registry = registry
        self.mux = mux_engine
        self.admission = AdmissionController(ledger)
        self.backup_cost_factory = backup_cost_factory
        self._next_connection_id = 0

    @property
    def next_connection_id(self) -> int:
        """The id the next established D-connection will get.

        Settable so snapshot restore (:mod:`repro.serve.state`) resumes
        the id sequence where the snapshotted engine stopped.
        """
        return self._next_connection_id

    @next_connection_id.setter
    def next_connection_id(self, value: int) -> None:
        if value < self._next_connection_id:
            raise ValueError(
                f"next_connection_id may only move forward "
                f"({self._next_connection_id} -> {value})"
            )
        self._next_connection_id = value

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def establish(
        self,
        src: NodeId,
        dst: NodeId,
        traffic: TrafficSpec | None = None,
        delay_qos: DelayQoS | None = None,
        ft_qos: FaultToleranceQoS | None = None,
    ) -> DConnection:
        """Establish a D-connection with a prescriptive fault-tolerance QoS.

        All-or-nothing: on any routing or admission failure every partial
        reservation is rolled back and :class:`EstablishmentError` raised.
        """
        traffic = traffic or TrafficSpec()
        delay_qos = delay_qos or DelayQoS()
        ft_qos = ft_qos or FaultToleranceQoS()
        if ft_qos.is_declarative:
            return self.establish_literal(src, dst, traffic, delay_qos, ft_qos)

        connection = self._establish_primary_only(src, dst, traffic, delay_qos, ft_qos)
        return self._attach_backups(connection, ft_qos)

    def establish_batch(
        self, requests: "list[BatchRequest]"
    ) -> "list[DConnection | EstablishmentError]":
        """Admit a batch of requests in order, one :meth:`establish` each.

        Returns a list aligned with ``requests``: each entry is the
        established :class:`DConnection` or the
        :class:`EstablishmentError` that blocked it.  Results, connection
        and channel ids and every reservation are exactly those of
        calling :meth:`establish` once per request in the same order.
        """
        results: "list[DConnection | EstablishmentError]" = []
        for request in requests:
            try:
                results.append(self.establish(
                    request.src, request.dst, request.traffic,
                    request.delay_qos, request.ft_qos,
                ))
            except EstablishmentError as error:
                results.append(error)
        return results

    def _attach_backups(
        self, connection: DConnection, ft_qos: FaultToleranceQoS
    ) -> DConnection:
        """Add the prescriptive backups to a freshly admitted primary
        (all-or-nothing: failure tears the connection down)."""
        try:
            for _ in range(ft_qos.num_backups):
                self.add_backup(connection, ft_qos.mux_degree)
        except EstablishmentError:
            self.teardown(connection)
            raise
        connection.achieved_pr = connection_pr(connection, self.mux)
        return connection

    def establish_literal(
        self,
        src: NodeId,
        dst: NodeId,
        traffic: TrafficSpec | None = None,
        delay_qos: DelayQoS | None = None,
        ft_qos: FaultToleranceQoS | None = None,
    ) -> DConnection:
        """Establish meeting a required ``P_r`` *literally* (Section 3.4,
        scheme 2).

        Backups are added one at a time.  For each backup the forward pass
        collects |Ψ(B, ℓ)| for every candidate multiplexing degree; the
        largest degree whose resulting ``P_r`` (via the P_muxf bound) meets
        the requirement is selected — i.e. the cheapest admissible spare
        reservation.  If no degree suffices, the backup is kept at the
        degree maximising ``P_r`` (degree 0: no sharing) and another backup
        is attempted, up to ``ft_qos.max_backups``.
        """
        traffic = traffic or TrafficSpec()
        delay_qos = delay_qos or DelayQoS()
        ft_qos = ft_qos or FaultToleranceQoS(required_pr=0.999999)
        if not ft_qos.is_declarative:
            raise ValueError("establish_literal needs ft_qos.required_pr set")
        required = ft_qos.required_pr

        connection = self._establish_primary_only(src, dst, traffic, delay_qos, ft_qos)
        try:
            while connection_pr(connection, self.mux) < required:
                if connection.num_backups >= ft_qos.max_backups:
                    raise EstablishmentError(
                        f"required P_r={required} unreachable with "
                        f"{ft_qos.max_backups} backups "
                        f"(achieved {connection_pr(connection, self.mux):.9f}); "
                        f"renegotiate"
                    )
                try:
                    self._add_backup_literal(connection, required)
                except EstablishmentError:
                    # Section 3.4: "The multiplexing degree of the backups
                    # set up previously can be adjusted (further relaxed),
                    # if necessary" — free some spare and retry once.
                    if not self._relax_existing_backups(connection):
                        raise
                    self._add_backup_literal(connection, required)
        except EstablishmentError:
            self.teardown(connection)
            raise
        connection.achieved_pr = connection_pr(connection, self.mux)
        return connection

    def negotiate_loose(
        self,
        src: NodeId,
        dst: NodeId,
        required_pr: float,
        traffic: TrafficSpec | None = None,
    ) -> NegotiationOffer:
        """Loose negotiation (Section 3.4, scheme 1): one backup, no delay
        bound.

        BCP starts from the cheapest of :data:`NEGOTIATION_DEGREES` and
        tightens until the requirement is met or candidates are exhausted;
        the *resultant* ``P_r`` is returned as an offer the client may
        accept or reject.
        """
        cheapest, *tighter = NEGOTIATION_DEGREES
        # Establish once at the cheapest candidate, then tighten the live
        # backups in place (Section 3.4's degree adjustment) until the
        # requirement is met or capacity runs out.
        connection = self.establish(
            src,
            dst,
            traffic or TrafficSpec(),
            DelayQoS(),
            FaultToleranceQoS(num_backups=1, mux_degree=cheapest),
        )
        for degree in tighter:
            if connection_pr(connection, self.mux) >= required_pr:
                break
            try:
                for backup in connection.backups:
                    self.adjust_backup_degree(connection, backup, degree)
            except EstablishmentError:
                break  # keep the tightest feasible configuration
        connection.achieved_pr = connection_pr(connection, self.mux)
        return NegotiationOffer(
            connection=connection,
            required_pr=required_pr,
            achieved_pr=connection.achieved_pr,
            _engine=self,
        )

    def add_backup(self, connection: DConnection, mux_degree: int) -> Channel:
        """Route and commit one more backup for ``connection``."""
        path = self._route_backup(connection, mux_degree)
        return self._commit_backup(connection, path, mux_degree)

    def adjust_backup_degree(
        self, connection: DConnection, backup: Channel, new_degree: int
    ) -> Channel:
        """Change a live backup's multiplexing degree in place.

        Section 3.4: "The multiplexing degree of the backups set up
        previously can be adjusted (further relaxed), if necessary."  The
        path is kept; the backup is re-registered with the new ν and every
        spare pool resized.  Tightening (a smaller degree) can fail for
        lack of capacity, in which case the original degree is restored
        and :class:`EstablishmentError` raised.
        """
        if backup not in connection.backups:
            raise ValueError(
                f"channel {backup.channel_id} is not a backup of "
                f"connection {connection.connection_id}"
            )
        if new_degree < 0:
            raise ValueError(f"new_degree must be >= 0, got {new_degree}")
        old_degree = backup.mux_degree
        if new_degree == old_degree:
            return backup

        def register_at(degree: int) -> bool:
            backup.mux_degree = degree
            requirements = self.mux.add_backup(backup, connection.primary)
            if all(
                self.ledger.can_set_spare(link, required)
                for link, required in requirements.items()
            ):
                for link, required in requirements.items():
                    self.ledger.set_spare(link, required)
                return True
            rollback = self.mux.remove_backup(backup)
            for link, required in rollback.items():
                self.ledger.set_spare(link, required)
            return False

        shrunk = self.mux.remove_backup(backup)
        for link, required in shrunk.items():
            self.ledger.set_spare(link, required)
        if register_at(new_degree):
            if all(b.mux_degree == new_degree for b in connection.backups):
                # Keep the connection-level QoS (and with it the activation
                # priority) in step with its backups.
                connection.ft_qos = dataclasses.replace(
                    connection.ft_qos, mux_degree=new_degree
                )
            return backup
        if not register_at(old_degree):  # pragma: no cover - was feasible
            raise EstablishmentError(
                f"could not restore backup {backup.channel_id} after a "
                f"failed degree adjustment"
            )
        raise EstablishmentError(
            f"insufficient capacity to tighten backup {backup.channel_id} "
            f"from mux={old_degree} to mux={new_degree}"
        )

    def teardown(self, connection: DConnection) -> None:
        """Tear down the whole D-connection, releasing every reservation.

        Incremental: the backups leave the multiplexing state first and
        only the links they crossed get their spare pools re-mirrored, in
        one bulk ledger update (a single version bump); the primary's
        bandwidth is then released along its path in a second bulk update.
        Links the connection never touched keep their pools untouched.
        """
        backups = list(connection.backups)
        if backups:
            requirements = self.mux.remove_backups(backups)
            self.ledger.set_spares(requirements)
            for backup in backups:
                self.registry.remove(backup.channel_id)
            connection.backups.clear()
        if connection.primary.channel_id in self.registry:
            self.admission.release_primary(connection.primary.path, connection.traffic)
            self.registry.remove(connection.primary.channel_id)
        connection.state = ConnectionState.CLOSED

    # ------------------------------------------------------------------
    # primary establishment
    # ------------------------------------------------------------------
    def _establish_primary_only(
        self,
        src: NodeId,
        dst: NodeId,
        traffic: TrafficSpec,
        delay_qos: DelayQoS,
        ft_qos: FaultToleranceQoS,
    ) -> DConnection:
        """Route the shortest admissible primary path, reserve it, and
        mint the primary channel and its connection."""
        if src == dst:
            raise EstablishmentError(f"source equals destination: {src!r}")
        try:
            shortest_possible = hop_distance(self.topology, src, dst)
        except NoPathError as error:
            raise EstablishmentError(str(error)) from error
        constraints = RouteConstraints(
            link_admissible=self.admission.primary_link_predicate(traffic),
            max_hops=delay_qos.max_hops(shortest_possible),
        )
        try:
            path = shortest_path(self.topology, src, dst, constraints)
        except NoPathError as error:
            raise EstablishmentError(
                f"no admissible primary path {src!r}->{dst!r}: {error}"
            ) from error
        try:
            self.admission.reserve_primary(path, traffic)
        except AdmissionError as error:  # pragma: no cover - predicate guards
            raise EstablishmentError(str(error)) from error
        except Exception as error:
            raise EstablishmentError(
                f"primary reservation failed {src!r}->{dst!r}: {error}"
            ) from error

        primary = Channel(
            channel_id=self.registry.allocate_id(),
            connection_id=self._next_connection_id,
            role=ChannelRole.PRIMARY,
            serial=0,
            path=path,
            traffic=traffic,
            mux_degree=ft_qos.mux_degree,
        )
        self.registry.add(primary)
        connection = DConnection(
            connection_id=self._next_connection_id,
            source=src,
            destination=dst,
            traffic=traffic,
            delay_qos=delay_qos,
            ft_qos=ft_qos,
            primary=primary,
        )
        self._next_connection_id += 1
        return connection

    # ------------------------------------------------------------------
    # backup routing and commitment
    # ------------------------------------------------------------------
    def _disjointness_constraints(
        self, connection: DConnection
    ) -> tuple[frozenset, frozenset]:
        """Interior nodes and links of every existing channel of the
        connection — the components a new backup must avoid."""
        excluded_nodes: set = set()
        excluded_links: set = set()
        for channel in connection.channels:
            path = channel.path
            excluded_nodes.update(path.interior_nodes)
            excluded_links.update(path.links)
        return frozenset(excluded_nodes), frozenset(excluded_links)

    def _route_backup(self, connection: DConnection, mux_degree: int) -> Path:
        """Shortest feasible disjoint backup path.

        Routing runs a fast unconstrained-by-spare search first, then
        verifies the multiplexing admission (spare-pool growth must fit
        each link) on the found path; violating links are excluded and the
        search retried.  Each retry removes at least one link, so the loop
        terminates.  With a per-channel delay baseline and hop-count
        routing, the baseline path itself is the first path verified.
        """
        src, dst = connection.source, connection.destination
        excluded_nodes, excluded_links = self._disjointness_constraints(connection)
        path: Path | None = None
        if connection.delay_qos.per_channel_baseline:
            # The backup's delay budget is relative to the shortest path
            # *it* could take given disjointness (see DelayQoS).
            try:
                path = shortest_path(
                    self.topology,
                    src,
                    dst,
                    RouteConstraints(
                        excluded_nodes=excluded_nodes,
                        excluded_links=excluded_links,
                    ),
                )
            except NoPathError as error:
                raise EstablishmentError(
                    f"no disjoint backup route exists {src!r}->{dst!r} "
                    f"(serial {connection.num_backups + 1}): {error}"
                ) from error
            baseline = path.hops
        else:
            baseline = hop_distance(self.topology, src, dst)
        max_hops = connection.delay_qos.max_hops(baseline)
        mask = self.mux.primary_mask(connection.primary.path)
        bandwidth = connection.traffic.bandwidth
        link_state = self.mux.link_state
        can_set_spare = self.ledger.can_set_spare

        cost = None
        if self.backup_cost_factory is not None:
            cost = self.backup_cost_factory(self, connection, mux_degree)
            path = None

        extra_excluded: set[LinkId] = set()
        for _ in range(self.MAX_ROUTE_RETRIES):
            # The baseline path is the first candidate: a hop-count search
            # under the same exclusions and a hop limit no shorter than
            # that path finds exactly it again.  A cost-biased route, a
            # connection-wide baseline and every retry search.
            if path is None:
                constraints = RouteConstraints(
                    excluded_nodes=excluded_nodes,
                    excluded_links=excluded_links | extra_excluded,
                    max_hops=max_hops,
                )
                try:
                    path = shortest_path(self.topology, src, dst, constraints, cost)
                except NoPathError as error:
                    raise EstablishmentError(
                        f"no feasible backup path {src!r}->{dst!r} "
                        f"(serial {connection.num_backups + 1}): {error}"
                    ) from error
            violations = [
                link
                for link in path.links
                if not can_set_spare(
                    link,
                    link_state(link).preview_add(bandwidth, mux_degree, mask),
                )
            ]
            if not violations:
                return path
            extra_excluded.update(violations)
            path = None
        raise EstablishmentError(
            f"backup routing for {src!r}->{dst!r} exceeded "
            f"{self.MAX_ROUTE_RETRIES} retries"
        )

    def _commit_backup(
        self, connection: DConnection, path: Path, mux_degree: int
    ) -> Channel:
        backup = Channel(
            channel_id=self.registry.allocate_id(),
            connection_id=connection.connection_id,
            role=ChannelRole.BACKUP,
            serial=connection.num_backups + 1,
            path=path,
            traffic=connection.traffic,
            mux_degree=mux_degree,
        )
        requirements = self.mux.add_backup(backup, connection.primary)
        try:
            # Bulk mirror: validate-then-apply, so a failure leaves every
            # pool untouched and only the mux registration needs undoing.
            self.ledger.set_spares(requirements)
        except Exception as error:
            self.mux.remove_backup(backup)
            raise EstablishmentError(
                f"spare reservation failed for backup of connection "
                f"{connection.connection_id}: {error}"
            ) from error
        self.registry.add(backup)
        connection.backups.append(backup)
        return backup

    def _relax_existing_backups(self, connection: DConnection) -> bool:
        """Loosen every existing backup's multiplexing degree by
        :data:`RELAX_STEP` (capped at the point where everything
        multiplexes), freeing spare for an additional backup.  Returns
        whether anything changed."""
        policy = self.mux.policy
        cap = policy.component_count(connection.primary.path) + 1
        relaxed = False
        for backup in connection.backups:
            target = min(cap, backup.mux_degree + RELAX_STEP)
            if target > backup.mux_degree:
                self.adjust_backup_degree(connection, backup, target)
                relaxed = True
        return relaxed

    def _add_backup_literal(self, connection: DConnection, required_pr: float) -> None:
        """One literal-scheme backup: forward-pass |Ψ| collection, then
        degree selection at the destination (Section 3.4, scheme 2)."""
        # Route conservatively at degree 0 (no sharing) — any selected
        # degree only shrinks the spare requirement, so the path stays
        # admissible (this mirrors "reserves spare resources for the backup
        # without multiplexing" in the forward pass).
        path = self._route_backup(connection, mux_degree=0)

        # Candidate degrees: S ≈ sc·λ clusters at integer multiples of λ,
        # and sc is at most the component count of the primary path, so
        # degrees beyond that are all equivalent (Section 3.4).
        policy = self.mux.policy
        max_degree = policy.component_count(connection.primary.path) + 1
        candidates = list(range(max_degree, -1, -1))

        chosen: int | None = None
        best_degree = 0  # degree 0 maximises P_r when nothing suffices
        for degree in candidates:  # largest (cheapest) first
            if self._pr_with_backup_at(connection, path, degree) >= required_pr:
                chosen = degree
                break
        self._commit_backup(connection, path, chosen if chosen is not None else best_degree)

    def _pr_with_backup_at(
        self, connection: DConnection, path: Path, degree: int
    ) -> float:
        """``P_r`` the connection would achieve if a backup were added on
        ``path`` at the given degree — evaluated without mutating state,
        from the per-link |Ψ| counts a reservation message would collect."""
        policy = self.mux.policy
        mask = self.mux.primary_mask(connection.primary.path)
        primary_count = mask.bit_count()

        backup_counts = []
        p_muxfs = []
        for existing in connection.backups:
            backup_counts.append(policy.component_count(existing.path))
            psi = list(self.mux.psi_sizes(existing).values())
            p_muxfs.append(p_muxf_upper_bound(psi, policy.nu(existing.mux_degree)))

        psi_new = [
            self.mux.link_state(link).psi_sizes_for_candidate(
                mask, [degree]
            )[degree]
            for link in path.links
        ]
        backup_counts.append(policy.component_count(path))
        p_muxfs.append(p_muxf_upper_bound(psi_new, policy.nu(degree)))
        return pr_multiple_backups(
            primary_count, backup_counts, policy.failure_probability, p_muxfs
        )
