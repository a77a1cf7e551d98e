"""Protocol invariant auditing over a live :class:`ProtocolSimulation`.

The BCP correctness argument rests on a handful of properties that no
single unit test pins down globally: spare pools are conserved, every
activation draw is eventually released, RCC sequence numbers stay
monotonic and duplicate-free, no control message is delivered over a dead
link, each connection carries at most one active channel, soft state
(unhealthy channels) expires in bounded time, and a channel whose path
is repaired with its rejoin window still open rejoins.  The
:class:`InvariantAuditor` attaches to a running simulation as a pure
observer — engine event hook plus per-link RCC delivery hooks — and
checks these properties continuously (cheap sweeps after every event the
chaos engine injects) and exhaustively at quiescence.

Violations are collected, never raised: a chaos campaign wants the full
list for its artifact, and the shrinker wants to re-run schedules and
compare violation signatures.  State-machine legality is the exception —
:meth:`~repro.protocol.states.LocalChannelRecord.transition` already
raises :class:`~repro.protocol.states.IllegalTransitionError` on any move
outside Fig. 4, so the chaos runner catches that exception and converts
it into a violation rather than re-deriving legality here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.components import LinkId
from repro.protocol.states import LocalChannelState, allowed_transitions
from repro.sim.timers import WeakCallback

#: Bandwidth slack for conservation comparisons, matching the ledger's
#: admission tolerance.
_EPSILON = 1e-9

#: Collection cap: a badly broken run violates the same invariant after
#: every event; past this many records the rest add nothing.
MAX_VIOLATIONS = 200

#: The Fig. 4 closure the auditor audits against, spelled out
#: independently of ``repro.protocol.states``: N establishes into P or B,
#: P fails or closes, B activates/fails/closes, U rejoins/expires/closes.
#: ``attach()`` cross-checks this against the runtime's explicit
#: event-labelled ``TRANSITIONS`` table, so the two can never drift apart
#: silently.
EXPECTED_TRANSITIONS: dict[str, frozenset[str]] = {
    "N": frozenset({"P", "B"}),
    "P": frozenset({"U", "N"}),
    "B": frozenset({"P", "U", "N"}),
    "U": frozenset({"B", "N"}),
}


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One observed breach of a protocol invariant."""

    #: Simulation time at which the check failed.
    time: float
    #: Stable invariant name (``reservation-conservation``,
    #: ``rcc-monotonicity``, ``dead-link-delivery``, ``draw-leak``,
    #: ``multiple-active``, ``endpoint-disagreement``, ``stuck-soft-state``,
    #: ``repair-not-rejoined``, ``illegal-transition``,
    #: ``quiescence-timeout``).
    invariant: str
    #: The component/channel/connection the breach concerns (stringified).
    subject: str
    #: Human-readable explanation with the observed values.
    detail: str

    def as_dict(self) -> dict:
        """JSON-ready representation (chaos artifacts)."""
        return {
            "time": self.time,
            "invariant": self.invariant,
            "subject": self.subject,
            "detail": self.detail,
        }


class InvariantAuditor:
    """Continuous invariant checks over one :class:`ProtocolSimulation`.

    Usage::

        auditor = InvariantAuditor(simulation)
        auditor.attach()
        ... run, injecting faults; call auditor.check_event() at will ...
        auditor.check_quiescent(drained=simulation.engine.pending == 0)
        auditor.detach()
        if auditor.violations: ...

    The auditor is strictly read-only with respect to the simulation: it
    never schedules events, never mutates daemon or RCC state, and its
    hooks tolerate being called at any point of the run.

    The per-record and per-view checks sweep only what the run *touched*
    (``daemon.records.touched()`` / ``daemon.views.touched()``): a record
    or view the run never read is, by construction, still in the state
    establishment installed — one PRIMARY per connection, no UNHEALTHY
    record, both end-nodes on the primary — which satisfies every check.
    Violations come out in the order a sweep of everything would give.
    """

    def __init__(self, simulation) -> None:
        self.simulation = simulation
        self.violations: list[InvariantViolation] = []
        #: Spare pools as sized at establishment time — the conservation
        #: baseline.  The runtime never legitimately mutates
        #: ``_spare_pools`` (draws are tracked separately), so any drift
        #: is a double-release or phantom credit.
        self._baseline_spares: dict[LinkId, float] = {}
        #: Highest frame seq delivered per link, and every seq delivered,
        #: for the monotonicity / at-most-once checks.
        self._delivered_seqs: dict[LinkId, set[int]] = {}
        #: The failed components as the last sweep saw them: a sweep
        #: after every injection tells repairs and failures from them.
        self._failed_seen: frozenset = frozenset()
        #: channel id -> when a repair left its path whole with its
        #: rejoin window open; dropped when its path fails again.
        self._owed: dict[int, float] = {}
        self._attached = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Snapshot the conservation baseline and install the RCC hooks.

        The hooks hold the auditor weakly: the auditor holds the
        simulation, which owns the links, so a strong hook would tie all
        three into one reference cycle.  Keep a reference to the auditor
        while the run goes on: once it is dropped, its hooks do nothing."""
        if self._attached:
            return
        self._attached = True
        self._check_transition_table()
        self._baseline_spares = dict(self.simulation._spare_pools)
        self._failed_seen = frozenset(self.simulation.failed_components)
        hook = WeakCallback(self._on_frame_delivered)
        for rcc in self.simulation._rcc.values():
            rcc.on_frame_delivered = self._chain(rcc.on_frame_delivered, hook)

    def detach(self) -> None:
        """Remove the RCC hooks (baseline and findings are kept)."""
        if not self._attached:
            return
        self._attached = False
        for rcc in self.simulation._rcc.values():
            rcc.on_frame_delivered = None

    @staticmethod
    def _chain(existing, added):
        if existing is None:
            return added

        def chained(rcc, frame):
            existing(rcc, frame)
            added(rcc, frame)

        return chained

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, invariant: str, subject, detail: str) -> None:
        """Append one violation (capped at :data:`MAX_VIOLATIONS`)."""
        if len(self.violations) >= MAX_VIOLATIONS:
            return
        self.violations.append(
            InvariantViolation(
                time=self.simulation.engine.now,
                invariant=invariant,
                subject=str(subject),
                detail=detail,
            )
        )

    @property
    def ok(self) -> bool:
        """Whether no invariant has been violated so far."""
        return not self.violations

    # ------------------------------------------------------------------
    # RCC delivery hook
    # ------------------------------------------------------------------
    def _on_frame_delivered(self, rcc, frame) -> None:
        link = rcc.link
        # No delivery over a dead link: _arrive re-checks link health on
        # arrival, so reaching this hook with the link down means the
        # runtime's health model and the transport disagree.
        if not self.simulation.link_up(link):
            self.record(
                "dead-link-delivery", link,
                f"frame seq {frame.seq} delivered while {link} is down",
            )
        # Sequence sanity: a delivered seq must have been assigned by the
        # sender (below its next_seq counter) and never delivered before
        # (the dedup in _arrive must catch retransmitted duplicates).
        if frame.seq >= rcc._next_seq:
            self.record(
                "rcc-monotonicity", link,
                f"delivered seq {frame.seq} but sender has only assigned "
                f"up to {rcc._next_seq - 1}",
            )
        delivered = self._delivered_seqs.setdefault(link, set())
        if frame.seq in delivered:
            self.record(
                "rcc-monotonicity", link,
                f"frame seq {frame.seq} delivered to the daemon twice",
            )
        delivered.add(frame.seq)

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def check_event(self) -> None:
        """Cheap sweep, safe after every injected fault/repair (call it
        after each one for the repair check to see them all)."""
        self._track_repairs()
        self._check_conservation()
        ledger = self.simulation.network.ledger
        for problem in ledger.audit():
            self.record("reservation-conservation", "ledger", problem)

    def check_quiescent(self, drained: bool = True) -> None:
        """Full sweep once the run has settled.

        ``drained`` says the event heap truly emptied; the transient-
        sensitive checks (draw leaks, at-most-one-active, stuck soft
        state) are only sound then — activations legitimately race
        failure reports mid-flight.
        """
        self.check_event()
        if not drained:
            return
        self._check_draw_leaks()
        touched = self._touched_records()
        self._check_single_active(touched)
        self._check_soft_state_expired(touched)
        self._check_no_pending_handshakes()
        self._check_repairs_rejoined()

    def _touched_records(self) -> "dict[object, list]":
        """Each alive node's touched records, read once for both record
        checks.  The untouched siblings :meth:`_check_single_active`
        materialises for its count come after this read; they are still
        as establishment installed them, so none is UNHEALTHY and
        :meth:`_check_soft_state_expired` loses nothing by not seeing
        them."""
        simulation = self.simulation
        return {
            node: daemon.records.touched()
            for node, daemon in simulation.daemons.items()
            if simulation.node_up(node)
        }

    # -- state-machine table consistency ----------------------------------
    def _check_transition_table(self) -> None:
        """The runtime's explicit (state, event) -> state table must close
        to exactly the Fig. 4 closure the auditor expects; a drift means a
        transition was added or dropped without updating the audit."""
        actual = {
            state.value: frozenset(t.value for t in targets)
            for state, targets in allowed_transitions().items()
        }
        if actual != EXPECTED_TRANSITIONS:
            self.record(
                "transition-table", "states.TRANSITIONS",
                f"runtime closure {actual!r} != audited Fig. 4 closure "
                f"{EXPECTED_TRANSITIONS!r}",
            )

    # -- reservation conservation ----------------------------------------
    def _check_conservation(self) -> None:
        simulation = self.simulation
        pools = simulation._spare_pools
        for link, baseline in self._baseline_spares.items():
            current = pools.get(link, 0.0)
            if abs(current - baseline) > _EPSILON:
                self.record(
                    "reservation-conservation", link,
                    f"spare pool drifted from {baseline:g} to {current:g} "
                    f"(pools are sized once at establishment; draws are "
                    f"tracked separately)",
                )
        for link in pools:
            if link not in self._baseline_spares:
                self.record(
                    "reservation-conservation", link,
                    f"spare pool appeared for {link} after establishment",
                )
        for link, draws in simulation._draws.items():
            drawn = sum(draws.values())
            if drawn < -_EPSILON:
                self.record(
                    "reservation-conservation", link,
                    f"negative total draw {drawn:g}",
                )
            pool = pools.get(link, 0.0)
            if drawn > pool + _EPSILON:
                self.record(
                    "reservation-conservation", link,
                    f"draws {drawn:g} exceed the spare pool {pool:g}",
                )

    # -- draw leaks -------------------------------------------------------
    def _check_draw_leaks(self) -> None:
        """Every outstanding draw must belong to a channel that is still
        established at the draw's owning node (the link's source).  A draw
        surviving the channel's teardown there is leaked bandwidth — the
        exact failure mode soft-state expiry (Section 4.4) exists to
        prevent."""
        simulation = self.simulation
        for link, draws in simulation._draws.items():
            owner = link.src
            if not simulation.node_up(owner):
                continue  # a dead node's books are settled on repair/rejoin
            daemon = simulation.daemons.get(owner)
            for channel_id, amount in draws.items():
                record = None if daemon is None else daemon.records.get(
                    channel_id
                )
                if record is None or record.state is (
                    LocalChannelState.NON_EXISTENT
                ):
                    self.record(
                        "draw-leak", link,
                        f"channel {channel_id} still draws {amount:g} on "
                        f"{link} but is torn down at node {owner!r}",
                    )

    # -- at most one active channel per connection ------------------------
    def _check_single_active(self, touched: "dict[object, list]") -> None:
        """At quiescence each alive end-node must consider exactly one
        channel current, and must not host two PRIMARY records for the
        same connection (a transient that is legal mid-activation but a
        switching bug if it persists)."""
        daemons = self.simulation.daemons
        for node, records in touched.items():
            daemon = daemons[node]
            # A connection's records are contiguous in registration order,
            # so the touched connections come out in that order too; their
            # untouched siblings are read (and materialised) for the count.
            connections = dict.fromkeys(
                record.connection_id for record in records
            )
            primaries: dict[int, list[int]] = {}
            for connection_id in connections:
                for channel_id in daemon.table.channels_of(connection_id):
                    record = daemon.records[channel_id]
                    if not record.is_endpoint:
                        continue
                    if record.state is LocalChannelState.PRIMARY:
                        primaries.setdefault(
                            record.connection_id, []
                        ).append(channel_id)
            for connection_id, channel_ids in primaries.items():
                if len(channel_ids) > 1:
                    self.record(
                        "multiple-active", f"connection {connection_id}",
                        f"node {node!r} holds {len(channel_ids)} PRIMARY "
                        f"channels {sorted(channel_ids)} for one connection",
                    )
        self._check_endpoint_agreement()

    def _check_endpoint_agreement(self) -> None:
        """Both alive end-nodes of a connection must agree on the current
        channel once the network settles — the serial-number switching
        rule's whole purpose (Section 4.2)."""
        simulation = self.simulation
        touched = {
            view.connection_id
            for daemon in simulation.daemons.values()
            for view in daemon.views.touched()
        }
        # The connections the run was built on, in plan order.
        plan = simulation.plan
        for connection_id in sorted(touched, key=plan.position_of.__getitem__):
            path = plan.channels(plan.position_of[connection_id])[0].path
            src, dst = path.source, path.destination
            if not (simulation.node_up(src) and simulation.node_up(dst)):
                continue
            view_src = simulation.daemons[src].views.get(connection_id)
            view_dst = simulation.daemons[dst].views.get(connection_id)
            if view_src is None or view_dst is None:
                continue
            # Skip connections that never finished recovering (out of
            # backups, or recovery still marked in progress): there is no
            # agreed current channel to check.
            if view_src.current_channel in view_src.unhealthy:
                continue
            if view_dst.current_channel in view_dst.unhealthy:
                continue
            if view_src.current_channel != view_dst.current_channel:
                self.record(
                    "endpoint-disagreement",
                    f"connection {connection_id}",
                    f"source {src!r} carries channel "
                    f"{view_src.current_channel} but destination {dst!r} "
                    f"carries {view_dst.current_channel}",
                )

    # -- bounded soft state -----------------------------------------------
    def _check_soft_state_expired(self, touched: "dict[object, list]") -> None:
        """With the event heap drained, no alive node may still hold an
        UNHEALTHY record: its rejoin timer either healed it (B) or expired
        it (N).  An UNHEALTHY survivor means a timer was lost."""
        for node, records in touched.items():
            for record in records:
                if record.state is LocalChannelState.UNHEALTHY:
                    self.record(
                        "stuck-soft-state", f"channel {record.channel_id}",
                        f"still UNHEALTHY at node {node!r} after the run "
                        f"drained; its rejoin timer never resolved it",
                    )

    # -- a repair inside the rejoin window heals -------------------------
    def _track_repairs(self) -> None:
        """Note what failed and what came back since the last sweep."""
        failed = self.simulation.failed_components
        seen = self._failed_seen
        if failed == seen:
            return
        registry = self.simulation.network.registry
        owed = self._owed
        if owed:
            for component in failed - seen:
                for channel in registry.on_component(component):
                    owed.pop(channel.channel_id, None)
        for component in seen - failed:
            for channel in registry.on_component(component):
                if self._rejoin_owed(channel):
                    owed[channel.channel_id] = self.simulation.engine.now
        self._failed_seen = frozenset(failed)

    def _rejoin_owed(self, channel) -> bool:
        """Whether ``channel`` must now rejoin: its path is whole again
        both ways (the hint and the confirm ride the reverse links), its
        source holds it UNHEALTHY, no node has torn it down or lacks spare
        for it, and every rejoin deadline leaves room for the hint,
        request and confirm — three path lengths at Section 5.2's per-hop
        bound (a frame interval, then D_max)."""
        simulation = self.simulation
        path = channel.path
        failed = simulation.failed_components
        if not failed.isdisjoint(path.nodes) or any(
            link in failed or link.reversed() in failed for link in path.links
        ):
            return False
        rcc = simulation.config.rcc
        room = simulation.engine.now + 3 * path.hops * (
            rcc.min_interval + rcc.max_delay
        )
        channel_id = channel.channel_id
        daemons = simulation.daemons
        # Only built records are read: an untouched one is still as
        # establishment installed it, primary or backup.
        source = dict.get(daemons[path.source].records, channel_id)
        if source is None or source.state is not LocalChannelState.UNHEALTHY:
            return False
        for node in path.nodes:
            daemon = daemons[node]
            record = dict.get(daemon.records, channel_id)
            if record is None:
                continue
            if (
                record.state is LocalChannelState.NON_EXISTENT
                or record.mux_failed_link is not None
            ):
                return False
            if record.state is LocalChannelState.UNHEALTHY:
                deadline = daemon._rejoin_timers.get(channel_id)
                if deadline is None or not deadline.active or (
                    deadline.time < room
                ):
                    return False
        return True

    def _check_repairs_rejoined(self) -> None:
        """With the event heap drained, every channel a repair made whole
        inside its rejoin window must have rejoined since: the repair's
        neighbours were told of it, and nothing else could stop it."""
        rejoined_at = self.simulation.metrics.rejoined_at
        for channel_id, repaired in self._owed.items():
            if rejoined_at.get(channel_id, -1.0) < repaired:
                self.record(
                    "repair-not-rejoined", f"channel {channel_id}",
                    f"its path was whole again at t={repaired:g} with its "
                    f"rejoin window open, but it never rejoined",
                )

    # -- no wedged switchover handshakes ----------------------------------
    def _check_no_pending_handshakes(self) -> None:
        """With the event heap drained, no alive end-node may still carry
        an in-flight switchover handshake: its retry timer either got an
        ack/counterpart or exhausted into the fallback path.  A survivor
        means the retry/backoff layer lost a timer."""
        simulation = self.simulation
        for node, daemon in simulation.daemons.items():
            if not simulation.node_up(node):
                continue
            for connection_id, pending in getattr(
                daemon, "_pending", {}
            ).items():
                self.record(
                    "stuck-soft-state", f"connection {connection_id}",
                    f"switchover handshake for backup serial "
                    f"{pending.backup.serial} still pending at node "
                    f"{node!r} after the run drained",
                )
