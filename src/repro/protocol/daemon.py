"""The per-node BCP daemon (Section 4).

Each node runs one daemon.  It keeps a :class:`LocalChannelRecord` for
every channel whose path crosses the node, and — at the end-nodes of a
D-connection — an :class:`EndpointView` with the connection-level
knowledge needed for channel switching (backup serials, paths, health).
Both tables are read from the node's table of the compiled plan
(:mod:`repro.protocol.plan`): what establishment wrote is
shared by every simulation of the network state, and a record or view
becomes this daemon's own mutable object the first time it is touched.

The daemon implements:

* failure detection hand-off and failure reporting along the healthy
  segments of failed channels' paths, under any of the three switching
  schemes (Section 4.2),
* backup activation with spare-pool draws, including multiplexing
  failures and the two priority-based activation variants (Section 4.3),
* the soft-state rejoin machinery (Section 4.4): rejoin timers,
  rejoin-request / rejoin-confirm forwarding, late-rejoin closure.
"""

from __future__ import annotations

import enum
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.network.components import LinkId, NodeId
from repro.protocol.config import (
    SWITCHOVER_ACK_TIMEOUT,
    SWITCHOVER_BACKOFF,
    SWITCHOVER_RETRY_LIMIT,
    SwitchingScheme,
)
from repro.protocol.messages import (
    ActivationAck,
    ActivationMessage,
    ChannelClosure,
    ControlMessage,
    Direction,
    FailureReport,
    RejoinConfirm,
    RejoinRequest,
)
from repro.protocol.states import (
    ChannelEvent,
    LocalChannelRecord,
    LocalChannelState,
)
from repro.sim.engine import EventHandle
from repro.sim.timers import WeakCallback


class _FailureSide(enum.Enum):
    """Where a detected failure lies relative to this node on the path."""

    UPSTREAM = "upstream"      # we are the downstream neighbour
    DOWNSTREAM = "downstream"  # we are the upstream neighbour


@dataclass(frozen=True, slots=True)
class BackupInfo:
    """Endpoint-side knowledge of one backup channel (immutable: the
    daemons' index shares its instances with every view built from it)."""

    channel_id: int
    serial: int
    mux_degree: int


@dataclass(slots=True)
class EndpointView:
    """Connection-level state kept at each end-node (Section 4.2)."""

    connection_id: int
    role: str  # "source" | "destination"
    current_channel: int  # channel id currently carrying (or meant to carry) data
    backups: list[BackupInfo] = field(default_factory=list)
    unhealthy: set[int] = field(default_factory=set)
    attempted: set[int] = field(default_factory=set)
    recovering: bool = False
    #: Serial of ``current_channel`` — the serial-number rule's anchor:
    #: an incoming activation for a lower (episode, serial) pair is stale.
    current_serial: int = 0
    #: Recovery round for this connection at this end-node; bumped every
    #: time the channel currently carrying data is learned dead.  Carried
    #: by activations/acks so late duplicates from an earlier round are
    #: rejected deterministically.
    episode: int = 0

    def next_backup(self) -> "BackupInfo | None":
        """Lowest-serial backup believed healthy and not yet attempted —
        the serial-number rule that keeps both end-nodes consistent."""
        for backup in sorted(self.backups, key=lambda info: info.serial):
            if backup.channel_id in self.unhealthy:
                continue
            if backup.channel_id in self.attempted:
                continue
            return backup
        return None


@dataclass
class _PendingActivation:
    """One in-flight switchover handshake at its initiating end-node."""

    backup: BackupInfo
    episode: int
    attempts: int
    timer: EventHandle


class BCPDaemon:
    """The BCP agent at one node.

    The runtime owns its daemons, so a daemon holds nothing that leads
    back to it strongly.  It keeps the acyclic services it uses on every
    message — engine, config, metrics, trace, failed-component set, the
    RCC links it sends on, topology — and reaches the runtime itself
    through one weak proxy, for the rarer calls (draws, teardown,
    episodes).  Its timers are plain calendar entries that call it back
    through :class:`~repro.sim.timers.WeakCallback`, so they do not hold it
    either.
    """

    # 31 attributes: past the 30 keys a shared-key instance dict holds.
    __slots__ = (
        "node", "runtime", "_engine", "_config", "_metrics", "_failed", "_rcc",
        "_links", "_topology", "_handlers", "table", "records", "views",
        "_rejoin_timers", "_pending", "_on_rejoin_expiry",
        "_on_activation_timeout", "_counting",
        "_c_detections", "_c_reports", "_c_received", "_c_so_episodes",
        "_c_so_duplicates", "_c_so_stale", "_c_so_retries", "_c_so_exhausted",
        "_c_so_demotions", "_c_so_acks", "_c_so_completed", "_c_so_fallbacks",
        "_log", "__weakref__",
    )

    def __init__(self, node: NodeId, runtime) -> None:
        self.node = node
        self.runtime = weakref.proxy(runtime)
        self._engine = runtime.engine
        self._config = runtime.config
        self._metrics = runtime.metrics
        self._failed = runtime.failed_components
        #: link -> RCCLink, the runtime's own map (filled once the daemons
        #: every link delivers to exist).
        self._rcc = runtime._rcc
        #: neighbour -> the RCCLink toward it, filled on first send.
        self._links: dict[NodeId, object] = {}
        self._topology = runtime.network.topology
        #: Message class -> its handler, read off this daemon's class so
        #: a subclass's override is the one called (plain functions: the
        #: map holds no bound method, so no cycle back to the daemon).
        cls = type(self)
        self._handlers = {
            FailureReport: cls._receive_failure_report,
            ActivationMessage: cls._receive_activation,
            ActivationAck: cls._receive_activation_ack,
            RejoinRequest: cls._receive_rejoin_request,
            RejoinConfirm: cls._receive_rejoin_confirm,
            ChannelClosure: cls._receive_closure,
        }
        #: This node's table of the compiled plan: what establishment
        #: installed here, plus the indices the whole-node scans read.
        self.table = runtime.tables[node]
        #: channel id -> record, for every channel through this node.
        self.records: Mapping[int, LocalChannelRecord] = self.table.records()
        #: connection id -> view, for every connection ending here.
        self.views: Mapping[int, EndpointView] = self.table.views()
        #: channel id -> its latest rejoin deadline.
        self._rejoin_timers: dict[int, EventHandle] = {}
        #: In-flight switchover handshakes this end-node initiated, keyed
        #: by connection id (at most one per connection).
        self._pending: dict[int, _PendingActivation] = {}
        # The timer callbacks, made once: every timer event of this daemon
        # holds the same object, and none of them holds the daemon.
        self._on_rejoin_expiry = WeakCallback(self._rejoin_expired)
        self._on_activation_timeout = WeakCallback(self._activation_retry)
        # Network-wide control-plane counters, shared by every daemon of
        # the runtime.
        obs = runtime.obs
        #: With a no-op registry the counters are not called at all.
        self._counting = obs.enabled
        self._c_detections = obs.counter("protocol.detections")
        self._c_reports = obs.counter("protocol.reports_sent")
        self._c_received = obs.counter("protocol.messages_received")
        self._c_so_episodes = obs.counter("switchover.episodes")
        self._c_so_duplicates = obs.counter("switchover.duplicates")
        self._c_so_stale = obs.counter("switchover.stale_dropped")
        self._c_so_retries = obs.counter("switchover.retries")
        self._c_so_exhausted = obs.counter("switchover.retry_exhausted")
        self._c_so_demotions = obs.counter("switchover.demotions")
        self._c_so_acks = obs.counter("switchover.acks")
        self._c_so_completed = obs.counter("switchover.completed")
        self._c_so_fallbacks = obs.counter("switchover.fallbacks")
        #: The runtime's log: every step below is one row, guarded on
        #: ``self._log.active``.
        self._log = runtime.trace

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _alive(self) -> bool:
        return self.node not in self._failed

    def _point(self, kind: str, connection_id: int, **attrs: object) -> None:
        """Record one step of a connection's handling at this node, filed
        under the connection's open recovery episode (callers guard on
        ``self._log.active``)."""
        self._log.point(
            kind, self.node, self._engine.now,
            parent=self.runtime.episode_parent(connection_id),
            connection=connection_id, **attrs,
        )

    def _send(self, next_hop: NodeId, message: ControlMessage) -> None:
        rcc = self._links.get(next_hop)
        if rcc is None:
            rcc = self._links[next_hop] = self._rcc[
                self._topology.link(self.node, next_hop)]
        rcc.send(message)

    def _next_hop(self, record: LocalChannelRecord, direction: Direction):
        if direction is Direction.TO_SOURCE:
            return record.upstream
        return record.downstream

    def _start_rejoin_timer(self, record: LocalChannelRecord) -> None:
        """(Re)arm the channel's rejoin deadline: the new one is scheduled
        before the old one is cancelled."""
        channel_id = record.channel_id
        timers = self._rejoin_timers
        old = timers.get(channel_id)
        timers[channel_id] = self._engine.schedule(
            self._config.rejoin_timeout, self._on_rejoin_expiry, channel_id)
        if old is not None:
            old.cancel()

    def _cancel_rejoin_timer(self, channel_id: int) -> None:
        timer = self._rejoin_timers.get(channel_id)
        if timer is not None:
            timer.cancel()

    def _enter_unhealthy(self, record: LocalChannelRecord) -> None:
        """Fig. 4's FAIL: the record goes U and its rejoin deadline is
        armed (Section 4.4)."""
        record.transition(LocalChannelState.UNHEALTHY, ChannelEvent.FAIL)
        self._start_rejoin_timer(record)

    def on_crashed(self) -> None:
        """The node died: disarm every pending timer.

        The ``_alive()`` guards already make post-crash callbacks no-ops,
        but the armed events would still fire (and keep the event heap
        from draining); a crashed node holds no soft state, so its rejoin
        timers are cancelled outright.
        """
        for timer in self._rejoin_timers.values():
            timer.cancel()
        for pending in self._pending.values():
            pending.timer.cancel()
        self._pending.clear()

    def on_repaired(self) -> None:
        """The node came back: re-arm soft-state expiry for channels that
        were unhealthy at crash time, so they either rejoin or tear down
        instead of lingering in U forever (their timers were cancelled by
        :meth:`on_crashed`), and reconcile the endpoint views.

        A repaired end-node cannot trust its frozen connection views: the
        far end may have switched channels, exhausted every backup, or
        torn soft state down while this node was dark.  Marking the
        (pre-crash) current channel suspect and opening a fresh recovery
        round resynchronizes both ends through the guarded handshake —
        either on a surviving channel, or into a consistent unrecoverable
        verdict.
        """
        # An untouched record is still in its installed P/B state.
        for record in self.records.touched():
            if record.state is LocalChannelState.UNHEALTHY:
                self._start_rejoin_timer(record)
                if record.is_endpoint:
                    # A failure this end detected itself is one its view
                    # may never have been told of (Scheme 1 reports
                    # nothing to the source).
                    self.views[record.connection_id].unhealthy.add(
                        record.channel_id)
        for view in self.views.values():
            view.unhealthy.add(view.current_channel)
            view.episode += 1
            if self._counting:
                self._c_so_episodes.inc()
            view.recovering = False
            if self._log.active:
                self._point("switchover-reconcile", view.connection_id,
                            suspect=view.current_channel)
            if view.role == "source":
                # Probe everything believed dead, once: this repair is
                # the source's own notice, and a channel whose soft state
                # survived elsewhere can heal back into a standby.
                for channel_id in sorted(view.unhealthy):
                    probed = self.records.get(channel_id)
                    if (
                        probed is not None
                        and probed.is_source
                        and probed.state is not LocalChannelState.NON_EXISTENT
                    ):
                        self._receive_rejoin_request(
                            probed, RejoinRequest(channel_id=channel_id))
            if self._initiates_activation(view):
                self._initiate_recovery(view)

    def _rejoin_expired(self, channel_id: int) -> None:
        if not self._alive():
            return
        record = self.records.get(channel_id)
        if record is None or record.state is not LocalChannelState.UNHEALTHY:
            return
        # Soft-state teardown: the channel's local resources are released.
        record.transition(LocalChannelState.NON_EXISTENT, ChannelEvent.EXPIRE)
        if self._log.active:
            self._point("teardown", record.connection_id, channel=channel_id)
        self.runtime.release_channel_at_node(record)

    # ------------------------------------------------------------------
    # failure detection (called by the runtime on the failed component's
    # neighbour nodes)
    # ------------------------------------------------------------------
    def on_component_failure(self, component) -> None:
        """A component adjacent to this node crashed; find every channel
        we host that traverses it and start the recovery machinery."""
        if not self._alive():
            return
        records = self.records
        for channel_id in self.table.by_neighbour[self._far_end(component)]:
            record = records[channel_id]
            side = self._relation(record, component)
            if side is None:
                continue
            self._handle_detected_failure(record, side, component)

    def on_component_repaired(self, component) -> None:
        """A component adjacent to this node came back (Section 4.4):
        every channel we host that runs into it downstream may heal, so
        this node handles a repair hint for it as if one had arrived —
        the source probes, any other node passes the hint up the path.
        A record still primary or backup here is hinted too: this node
        may have been down itself when the component failed."""
        if not self._alive():
            return
        records = self.records
        for channel_id in self.table.by_neighbour[self._far_end(component)]:
            record = records[channel_id]
            if self._relation(record, component) is _FailureSide.DOWNSTREAM:
                self._receive_rejoin_request(record, RejoinRequest(
                    channel_id=channel_id, direction=Direction.TO_SOURCE))

    def _far_end(self, component) -> NodeId:
        """The neighbour a component adjacent to this node leads to: a
        link's other end, or the node itself.  Only a channel whose
        previous or next hop it is can relate to the component."""
        if isinstance(component, LinkId):
            return component.src if component.dst == self.node else component.dst
        return component

    def _relation(self, record: LocalChannelRecord, component):
        """Whether ``component`` is this record's upstream/downstream
        neighbour component (link or node)."""
        up, down = record.upstream, record.downstream
        if isinstance(component, LinkId):
            # Endpoint by endpoint: no LinkId is built just to compare.
            src, dst = component.src, component.dst
            if dst == self.node and src == up:
                return _FailureSide.UPSTREAM
            if src == self.node and dst == down:
                return _FailureSide.DOWNSTREAM
        elif up is not None and component == up:
            return _FailureSide.UPSTREAM
        elif down is not None and component == down:
            return _FailureSide.DOWNSTREAM
        return None

    def _handle_detected_failure(
        self, record: LocalChannelRecord, side: _FailureSide, component
    ) -> None:
        if record.state in (LocalChannelState.PRIMARY, LocalChannelState.BACKUP):
            self._enter_unhealthy(record)
            if self._counting:
                self._c_detections.inc()
            if self._log.active:
                self._point(
                    "detect", record.connection_id,
                    channel=record.channel_id, side=side.value,
                    component=str(component),
                )
        elif record.state is LocalChannelState.NON_EXISTENT:
            return
        scheme = self._config.scheme
        # Which reports this node generates (Fig. 5): the node downstream
        # of the failure reports toward the destination (schemes 1, 3); the
        # node upstream reports toward the source (schemes 2, 3).
        if side is _FailureSide.UPSTREAM and scheme in (
            SwitchingScheme.SCHEME_1, SwitchingScheme.SCHEME_3
        ):
            self._emit_report(record, Direction.TO_DESTINATION, component)
        if side is _FailureSide.DOWNSTREAM and scheme in (
            SwitchingScheme.SCHEME_2, SwitchingScheme.SCHEME_3
        ):
            self._emit_report(record, Direction.TO_SOURCE, component)

    def _emit_report(
        self, record: LocalChannelRecord, direction: Direction, component,
        mux_failure: bool = False,
    ) -> None:
        if not record.has_reported(direction):
            self._report_hop(record, FailureReport(
                channel_id=record.channel_id,
                direction=direction,
                failed_component=component,
                mux_failure=mux_failure,
            ))

    def _report_hop(
        self, record: LocalChannelRecord, report: FailureReport
    ) -> None:
        """One hop of a failure report (Section 4.2): mark its direction
        reported here, then hand it to this end-node if the report is
        bound for it, else pass it on."""
        direction = report.direction
        record.mark_reported(direction)
        next_hop = self._next_hop(record, direction)
        if next_hop is None:
            self._end_node_learns_failure(record, report)
            return
        if self._counting:
            self._c_reports.inc()
        if self._log.active:
            self._point(
                "report-hop", record.connection_id,
                channel=record.channel_id, direction=direction.value,
                via=str(next_hop),
            )
        self._send(next_hop, report)

    # ------------------------------------------------------------------
    # message dispatch (called by the RCC layer)
    # ------------------------------------------------------------------
    def receive(self, message: ControlMessage) -> None:
        """Dispatch one control message delivered by the RCC layer."""
        if self.node in self._failed:
            return
        try:
            record = self.records[message.channel_id]
        except KeyError:
            return  # the channel was never established through this node
        if self._counting:
            self._c_received.inc()
        self._handlers[type(message)](self, record, message)

    # -- failure reports ------------------------------------------------
    def _receive_failure_report(
        self, record: LocalChannelRecord, report: FailureReport
    ) -> None:
        if (
            record.state is LocalChannelState.UNHEALTHY
            and record.has_reported(report.direction)
        ):
            return  # duplicate: already seen/forwarded this episode
        if record.state in (LocalChannelState.PRIMARY, LocalChannelState.BACKUP):
            self._enter_unhealthy(record)
        if record.state is LocalChannelState.NON_EXISTENT:
            return  # already torn down; nothing to do or forward
        self._report_hop(record, report)

    def _end_node_learns_failure(
        self, record: LocalChannelRecord, report: FailureReport
    ) -> None:
        view = self.views.get(record.connection_id)
        if view is None:  # pragma: no cover - every endpoint has a view
            return
        if record.channel_id in view.unhealthy:
            # Duplicate report for a channel this end-node already knows
            # is dead (e.g. a component report racing a mux report, or an
            # exhaustion declaration racing the real failure report) —
            # recovery already ran for it; re-running would double-attempt.
            if self._counting:
                self._c_so_duplicates.inc()
            return
        view.unhealthy.add(record.channel_id)
        self._metrics.note_endpoint_informed(
            record.connection_id, record.channel_id, self._engine.now
        )
        if self._log.active:
            self._point(
                "informed", record.connection_id,
                channel=record.channel_id, role=view.role,
            )
        if record.channel_id != view.current_channel:
            return  # a standby backup failed; health table updated, done
        # The channel carrying data died: a new recovery round starts.
        # Any handshake still in flight is for a dead channel — drop it.
        view.episode += 1
        if self._counting:
            self._c_so_episodes.inc()
        self._cancel_pending(view.connection_id)
        if not self._initiates_activation(view):
            return
        self._initiate_recovery(view)

    def _initiates_activation(self, view: EndpointView) -> bool:
        scheme = self._config.scheme
        if scheme is SwitchingScheme.SCHEME_1:
            return view.role == "destination"
        if scheme is SwitchingScheme.SCHEME_2:
            return view.role == "source"
        return True

    # -- recovery / activation -------------------------------------------
    def _initiate_recovery(self, view: EndpointView) -> None:
        view.recovering = True
        backup = view.next_backup()
        if backup is None:
            view.recovering = False
            self._metrics.note_unrecoverable(
                view.connection_id, self._engine.now, self.node
            )
            if self._log.active:
                self._point("unrecoverable", view.connection_id,
                            role=view.role)
                self.runtime.end_episode(
                    view.connection_id, self._engine.now,
                    outcome="unrecoverable",
                )
            return
        delay = backup.mux_degree * self._config.activation_delay_per_degree
        if delay > 0:
            self._engine.schedule(delay, self._send_activation, view, backup)
        else:
            self._send_activation(view, backup)

    def _send_activation(self, view: EndpointView, backup: BackupInfo) -> None:
        if not self._alive():
            return
        if backup.channel_id in view.unhealthy:
            # Learned of its death while waiting; pick another.
            self._initiate_recovery(view)
            return
        if backup.channel_id in view.attempted:
            return
        view.attempted.add(backup.channel_id)
        view.current_channel = backup.channel_id
        view.current_serial = backup.serial
        if self._log.active:
            self._point(
                "activate", view.connection_id,
                serial=backup.serial, role=view.role,
            )
        record = self.records[backup.channel_id]
        if view.role == "source":
            self._metrics.note_activation_sent(
                view.connection_id, backup.serial, self._engine.now
            )
        if record.state is not LocalChannelState.BACKUP:
            # Already promoted by the other end's activation sweeping the
            # whole path, or already failed; nothing to send.
            return
        record.transition(LocalChannelState.PRIMARY, ChannelEvent.ACTIVATE)
        # Idempotence: at most one primary per connection at this
        # node — the endpoint's own activation supersedes any other.
        self._demote_stale_primaries(record, all_serials=True)
        # The endpoint draws its own outgoing link (the source end);
        # the destination end owns no forward link on the channel.
        if view.role == "source":
            if not self._draw_or_mux_fail(record):
                return
        self._send_activation_hop(view, record)
        self._arm_pending(view, backup)

    def _receive_activation(
        self, record: LocalChannelRecord, message: ActivationMessage
    ) -> None:
        next_hop = self._next_hop(record, message.direction)
        if next_hop is None:
            self._activation_reaches_endpoint(record, message)
            return
        # Intermediate hop of the activation sweep.
        if record.state is LocalChannelState.BACKUP:
            record.transition(LocalChannelState.PRIMARY, ChannelEvent.ACTIVATE)
            self._demote_stale_primaries(record)
            if not self._draw_or_mux_fail(record):
                return
            self._send(next_hop, message)
        elif record.state is LocalChannelState.PRIMARY:
            # A crossing or duplicate sweep of an already-active channel
            # (scheme 3 activates from both ends): nothing to promote or
            # draw, but the message must still reach the far end-node so
            # its handshake completes instead of timing out.
            self._send(next_hop, message)
        # U / N: the activation dies here (Fig. 4); the initiator's
        # retry/backoff layer deals with the silence.

    def _activation_reaches_endpoint(
        self, record: LocalChannelRecord, message: ActivationMessage
    ) -> None:
        """The activation arrived at its target end-node: accept, adopt, or
        reject it by the (episode, serial) order, and acknowledge every
        accepted (or repeated) activation end-to-end."""
        view = self.views.get(record.connection_id)
        if view is None:  # pragma: no cover - every endpoint has a view
            return
        if message.episode < view.episode or (
            message.episode == view.episode
            and message.serial < view.current_serial
        ):
            # A leftover from an earlier recovery round, or a lower serial
            # than what this end already carries: deterministically stale.
            if self._counting:
                self._c_so_stale.inc()
            if self._log.active:
                self._point("activation-stale", record.connection_id,
                            serial=message.serial, episode=message.episode)
            return
        changed = (
            record.state is LocalChannelState.BACKUP
            or view.current_channel != record.channel_id
        )
        advanced = (
            message.episode > view.episode
            or message.serial > view.current_serial
        )
        if advanced:
            self._adopt_activation(view, message)
        if record.state is LocalChannelState.BACKUP:
            record.transition(LocalChannelState.PRIMARY, ChannelEvent.ACTIVATE)
        if record.state is not LocalChannelState.PRIMARY:
            # Locally dead (U) or torn down (N): cannot carry data.  If we
            # just adopted the far end's round, we hold *no* valid serial
            # in it — clear the serial floor so the far end's next attempt
            # (possibly a lower, healed serial) is not rejected as stale.
            if advanced:
                view.current_serial = -1
            return
        self._demote_stale_primaries(record, all_serials=True)
        view.current_channel = record.channel_id
        view.current_serial = record.serial
        view.attempted.add(record.channel_id)
        if not record.is_destination and changed:
            if not self._draw_or_mux_fail(record):
                return  # mux failure mid-switchover: reports + fallback ran
        if changed:
            if record.is_source:
                self._metrics.note_source_resumed(
                    record.connection_id, record.serial,
                    self._engine.now,
                )
                if self._log.active:
                    self._point("resumed", record.connection_id,
                                serial=record.serial)
        pending = self._pending.get(record.connection_id)
        if pending is not None and pending.backup.channel_id == record.channel_id:
            # Counterpart activation (scheme 3): the far end is provably on
            # this same channel — as good as an ack.
            self._complete_pending(view, pending, how="counterpart")
        view.recovering = False
        ack_direction = message.direction.reverse()
        ack_hop = self._next_hop(record, ack_direction)
        if ack_hop is not None:
            # Idempotent re-ack: repeats of an accepted activation are
            # re-acknowledged so a lost ack only costs one retry.
            self._send(
                ack_hop,
                ActivationAck(
                    channel_id=record.channel_id,
                    direction=ack_direction,
                    connection_id=record.connection_id,
                    serial=message.serial,
                    episode=message.episode,
                ),
            )

    def _adopt_activation(
        self, view: EndpointView, message: ActivationMessage
    ) -> None:
        """The far end is ahead of us (higher episode, or higher serial in
        the same round): adopt its position.  The serial rule means it only
        reached ``message.serial`` after every lower serial failed, so mark
        those dead here too."""
        if message.episode > view.episode:
            view.episode = message.episode
            if self._counting:
                self._c_so_episodes.inc()
        if view.current_serial < message.serial:
            view.unhealthy.add(view.current_channel)
        for info in view.backups:
            if info.serial < message.serial:
                view.unhealthy.add(info.channel_id)
                view.attempted.add(info.channel_id)
        # Whatever handshake we had in flight is superseded.
        self._cancel_pending(view.connection_id)
        if self._log.active:
            self._point("activation-adopt", view.connection_id,
                        serial=message.serial, episode=message.episode)

    def _demote_stale_primaries(
        self, record: LocalChannelRecord, all_serials: bool = False
    ) -> None:
        """Exactly-one-primary idempotence: when a channel is promoted at
        this node, any same-connection primary with a *lower* serial is a
        leftover whose failure report this node never saw — demote it to U
        (its rejoin timer then heals or reclaims it).

        End-nodes pass ``all_serials=True``: an endpoint's activation is
        authoritative for its episode (the episode guard already rejected
        stale rounds), and a reconciliation round may deliberately restore
        a healed *lower* serial over a dead higher one.  Intermediate
        sweeps keep the lower-only rule — an old sweep still in flight
        must never demote a newer primary it crosses."""
        records = self.records
        for channel_id in self.table.channels_of(record.connection_id):
            other = records[channel_id]
            if (
                other.connection_id != record.connection_id
                or other.channel_id == record.channel_id
                or (not all_serials and other.serial >= record.serial)
                or other.state is not LocalChannelState.PRIMARY
            ):
                continue
            self._enter_unhealthy(other)
            if self._counting:
                self._c_so_demotions.inc()
            if self._log.active:
                self._point(
                    "switchover-demote", record.connection_id,
                    channel=other.channel_id, serial=other.serial,
                    superseded_by=record.serial,
                )
            view = self.views.get(record.connection_id)
            if view is not None:
                view.unhealthy.add(other.channel_id)

    @staticmethod
    def _away(record: LocalChannelRecord) -> Direction:
        """The direction an end-node's own messages travel on
        ``record``'s path: toward the far end-node."""
        if record.is_source:
            return Direction.TO_DESTINATION
        return Direction.TO_SOURCE

    def _send_activation_hop(
        self, view: EndpointView, record: LocalChannelRecord
    ) -> None:
        """Send this end-node's activation of ``record``'s channel, in
        the view's current round, one hop toward the far end-node."""
        direction = self._away(record)
        self._send(
            self._next_hop(record, direction),
            ActivationMessage(
                channel_id=record.channel_id,
                direction=direction,
                connection_id=view.connection_id,
                serial=record.serial,
                episode=view.episode,
            ),
        )

    # -- switchover handshake retry/backoff --------------------------------
    def _arm_pending(self, view: EndpointView, backup: BackupInfo) -> None:
        """Start the ack timer for an activation this end-node just sent."""
        self._cancel_pending(view.connection_id)
        self._pending[view.connection_id] = _PendingActivation(
            backup=backup, episode=view.episode, attempts=0,
            timer=self._engine.schedule(
                SWITCHOVER_ACK_TIMEOUT, self._on_activation_timeout,
                view.connection_id,
            ),
        )

    def _cancel_pending(self, connection_id: int) -> None:
        pending = self._pending.pop(connection_id, None)
        if pending is not None:
            pending.timer.cancel()

    def _complete_pending(
        self, view: EndpointView, pending: _PendingActivation, how: str
    ) -> None:
        pending.timer.cancel()
        self._pending.pop(view.connection_id, None)
        view.recovering = False
        if self._counting:
            self._c_so_completed.inc()
        if self._log.active:
            self._point(
                "activation-ack", view.connection_id,
                serial=pending.backup.serial, episode=pending.episode,
                how=how, attempts=pending.attempts,
            )

    def _activation_retry(self, connection_id: int) -> None:
        """Ack timer fired: resend the activation with backoff, or give the
        backup up after ``SWITCHOVER_RETRY_LIMIT`` resends."""
        if not self._alive():
            return
        pending = self._pending.get(connection_id)
        view = self.views.get(connection_id)
        if pending is None or view is None:
            return
        backup = pending.backup
        record = self.records.get(backup.channel_id)
        if (
            view.current_channel != backup.channel_id
            or view.episode != pending.episode
            or backup.channel_id in view.unhealthy
            or record is None
            or record.state is not LocalChannelState.PRIMARY
        ):
            # The world moved on (re-failure, adoption, closure) while the
            # timer was in flight; the handshake is moot.
            self._cancel_pending(connection_id)
            return
        if pending.attempts >= SWITCHOVER_RETRY_LIMIT:
            self._exhaust_pending(view, pending)
            return
        pending.attempts += 1
        if self._counting:
            self._c_so_retries.inc()
        if self._log.active:
            self._point(
                "activation-retry", connection_id,
                serial=backup.serial, episode=pending.episode,
                attempt=pending.attempts,
                limit=SWITCHOVER_RETRY_LIMIT,
            )
        self._send_activation_hop(view, record)
        # The expired handle is this event's own: nothing to cancel.
        pending.timer = self._engine.schedule(
            SWITCHOVER_ACK_TIMEOUT * SWITCHOVER_BACKOFF ** pending.attempts,
            self._on_activation_timeout, connection_id,
        )

    def _exhaust_pending(
        self, view: EndpointView, pending: _PendingActivation
    ) -> None:
        """Graceful degradation: the handshake never completed — declare
        the backup dead and fall through to the next backup, or report
        the connection unrecoverable, instead of wedging."""
        self._cancel_pending(view.connection_id)
        backup = pending.backup
        if self._counting:
            self._c_so_exhausted.inc()
        if self._log.active:
            self._point(
                "switchover-exhausted", view.connection_id,
                serial=backup.serial, episode=pending.episode,
                attempts=pending.attempts,
            )
        record = self.records.get(backup.channel_id)
        if record is not None and record.state is LocalChannelState.PRIMARY:
            self._enter_unhealthy(record)
            # Tell the rest of the path (and the far end, if reachable)
            # the attempt is abandoned, so promoted hops release.
            self._emit_report(record, self._away(record), None)
        view.unhealthy.add(backup.channel_id)
        view.episode += 1
        if self._counting:
            self._c_so_episodes.inc()
            self._c_so_fallbacks.inc()
        self._initiate_recovery(view)

    def _receive_activation_ack(
        self, record: LocalChannelRecord, ack: ActivationAck
    ) -> None:
        next_hop = self._next_hop(record, ack.direction)
        if next_hop is not None:
            # Acks ride the channel's path hop-by-hop regardless of the
            # local record state; a dead hop just loses the ack and the
            # initiator re-sends.
            self._send(next_hop, ack)
            return
        view = self.views.get(record.connection_id)
        if view is None:
            return
        pending = self._pending.get(record.connection_id)
        if (
            pending is not None
            and pending.backup.serial == ack.serial
            and pending.episode == ack.episode
        ):
            if self._counting:
                self._c_so_acks.inc()
            self._complete_pending(view, pending, how="ack")
        # No pending (the counterpart sweep already completed the
        # handshake) or a mismatched round: nothing to do — acks are
        # purely confirmations and never create state.

    def _draw_or_mux_fail(self, record: LocalChannelRecord) -> bool:
        """Draw this node's outgoing backup-path link from the spare pool;
        on exhaustion, declare a multiplexing failure (Section 3.3)."""
        # The topology's own interned id: the runtime keys its draws on it
        # and the record may keep it, so nothing is built per draw.
        link = self._topology.link(self.node, record.downstream)
        drawn, preempted = self.runtime.try_draw(link, record)
        for victim_id in preempted:
            self._preempt(victim_id)
        if drawn:
            record.mux_failed_link = None
            return True
        record.mux_failed_link = link
        # Spare exhausted: the backup cannot function (mux failure).  The
        # channel enters U and both end-nodes are told, exactly like a
        # component failure (Section 4.1).
        self._enter_unhealthy(record)
        self._metrics.note_mux_failure(
            record.connection_id, record.channel_id, link, self._engine.now
        )
        if self._log.active:
            self._point(
                "mux-failure", record.connection_id,
                channel=record.channel_id, link=str(link),
            )
        self._emit_report(record, Direction.TO_SOURCE, link, mux_failure=True)
        self._emit_report(record, Direction.TO_DESTINATION, link, mux_failure=True)
        return False

    def _preempt(self, channel_id: int) -> None:
        """A lower-priority activated backup lost its spare to a
        higher-priority activation; handle exactly like a failure
        (Section 4.3: "preempted channels are handled as if they were
        disabled by component failures")."""
        record = self.records.get(channel_id)
        if record is None:
            return
        if record.state is LocalChannelState.PRIMARY:
            self._enter_unhealthy(record)
        if self._log.active:
            self._point("preemption", record.connection_id, channel=channel_id)
        self._metrics.note_preemption(
            record.connection_id, channel_id, self._engine.now
        )
        self._emit_report(record, Direction.TO_SOURCE, None)
        self._emit_report(record, Direction.TO_DESTINATION, None)

    # -- rejoin (Section 4.4) ---------------------------------------------
    def _receive_rejoin_request(
        self, record: LocalChannelRecord, message: RejoinRequest
    ) -> None:
        if record.state is LocalChannelState.NON_EXISTENT:
            return  # torn down; the request dies here
        if message.direction is Direction.TO_SOURCE:
            # A repair hint: the source probes if it still has something
            # to heal; no record changes state on the way up.
            if not record.is_source:
                self._send(record.upstream, message)
            elif record.state is LocalChannelState.UNHEALTHY:
                self._receive_rejoin_request(
                    record, RejoinRequest(channel_id=record.channel_id))
            return
        if record.mux_failed_link is not None:
            # Healing a multiplexing failure needs the spare back
            # (Section 4.4); if the pool is still dry, drop the request.
            drawn, _ = self.runtime.try_draw(
                record.mux_failed_link, record, allow_preemption=False,
            )
            if not drawn:
                return
            # The channel is only rejoining as a *standby*; give the unit
            # straight back so the pool sizing reflects a backup again.
            self.runtime.release_draw(record.mux_failed_link, record.channel_id)
            record.mux_failed_link = None
        if record.is_destination:
            if record.state is LocalChannelState.UNHEALTHY:
                record.transition(LocalChannelState.BACKUP, ChannelEvent.REJOIN)
                self._cancel_rejoin_timer(record.channel_id)
                self._refresh_view_after_rejoin(record)
            next_hop = record.upstream
            if next_hop is not None:
                self._send(next_hop, RejoinConfirm(channel_id=record.channel_id))
            return
        self._send(record.downstream, message)

    def _receive_rejoin_confirm(
        self, record: LocalChannelRecord, message: RejoinConfirm
    ) -> None:
        if record.state is LocalChannelState.NON_EXISTENT:
            # Rejoin timer already expired here: resources are gone, so the
            # repair must be undone along the rest of the path (Fig. 6).
            if record.downstream is not None:
                self._send(record.downstream,
                           ChannelClosure(channel_id=record.channel_id))
            return
        healed = record.state is LocalChannelState.UNHEALTHY
        if healed:
            record.transition(LocalChannelState.BACKUP, ChannelEvent.REJOIN)
            self._cancel_rejoin_timer(record.channel_id)
        if not record.is_source:
            self._send(record.upstream, message)
            return
        self._refresh_view_after_rejoin(record)
        if healed:
            # The channel's rejoin, counted once: where the source
            # leaves U.
            self._metrics.note_rejoined(
                record.connection_id, record.channel_id, self._engine.now
            )
            if self._log.active:
                self._point("rejoined", record.connection_id,
                            channel=record.channel_id)

    def _refresh_view_after_rejoin(self, record: LocalChannelRecord) -> None:
        """Update this endpoint's connection view when a channel heals: it
        is healthy again, re-attemptable, and offered as a backup even if
        it was the original primary."""
        view = self.views.get(record.connection_id)
        if view is None:
            return
        view.unhealthy.discard(record.channel_id)
        view.attempted.discard(record.channel_id)
        if all(info.channel_id != record.channel_id for info in view.backups):
            view.backups.append(
                BackupInfo(
                    channel_id=record.channel_id,
                    serial=record.serial,
                    mux_degree=record.mux_degree,
                )
            )
        if (
            view.current_channel in view.unhealthy
            and not view.recovering
            and self._initiates_activation(view)
        ):
            # Service is down at this end (every backup was exhausted in an
            # earlier round) and a channel just healed into standby:
            # restore service over it with a fresh handshake round instead
            # of staying adrift on an abandoned channel.
            view.episode += 1
            if self._counting:
                self._c_so_episodes.inc()
            if self._log.active:
                self._point("switchover-restore", record.connection_id,
                            channel=record.channel_id)
            self._initiate_recovery(view)

    def _receive_closure(
        self, record: LocalChannelRecord, message: ChannelClosure
    ) -> None:
        if record.state is not LocalChannelState.NON_EXISTENT:
            record.transition(LocalChannelState.NON_EXISTENT, ChannelEvent.CLOSE)
            self._cancel_rejoin_timer(record.channel_id)
            pending = self._pending.get(record.connection_id)
            if pending is not None and pending.backup.channel_id == record.channel_id:
                self._cancel_pending(record.connection_id)
            self.runtime.release_channel_at_node(record)
        if record.downstream is not None:
            self._send(record.downstream, message)
