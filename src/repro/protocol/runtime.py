"""The protocol simulation runtime.

:class:`ProtocolSimulation` wires the event kernel, per-node BCP daemons,
and per-link RCC channels up from a loaded
:class:`~repro.core.bcp.BCPNetwork`, injects component failures/repairs,
and records :class:`ProtocolMetrics` — most importantly each connection's
*service-disruption time*, the quantity bounded in Section 5.3.

Resource semantics during recovery follow Section 4: each activation draws
the channel's bandwidth from the link's spare pool; exhausted pools cause
multiplexing failures; with preemption enabled (Section 4.3) a
higher-priority activation may evict an already-activated lower-priority
backup from a congested link.

A simulation is an ownership tree: it owns the engine, the daemons, the
RCC links and the per-run tables, and nothing it owns holds it (or a
sibling that leads back to it) strongly — see :class:`~repro.protocol.
daemon.BCPDaemon` and :class:`~repro.protocol.rcc.RCCLink` for where the
back-edges go weak.  Once its calendar has drained, dropping the last
reference frees the whole run by reference count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channels.channel import Channel
from repro.core.bcp import BCPNetwork
from repro.core.plan import network_plan
from repro.faults.models import FailureScenario
from repro.network.components import LinkId, NodeId
from repro.obs.registry import MetricsRegistry, get_registry, get_trace_sink
from repro.protocol.config import ProtocolConfig
from repro.protocol.daemon import BCPDaemon
from repro.protocol.plan import node_tables
from repro.protocol.rcc import RCCLink
from repro.protocol.states import LocalChannelRecord
from repro.sim.engine import EventEngine
from repro.sim.trace import TraceLog


@dataclass(slots=True)
class RecoveryRecord:
    """Per-connection recovery trace."""

    connection_id: int
    #: When the failure disabling the (current) primary was injected.
    failed_at: float | None = None
    #: When an end-node first learned of the failure.
    informed_at: float | None = None
    #: Activation attempts: serial -> time the source resumed service for
    #: that attempt (sent its activation, or received the destination's).
    attempts: dict[int, float] = field(default_factory=dict)
    #: Serial of the backup whose activation completed end-to-end.
    recovered_serial: int | None = None
    #: When that backup became fully active on every hop.
    completed_at: float | None = None
    unrecoverable: bool = False
    endpoint_failed: bool = False
    mux_failures: int = 0

    @property
    def recovered(self) -> bool:
        return self.recovered_serial is not None

    @property
    def service_disruption(self) -> float | None:
        """Failure injection to source-side service resumption — the
        paper's recovery delay Γ (Section 5.3)."""
        if self.failed_at is None or self.recovered_serial is None:
            return None
        resumed = self.attempts.get(self.recovered_serial)
        if resumed is None:
            return None
        return resumed - self.failed_at


class ProtocolMetrics:
    """Event-level counters and per-connection recovery traces.

    Besides the in-object counters/records the class mirrors every event
    into a :class:`~repro.obs.MetricsRegistry` under ``protocol.*``
    (counters) and records each connection's measured recovery delay
    into the ``protocol.recovery_delay`` histogram — the paper's Γ
    distribution (Section 5.3)."""

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.recoveries: dict[int, RecoveryRecord] = {}
        self.preemptions = 0
        self.rejoins = 0
        #: channel id -> when its latest rejoin reached its source.
        self.rejoined_at: dict[int, float] = {}
        self.mux_failures = 0
        self.unrecoverable = 0
        obs = registry if registry is not None else get_registry()
        #: With a no-op registry the instruments are not called at all.
        self._counting = obs.enabled
        self._c_primary_failed = obs.counter("protocol.primary_failures")
        self._c_informed = obs.counter("protocol.endpoint_informed")
        self._c_activations = obs.counter("protocol.activations")
        self._c_recoveries = obs.counter("protocol.recoveries")
        self._c_mux_failures = obs.counter("protocol.mux_failures")
        self._c_unrecoverable = obs.counter("protocol.unrecoverable")
        self._c_preemptions = obs.counter("protocol.preemptions")
        self._c_rejoins = obs.counter("protocol.rejoins")
        self._h_recovery_delay = obs.histogram("protocol.recovery_delay")
        self._h_inform_delay = obs.histogram("protocol.inform_delay")

    def _record(self, connection_id: int) -> RecoveryRecord:
        record = self.recoveries.get(connection_id)
        if record is None:
            record = RecoveryRecord(connection_id=connection_id)
            self.recoveries[connection_id] = record
        return record

    # -- hooks called by the runtime and daemons -------------------------
    def note_primary_failed(
        self, connection_id: int, time: float, endpoint_failed: bool
    ) -> None:
        """Record that a connection's primary was hit (first time wins)."""
        record = self._record(connection_id)
        if record.failed_at is None:
            record.failed_at = time
            if self._counting:
                self._c_primary_failed.inc()
        record.endpoint_failed = record.endpoint_failed or endpoint_failed

    def note_endpoint_informed(
        self, connection_id: int, channel_id: int, time: float
    ) -> None:
        """Record when an end-node first learned of the failure."""
        record = self._record(connection_id)
        if record.informed_at is None:
            record.informed_at = time
            if self._counting:
                self._c_informed.inc()
                if record.failed_at is not None:
                    self._h_inform_delay.record(time - record.failed_at)

    def note_activation_sent(
        self, connection_id: int, serial: int, time: float
    ) -> None:
        """Record the source dispatching an activation for ``serial``."""
        record = self._record(connection_id)
        if serial not in record.attempts:
            record.attempts[serial] = time
            if self._counting:
                self._c_activations.inc()

    def note_source_resumed(
        self, connection_id: int, serial: int, time: float
    ) -> None:
        """Record a destination-initiated activation reaching the source."""
        # Scheme 1/3: the destination's activation reached the source.
        record = self._record(connection_id)
        if serial not in record.attempts:
            record.attempts[serial] = time
            if self._counting:
                self._c_activations.inc()

    def note_completed(self, connection_id: int, serial: int, time: float) -> None:
        """Record a backup becoming fully active end to end."""
        record = self._record(connection_id)
        if record.recovered_serial is None:
            record.recovered_serial = serial
            record.completed_at = time
            if self._counting:
                self._c_recoveries.inc()
                disruption = record.service_disruption
                if disruption is not None:
                    self._h_recovery_delay.record(disruption)

    def note_mux_failure(
        self, connection_id: int, channel_id: int, link: LinkId, time: float
    ) -> None:
        """Count a multiplexing failure on ``link``."""
        self.mux_failures += 1
        if self._counting:
            self._c_mux_failures.inc()
        self._record(connection_id).mux_failures += 1

    def note_unrecoverable(
        self, connection_id: int, time: float, node: NodeId
    ) -> None:
        """Record that an end-node ran out of backups."""
        record = self._record(connection_id)
        if not record.unrecoverable:
            record.unrecoverable = True
            self.unrecoverable += 1
            if self._counting:
                self._c_unrecoverable.inc()

    def note_preemption(
        self, connection_id: int, channel_id: int, time: float
    ) -> None:
        """Count a lower-priority backup losing its spare."""
        self.preemptions += 1
        if self._counting:
            self._c_preemptions.inc()

    def note_rejoined(
        self, connection_id: int, channel_id: int, time: float
    ) -> None:
        """Count a channel healing via the rejoin machinery (once per
        U -> B rejoin: the source calls this as it leaves U)."""
        self.rejoins += 1
        self.rejoined_at[channel_id] = time
        if self._counting:
            self._c_rejoins.inc()

    # -- summaries --------------------------------------------------------
    def service_disruptions(self) -> dict[int, float]:
        """Connection id -> measured service-disruption time, for every
        connection that recovered via a backup."""
        result = {}
        for connection_id, record in self.recoveries.items():
            disruption = record.service_disruption
            if disruption is not None:
                result[connection_id] = disruption
        return result

    def recovered_count(self) -> int:
        """Number of connections recovered via a backup."""
        return sum(1 for record in self.recoveries.values() if record.recovered)

    def max_service_disruption(self) -> float | None:
        """Worst measured disruption, or ``None`` if none recovered."""
        disruptions = self.service_disruptions()
        return max(disruptions.values()) if disruptions else None


class ProtocolSimulation:
    """A running BCP network: daemons + RCC links over an event kernel."""

    #: The per-node agent every node of this runtime runs.
    daemon_class = BCPDaemon
    #: The control channel every link of this runtime runs.
    rcc_class = RCCLink

    def __init__(
        self,
        network: BCPNetwork,
        config: ProtocolConfig | None = None,
        seed: "int | None" = 0,
        trace: "TraceLog | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.network = network
        self.config = config or ProtocolConfig()
        #: The run's seed.  The protocol draws nothing at random, so it
        #: only names the run; randomness planted on a run seeds from it.
        self.seed = seed
        #: Metrics registry every layer of this runtime records into
        #: (session default unless one is passed explicitly).
        self.obs = metrics if metrics is not None else get_registry()
        self.engine = EventEngine(metrics=self.obs)
        self.metrics = ProtocolMetrics(self.obs)
        if trace is None:
            trace = get_trace_sink()
        #: The log every step of this run is recorded into: the one
        #: passed, else the session's sink (the CLI's --trace-out, so the
        #: whole run exports as one timeline), else one that keeps
        #: nothing.
        self.trace = trace if trace is not None else TraceLog(keep=0)
        #: connection id -> open ``episode`` span id.
        self._episode_spans: dict[int, int] = {}
        #: Every failed node and link.  Daemons and RCC links read this very
        #: set, so it is mutated in place and never rebound.
        self.failed_components: set = set()

        #: What establishment installed, compiled once per network state
        #: and pinned here: this simulation keeps running on it even if
        #: the network is changed afterwards.
        self.plan = network_plan(network)
        #: node -> what establishment installed there (the plan's own).
        self.tables = node_tables(self.plan, network.topology.nodes())
        #: link -> the RCC on it; the daemons send on this very map.
        self._rcc: dict[LinkId, RCCLink] = {}
        self.daemons: dict[NodeId, BCPDaemon] = {
            node: self.daemon_class(node, self)
            for node in network.topology.nodes()
        }
        for link in network.topology.links():
            self._rcc[link] = self.rcc_class(
                engine=self.engine,
                link=link,
                config=self.config,
                failed=self.failed_components,
                receiver=self.daemons[link.dst],
                metrics=self.obs,
            )
        for link, rcc in self._rcc.items():
            rcc.reverse = self._rcc.get(link.reversed())

        # Spare pools and draw bookkeeping.
        self._spare_pools = network.ledger.snapshot_spares()
        self._draws: dict[LinkId, dict[int, float]] = {}
        self._drawn_links: dict[int, set[LinkId]] = {}
        #: Links where a channel holds a *dedicated* reservation (its
        #: original primary reservation, or spare converted by a completed
        #: activation, Section 4.4).  Activating over an owned link needs
        #: no spare draw — this is what lets a repaired-and-rejoined
        #: channel be re-activated without new resources.  Filled by
        #: :meth:`_owned` as channels are touched.
        self._owned_links: dict[int, set[LinkId]] = {}

    # ------------------------------------------------------------------
    # health model
    # ------------------------------------------------------------------
    def node_up(self, node: NodeId) -> bool:
        """Whether ``node`` is currently healthy."""
        return node not in self.failed_components

    def link_up(self, link: LinkId) -> bool:
        """Whether ``link`` and both its endpoints are healthy."""
        return (
            link not in self.failed_components
            and link.src not in self.failed_components
            and link.dst not in self.failed_components
        )

    # ------------------------------------------------------------------
    # spare-pool draws
    # ------------------------------------------------------------------
    def spare_remaining(self, link: LinkId) -> float:
        """Undrawn spare currently left on ``link``."""
        drawn = sum(self._draws.get(link, {}).values())
        return self._spare_pools.get(link, 0.0) - drawn

    def try_draw(
        self,
        link: LinkId,
        record: LocalChannelRecord,
        allow_preemption: "bool | None" = None,
    ) -> tuple[bool, list[int]]:
        """Draw ``record``'s channel's bandwidth from ``link``'s spare pool.

        Returns ``(drawn, preempted_channel_ids)``.  With preemption
        enabled, activated backups of strictly lower priority (larger mux
        degree) are evicted one by one until the draw fits or no victims
        remain (Section 4.3).
        """
        channel_id = record.channel_id
        bandwidth = record.bandwidth
        if link in self._owned(record):
            # The channel still holds its dedicated reservation here (an
            # original primary that was repaired and rejoined): no spare
            # draw needed.
            self._note_link_active(record, link)
            return True, []
        draws_here = self._draws.setdefault(link, {})
        if channel_id in draws_here:
            return True, []
        preempt = self.config.preemption if allow_preemption is None else (
            allow_preemption and self.config.preemption
        )
        victims: list[int] = []
        while self.spare_remaining(link) + 1e-9 < bandwidth:
            if not preempt:
                return False, victims
            victim = self._pick_victim(link, record.mux_degree)
            if victim is None:
                return False, victims
            victims.append(victim)
            self.release_draw(link, victim)
        draws_here[channel_id] = bandwidth
        self._note_link_active(record, link)
        return True, victims

    def _owned(self, record: LocalChannelRecord) -> set[LinkId]:
        """This simulation's own set of the links ``record``'s channel
        holds a dedicated reservation on, seeded on first touch: a
        primary's path, nothing for a backup."""
        owned = self._owned_links.get(record.channel_id)
        if owned is None:
            owned = self._owned_links[record.channel_id] = (
                set() if record.serial else set(record.path.links)
            )
        return owned

    def _note_link_active(self, record: LocalChannelRecord,
                          link: LinkId) -> None:
        drawn_links = self._drawn_links.setdefault(record.channel_id, set())
        drawn_links.add(link)
        connection_id, serial = record.connection_id, record.serial
        if len(drawn_links) == record.path.hops:
            self.metrics.note_completed(connection_id, serial, self.engine.now)
            if self.trace.active:
                self.trace.point(
                    "recovered", link.src, self.engine.now,
                    parent=self.episode_parent(connection_id),
                    connection=connection_id, serial=serial,
                )
                recovery = self.metrics.recoveries.get(connection_id)
                if recovery is not None and recovery.recovered_serial == serial:
                    # The episode ends when the *source* resumed service
                    # (the paper's Γ endpoint), which precedes the final
                    # hop's draw completing here.
                    resumed = recovery.attempts.get(serial, self.engine.now)
                    self.end_episode(
                        connection_id, resumed,
                        outcome="recovered", serial=serial,
                        completed=self.engine.now,
                    )
            # The activated channel's bandwidth is now dedicated to it
            # (spare converted to primary, Section 4.4).
            self._owned(record).update(drawn_links)

    def _pick_victim(self, link: LinkId, degree: int) -> "int | None":
        """Lowest-priority (largest mux degree) channel drawing on ``link``
        whose priority is strictly below ``degree`` — the preemption victim
        of Section 4.3, or ``None``."""
        best: "int | None" = None
        best_degree = degree
        # Every channel drawing on the link holds its record at the
        # link's source.
        records = self.daemons[link.src].records
        for cid in self._draws.get(link, ()):
            cid_degree = records[cid].mux_degree
            if cid_degree > best_degree:
                best = cid
                best_degree = cid_degree
        return best

    def release_draw(self, link: LinkId, channel_id: int) -> None:
        """Return a channel's draw on ``link`` to the pool."""
        draws_here = self._draws.get(link)
        if draws_here is not None:
            draws_here.pop(channel_id, None)
        drawn_links = self._drawn_links.get(channel_id)
        if drawn_links is not None:
            drawn_links.discard(link)

    def release_channel_at_node(self, record: LocalChannelRecord) -> None:
        """Soft-state teardown hook: release the outgoing draw and
        dedicated reservation of ``record``'s channel at its node
        (rejoin-timer expiry or a late-rejoin closure)."""
        channel_id, node = record.channel_id, record.node
        drawn_links = self._drawn_links.get(channel_id)
        if drawn_links:
            for link in list(drawn_links):
                if link.src == node:
                    self.release_draw(link, channel_id)
        owned = self._owned(record)
        for link in list(owned):
            if link.src == node:
                owned.discard(link)

    # ------------------------------------------------------------------
    # control-plane accounting (Section 5.2's overhead view)
    # ------------------------------------------------------------------
    def rcc_totals(self) -> dict[str, int]:
        """Network-wide RCC transport counters, summed over all links."""
        totals = {
            "messages_sent": 0,
            "messages_delivered": 0,
            "frames_sent": 0,
            "frames_delivered": 0,
            "frames_lost": 0,
            "retransmissions": 0,
            "duplicates_dropped": 0,
            "gave_up": 0,
        }
        for rcc in self._rcc.values():
            stats = rcc.stats
            for key in totals:
                totals[key] += getattr(stats, key)
        return totals

    def worst_control_delay(self) -> float:
        """Largest per-hop control-message delay observed anywhere — the
        quantity Section 5.2's sizing rule bounds by D_max."""
        return max(
            (rcc.stats.max_message_delay for rcc in self._rcc.values()),
            default=0.0,
        )

    # ------------------------------------------------------------------
    # recovery-episode spans
    # ------------------------------------------------------------------
    def _begin_episode(self, channels: "tuple[Channel, ...]", component,
                       now: float) -> None:
        """Open the ``episode`` span of the connection of ``channels`` at
        the failed component (first failure wins; callers guard on
        ``self.trace.active``).

        The span carries the connection's (K, b, D_max) configuration so
        an offline reader can check the episode against the analytic Γ
        bound without the network object.
        """
        connection_id = channels[0].connection_id
        if connection_id in self._episode_spans:
            return
        self._episode_spans[connection_id] = self.trace.begin(
            "episode", component, now,
            connection=connection_id,
            k_hops=max(channel.path.hops for channel in channels),
            num_backups=max(1, len(channels) - 1),
            d_max=self.config.rcc.max_delay,
        )

    def episode_parent(self, connection_id: int) -> "int | None":
        """The open episode span id for a connection, if any — daemons
        file their detect/report/activate rows under it."""
        return self._episode_spans.get(connection_id)

    def end_episode(self, connection_id: int, t_end: float,
                    **attrs: object) -> None:
        """Close the connection's open episode span (no-op when none)."""
        span_id = self._episode_spans.pop(connection_id, None)
        if span_id is not None:
            self.trace.end(span_id, t_end, **attrs)

    # ------------------------------------------------------------------
    # failure and repair injection
    # ------------------------------------------------------------------
    def _require_component(self, component) -> None:
        topology = self.network.topology
        if component not in topology:
            kind = "link" if isinstance(component, LinkId) else "node"
            raise ValueError(
                f"{kind} {component} is not a component of {topology.name}"
            )

    def fail(self, component, at: float) -> None:
        """Schedule a component crash at absolute time ``at``.

        Raises ``ValueError`` (and schedules nothing) for a node or link
        the topology does not have."""
        self._require_component(component)
        self.engine.schedule_at(at, self._apply_failure, component)

    def repair(self, component, at: float) -> None:
        """Schedule a component repair at absolute time ``at``.

        Raises ``ValueError`` (and schedules nothing) for a node or link
        the topology does not have."""
        self._require_component(component)
        self.engine.schedule_at(at, self._apply_repair, component)

    def _apply_repair(self, component) -> None:
        self.failed_components.discard(component)
        if not isinstance(component, LinkId):
            daemon = self.daemons.get(component)
            if daemon is not None:
                daemon.on_repaired()
        if self.trace.active:
            self.trace.point("repair", component, self.engine.now)
        # A repair is detected as a failure is (Section 5.3's premise,
        # both ways): each live neighbour is told in an event of its own,
        # and starts the rejoin of what it hosts over the component.
        for neighbour in self._neighbours_of(component):
            self.engine.schedule(
                0.0, self.daemons[neighbour].on_component_repaired, component
            )

    def inject_scenario(self, scenario: FailureScenario, at: float) -> None:
        """Crash every component of ``scenario`` at time ``at``.

        Raises ``ValueError`` before scheduling anything if the scenario
        names a node or link the topology does not have."""
        components = (*scenario.failed_nodes, *scenario.failed_links)
        for component in components:
            self._require_component(component)
        for component in components:
            self.engine.schedule_at(at, self._apply_failure, component)

    def _apply_failure(self, component) -> None:
        if component in self.failed_components:
            return
        self.failed_components.add(component)
        now = self.engine.now
        trace = self.trace
        if trace.active:
            trace.point("failure", component, now)
        if not isinstance(component, LinkId):
            # A dead node holds no timers and transmits nothing: disarm its
            # rejoin timers and halt every outgoing RCC so events
            # armed before the crash cannot fire callbacks after it.
            daemon = self.daemons.get(component)
            if daemon is not None:
                daemon.on_crashed()
            for link in self.network.topology.incident_links(component):
                if link.src == component:
                    self._rcc[link].halt()
        # Metrics: which connections lost their primary to this component?
        for channels in self._hit_by(component):
            path = channels[0].path
            connection_id = channels[0].connection_id
            endpoint_failed = (
                path.source in self.failed_components
                or path.destination in self.failed_components
            )
            self.metrics.note_primary_failed(
                connection_id, now, endpoint_failed
            )
            if trace.active:
                self._begin_episode(channels, component, now)
                # A failure landing while recovery is already in flight
                # shows up as a child of the open episode, so the offline
                # Γ check can date its clock from the *latest* triggering
                # failure rather than the first.
                trace.point(
                    "primary-failed", component, now,
                    parent=self.episode_parent(connection_id),
                    connection=connection_id,
                )
        # Detection is immediate (Section 5.3): the paper assumes an
        # external detector ([HAN97a]).  This notice is the only one: an
        # RCC frame that exhausts its resends is dropped, not a verdict.
        # Each neighbour still learns in an event of its own, queued
        # behind any failure already scheduled for the same instant.
        for neighbour in self._neighbours_of(component):
            self.engine.schedule(
                0.0, self.daemons[neighbour].on_component_failure, component
            )

    def _hit_by(self, component) -> "list[tuple[Channel, ...]]":
        """The channels of each connection whose primary crosses
        ``component`` — the plan's answer, the evaluator's too."""
        plan = self.plan
        return [plan.channels(position)
                for position in plan.primaries_on(component)]

    def _neighbours_of(self, component) -> list[NodeId]:
        topology = self.network.topology
        if isinstance(component, LinkId):
            return [node for node in component.endpoints() if self.node_up(node)]
        neighbours = set(topology.successors(component)) | set(
            topology.predecessors(component)
        )
        return [node for node in neighbours if self.node_up(node)]

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Run the event loop; returns the final simulation time."""
        if not self.trace.active:
            return self.engine.run(until=until)
        span = self.trace.begin("run", None, self.engine.now, until=until)
        final = self.engine.run(until=until)
        self.trace.end(span, final, events=self.engine.events_processed)
        return final


def simulate_scenario(
    network: BCPNetwork,
    scenario: FailureScenario,
    config: ProtocolConfig | None = None,
    failure_time: float = 1.0,
    horizon: float = 500.0,
) -> ProtocolMetrics:
    """Convenience wrapper: inject one scenario into a fresh runtime on
    the session registry, run to ``horizon``, return the metrics."""
    simulation = ProtocolSimulation(network, config)
    simulation.inject_scenario(scenario, failure_time)
    simulation.run(until=horizon)
    return simulation.metrics
