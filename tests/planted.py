"""Planted bugs: the protocol with one load-bearing guard taken out.

BCP's guarantees rest on guards the paper only sketches.  The tests prove
three of them are load-bearing by running the product *without* them and
requiring the invariant auditor to catch the damage (and, for the first
two, the ddmin shrinker to reduce it to a few events):

* :class:`DoubleReleaseSimulation` — releasing an activation draw also
  credits the bandwidth back into the runtime's spare pool (a spare-pool
  double-release, against the reconfiguration of Section 4.4).  The
  auditor's ``reservation-conservation`` check must flag the drift.
* :class:`UnguardedSwitchover` — the switchover handshake as it stood
  before its hardening (Section 4.2's serial-number rule): no
  episode/serial staleness rejection, no stale-primary demotion, no
  activation ack/retry layer, no duplicate-report suppression, no
  reconciliation after an end-node repair.  Regional/cascade chaos
  schedules then drive the end-nodes into ``multiple-active`` /
  ``endpoint-disagreement`` violations.
* :class:`RepairDeaf` — a daemon that ignores the runtime's repair
  notices (Section 4.4's rejoin has no other trigger).  The auditor's
  ``repair-not-rejoined`` check must flag each channel it leaves in U.

Beside them, :class:`LossySimulation` plants random frame loss on every
RCC link (:class:`LossyLink`), and :func:`retransmission_budget` moves
the RCC's resend limit: fault injection no runtime of ``src/`` turns on.
The product's links lose a frame only while the link or an endpoint is
down.

They live here — not in ``src/`` — so the product has one path and no
switch that selects a wrong one.  Everything not overridden below is the
product code itself.  :func:`plant` points the chaos engine at a variant,
so campaigns, shrinking and artifact replays run under it.
"""

from __future__ import annotations

from repro.protocol.daemon import BackupInfo, BCPDaemon, EndpointView
from repro.protocol.messages import (
    ActivationMessage,
    Direction,
    FailureReport,
)
from repro.protocol.rcc import RCCLink
from repro.protocol.runtime import ProtocolSimulation
from repro.protocol.states import (
    ChannelEvent,
    LocalChannelRecord,
    LocalChannelState,
)
from repro.util.rng import make_rng
from tests.protocol_oracle import OracleDaemon, OracleSimulation


class DoubleReleaseSimulation(ProtocolSimulation):
    """Releasing a draw credits the spare pool a second time."""

    def release_draw(self, link, channel_id: int) -> None:
        released = self._draws.get(link, {}).get(channel_id)
        super().release_draw(link, channel_id)
        if released is not None:
            # The draw is returned implicitly by leaving the pool
            # untouched, so also crediting the pool releases twice.
            self._spare_pools[link] = (
                self._spare_pools.get(link, 0.0) + released
            )


class LossyLink(RCCLink):
    """An RCC link that also loses each frame it launches on a live link
    with probability ``loss``.  Its generator is seeded with ``seed`` and
    built on the first frame that can be lost, so a loss-free link builds
    none and a frame on a dead link draws nothing."""

    __slots__ = ("loss", "seed", "_rng")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.loss = 0.0
        self.seed = 0
        self._rng = None

    def _launch(self, frame) -> None:
        if self.loss > 0 and self._failed.isdisjoint(self._parts):
            if self._rng is None:
                self._rng = make_rng(self.seed)
            if self._rng.random() < self.loss:
                # Counted as the product counts a frame on a dead link.
                self.stats.frames_sent += 1
                self.stats.frames_lost += 1
                if self._counting:
                    self._m_frames.inc()
                    self._m_lost.inc()
                return
        super()._launch(frame)


class Lossy:
    """Simulation mixin: every RCC link is a :class:`LossyLink` losing
    frames with probability ``loss``.  The links' seeds are drawn from the
    run's seed in topology link order, so a seeded run loses the same
    frames on every replay."""

    rcc_class = LossyLink

    def __init__(self, *args, loss: float, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        rng = make_rng(self.seed)
        for link in self.network.topology.links():
            rcc = self._rcc[link]
            rcc.loss = loss
            rcc.seed = rng.getrandbits(64)


class LossySimulation(Lossy, ProtocolSimulation):
    pass


class LossyOracleSimulation(Lossy, OracleSimulation):
    pass


def retransmission_budget(monkeypatch, budget: int) -> None:
    """Resend an unacked RCC frame at most ``budget`` times for the rest
    of the test."""
    monkeypatch.setattr("repro.protocol.rcc.MAX_RETRANSMISSIONS", budget)


class UnguardedSwitchover:
    """Daemon mixin carrying the pre-hardening switchover bodies, over
    either the product daemon or the oracle daemon."""

    def on_repaired(self) -> None:
        # Re-arm soft-state expiry only; the views stay as the crash
        # froze them.  (The product's lazy table reads what was touched,
        # the oracle's plain dict everything.)
        records = self.records
        for record in getattr(records, "touched", records.values)():
            if record.state is LocalChannelState.UNHEALTHY:
                self._start_rejoin_timer(record)

    def _end_node_learns_failure(
        self, record: LocalChannelRecord, report: FailureReport
    ) -> None:
        view = self.views.get(record.connection_id)
        if view is None:  # pragma: no cover - every endpoint has a view
            return
        view.unhealthy.add(record.channel_id)
        self.runtime.metrics.note_endpoint_informed(
            record.connection_id, record.channel_id, self.runtime.engine.now
        )
        if self._log.active:
            self._point(
                "informed", record.connection_id,
                channel=record.channel_id, role=view.role,
            )
        if record.channel_id != view.current_channel:
            return  # a standby backup failed; health table updated, done
        if not self._initiates_activation(view):
            return
        self._initiate_recovery(view)

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
        direction = (
            Direction.TO_DESTINATION if view.role == "source"
            else Direction.TO_SOURCE
        )
        if view.role == "source":
            self.runtime.metrics.note_activation_sent(
                view.connection_id, backup.serial, self.runtime.engine.now
            )
        if record.state is not LocalChannelState.BACKUP:
            # Already promoted by the other end's activation sweeping the
            # whole path, or already failed; nothing to send.
            return
        record.transition(LocalChannelState.PRIMARY, ChannelEvent.ACTIVATE)
        # The endpoint draws its own outgoing link (the source end);
        # the destination end owns no forward link on the channel.
        if view.role == "source":
            if not self._draw_or_mux_fail(record):
                return
        next_hop = self._next_hop(record, direction)
        if next_hop is not None:
            self._send(
                next_hop,
                ActivationMessage(
                    channel_id=backup.channel_id,
                    direction=direction,
                    connection_id=view.connection_id,
                    serial=backup.serial,
                    episode=view.episode,
                ),
            )

    def _receive_activation(
        self, record: LocalChannelRecord, message: ActivationMessage
    ) -> None:
        """No episode/serial staleness guard, no demotion, no acks — and a
        crossing sweep dies at the first already-primary record."""
        if record.state is LocalChannelState.UNHEALTHY:
            return  # Fig. 4: activation in U is ignored
        if record.state is LocalChannelState.PRIMARY:
            return  # already activated from the other end; discard
        if record.state is LocalChannelState.NON_EXISTENT:
            return
        record.transition(LocalChannelState.PRIMARY, ChannelEvent.ACTIVATE)
        if record.is_source:
            # Scheme 1/3: the destination-initiated activation reached the
            # source; the source can now resume data transfer.
            view = self.views.get(record.connection_id)
            if view is not None:
                view.current_channel = record.channel_id
                view.attempted.add(record.channel_id)
            self.runtime.metrics.note_source_resumed(
                record.connection_id, record.serial, self.runtime.engine.now
            )
            if self._log.active:
                self._point("resumed", record.connection_id,
                            serial=record.serial)
        if not record.is_destination:
            if not self._draw_or_mux_fail(record):
                return
        next_hop = self._next_hop(record, message.direction)
        if next_hop is not None:
            self._send(next_hop, message)

    def _refresh_view_after_rejoin(self, record: LocalChannelRecord) -> None:
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


class RepairDeaf:
    """Daemon mixin that is never told of a repair on a channel's path:
    a channel then heals only when its own source is the repaired node."""

    def on_component_repaired(self, component) -> None:
        return


class RepairDeafDaemon(RepairDeaf, BCPDaemon):
    pass


class RepairDeafOracleDaemon(RepairDeaf, OracleDaemon):
    pass


class RepairDeafSimulation(ProtocolSimulation):
    daemon_class = RepairDeafDaemon


class RepairDeafOracleSimulation(OracleSimulation):
    daemon_class = RepairDeafOracleDaemon


class UnguardedDaemon(UnguardedSwitchover, BCPDaemon):
    pass


class UnguardedOracleDaemon(UnguardedSwitchover, OracleDaemon):
    pass


class UnguardedSimulation(ProtocolSimulation):
    daemon_class = UnguardedDaemon


class UnguardedOracleSimulation(OracleSimulation):
    daemon_class = UnguardedOracleDaemon


def plant(monkeypatch, simulation_class) -> None:
    """Run the chaos engine on ``simulation_class`` for the rest of the
    test: ``run_schedule`` and everything built on it (campaigns — fork
    workers inherit the patched module — shrinking, artifact replays,
    ``repro chaos``) construct that class instead of the product's."""
    monkeypatch.setattr(
        "repro.chaos.engine.ProtocolSimulation", simulation_class
    )
