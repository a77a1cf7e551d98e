"""Reference oracle for the plan-driven :class:`ProtocolSimulation`.

This is the protocol runtime as it stood before the compiled protocol
plan: every simulation eagerly installs a :class:`LocalChannelRecord` at
every node of every channel and an :class:`EndpointView` at both ends of
every connection (``_install_channels`` via ``register_channel`` /
``register_endpoint``), the daemon's four whole-node operations scan
every record it holds, and the auditor sweeps every record and view.  It
is slow and obviously right, and it lives here — not in ``src/`` — so the
product has one construction path and the tests have something
independent to hold it against (``test_protocol_differential``).

Everything else — message handling, draws, RCC, timers — is the product
code itself, run over the eagerly-built plain dicts.
"""

from __future__ import annotations

from repro.channels.channel import ChannelRole
from repro.core.bcp import BCPNetwork
from repro.protocol.daemon import (
    BackupInfo,
    BCPDaemon,
    EndpointView,
    _FailureSide,
)
from repro.protocol.invariants import InvariantAuditor
from repro.protocol.messages import Direction, RejoinRequest
from repro.protocol.runtime import ProtocolSimulation
from repro.protocol.states import (
    ChannelEvent,
    LocalChannelRecord,
    LocalChannelState,
)
from repro.routing.paths import Path


class OracleDaemon(BCPDaemon):
    """A daemon over plain, eagerly-filled dicts that scans all of them."""

    def __init__(self, node, runtime) -> None:
        super().__init__(node, runtime)
        self.table = None  # the oracle reads no index
        self.records: dict[int, LocalChannelRecord] = {}
        self.views: dict[int, EndpointView] = {}

    # -- registration (the old eager install) ----------------------------
    def register_channel(
        self,
        channel_id: int,
        connection_id: int,
        serial: int,
        path: Path,
        mux_degree: int,
        bandwidth: float,
        state: LocalChannelState,
    ) -> LocalChannelRecord:
        record = LocalChannelRecord(
            channel_id=channel_id,
            connection_id=connection_id,
            serial=serial,
            path=path,
            node=self.node,
            mux_degree=mux_degree,
            bandwidth=bandwidth,
        )
        record.transition(state, (
            ChannelEvent.ESTABLISH_PRIMARY
            if state is LocalChannelState.PRIMARY
            else ChannelEvent.ESTABLISH_BACKUP
        ))
        self.records[channel_id] = record
        return record

    def register_endpoint(self, view: EndpointView) -> None:
        self.views[view.connection_id] = view

    # -- the four whole-node scans ----------------------------------------
    def on_component_failure(self, component) -> None:
        if not self._alive():
            return
        for record in list(self.records.values()):
            side = self._relation(record, component)
            if side is None:
                continue
            self._handle_detected_failure(record, side, component)

    def on_component_repaired(self, component) -> None:
        if not self._alive():
            return
        for record in list(self.records.values()):
            if self._relation(record, component) is _FailureSide.DOWNSTREAM:
                self._receive_rejoin_request(record, RejoinRequest(
                    channel_id=record.channel_id,
                    direction=Direction.TO_SOURCE))

    def _demote_stale_primaries(self, record, all_serials: bool = False) -> None:
        for other in self.records.values():
            if (
                other.connection_id != record.connection_id
                or other.channel_id == record.channel_id
                or (not all_serials and other.serial >= record.serial)
                or other.state is not LocalChannelState.PRIMARY
            ):
                continue
            self._enter_unhealthy(other)
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

    def on_repaired(self) -> None:
        for record in self.records.values():
            if record.state is LocalChannelState.UNHEALTHY:
                self._start_rejoin_timer(record)
                if record.is_endpoint:
                    self.views[record.connection_id].unhealthy.add(
                        record.channel_id)
        for view in self.views.values():
            view.unhealthy.add(view.current_channel)
            view.episode += 1
            self._c_so_episodes.inc()
            view.recovering = False
            if self._log.active:
                self._point("switchover-reconcile", view.connection_id,
                            suspect=view.current_channel)
            if view.role == "source":
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


class OracleSimulation(ProtocolSimulation):
    """A :class:`ProtocolSimulation` (same arguments) whose daemons and
    draw bookkeeping are built the old way: fresh, eager, per simulation,
    and whose failures find the primaries they hit in the live registry."""

    daemon_class = OracleDaemon

    def __init__(self, network: BCPNetwork, *args, **kwargs) -> None:
        super().__init__(network, *args, **kwargs)
        self.plan = self.tables = None  # nothing below may read them
        self._owned_links = {}
        _install_channels(self)

    def _owned(self, record) -> set:
        return self._owned_links.setdefault(record.channel_id, set())

    def _hit_by(self, component) -> list:
        network = self.network
        return [
            tuple(network.connection(channel.connection_id).channels)
            for channel in network.registry.on_component(component)
            if channel.role is ChannelRole.PRIMARY
        ]


def _install_channels(simulation: ProtocolSimulation) -> None:
    for connection in simulation.network.connections():
        for channel in connection.channels:
            state = (
                LocalChannelState.PRIMARY
                if channel.role is ChannelRole.PRIMARY
                else LocalChannelState.BACKUP
            )
            if channel.role is ChannelRole.PRIMARY:
                simulation._owned_links[channel.channel_id] = set(
                    channel.path.links
                )
            for node in channel.path.nodes:
                simulation.daemons[node].register_channel(
                    channel_id=channel.channel_id,
                    connection_id=connection.connection_id,
                    serial=channel.serial,
                    path=channel.path,
                    mux_degree=channel.mux_degree,
                    bandwidth=channel.bandwidth,
                    state=state,
                )
        backups = [
            BackupInfo(
                channel_id=backup.channel_id,
                serial=backup.serial,
                mux_degree=backup.mux_degree,
            )
            for backup in connection.backups_in_serial_order()
        ]
        for node, role in (
            (connection.source, "source"),
            (connection.destination, "destination"),
        ):
            simulation.daemons[node].register_endpoint(
                EndpointView(
                    connection_id=connection.connection_id,
                    role=role,
                    current_channel=connection.primary.channel_id,
                    current_serial=connection.primary.serial,
                    backups=[
                        BackupInfo(
                            channel_id=info.channel_id,
                            serial=info.serial,
                            mux_degree=info.mux_degree,
                        )
                        for info in backups
                    ],
                )
            )


class OracleAuditor(InvariantAuditor):
    """The auditor with its three per-record / per-view checks sweeping
    everything, as they did before the plan (the touched records the
    product hands its two record checks are ignored)."""

    def _touched_records(self) -> dict:
        return {}  # an oracle daemon's records are a plain dict

    def _check_single_active(self, touched) -> None:
        simulation = self.simulation
        for node, daemon in simulation.daemons.items():
            if not simulation.node_up(node):
                continue
            primaries: dict[int, list[int]] = {}
            for channel_id, record in daemon.records.items():
                if not record.is_endpoint:
                    continue
                if record.state is LocalChannelState.PRIMARY:
                    primaries.setdefault(record.connection_id, []).append(
                        channel_id
                    )
            for connection_id, channel_ids in primaries.items():
                if len(channel_ids) > 1:
                    self.record(
                        "multiple-active", f"connection {connection_id}",
                        f"node {node!r} holds {len(channel_ids)} PRIMARY "
                        f"channels {sorted(channel_ids)} for one connection",
                    )
        self._check_endpoint_agreement()

    def _check_endpoint_agreement(self) -> None:
        simulation = self.simulation
        for connection in simulation.network.connections():
            src, dst = connection.source, connection.destination
            if not (simulation.node_up(src) and simulation.node_up(dst)):
                continue
            view_src = simulation.daemons[src].views.get(
                connection.connection_id
            )
            view_dst = simulation.daemons[dst].views.get(
                connection.connection_id
            )
            if view_src is None or view_dst is None:
                continue
            if view_src.current_channel in view_src.unhealthy:
                continue
            if view_dst.current_channel in view_dst.unhealthy:
                continue
            if view_src.current_channel != view_dst.current_channel:
                self.record(
                    "endpoint-disagreement",
                    f"connection {connection.connection_id}",
                    f"source {src!r} carries channel "
                    f"{view_src.current_channel} but destination {dst!r} "
                    f"carries {view_dst.current_channel}",
                )

    def _check_soft_state_expired(self, touched) -> None:
        simulation = self.simulation
        for node, daemon in simulation.daemons.items():
            if not simulation.node_up(node):
                continue
            for channel_id, record in daemon.records.items():
                if record.state is LocalChannelState.UNHEALTHY:
                    self.record(
                        "stuck-soft-state", f"channel {channel_id}",
                        f"still UNHEALTHY at node {node!r} after the run "
                        f"drained; its rejoin timer never resolved it",
                    )
