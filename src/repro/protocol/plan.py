"""The compiled protocol state: one network state, prepared once.

Section 3.4 has every BCP daemon hold a record for each channel through
its node.  Those records are written at *establishment* and read only by
the channels a failure actually hits (Section 4), so nothing about them
depends on the simulation that reads them.  They are compiled once per
network state into a :class:`ProtocolPlan`, and every
:class:`~repro.protocol.runtime.ProtocolSimulation` of that state reads
it (the per-failure answer is looked up, not re-derived — the idea of
Enhanced Multiple Routing Configurations, PAPERS.md).  Each fact is
stored once: per channel its meta tuple and path (its installed state is
its serial: 0 is the primary), per connection its channel ids, and per
node only each channel's position on its path, the neighbour index the
daemon's failure scan reads and the end-node view templates.

The plan is owned by the :class:`~repro.core.bcp.BCPNetwork` it describes
(``network._protocol_plan``) and keyed on ``network.ledger.version``,
exactly like :mod:`repro.recovery.plan`; a simulation pins the plan it
was built on, so establishing or tearing down afterwards does not move
the ground under a run in flight.

Everything in the plan is immutable and shared.  What a simulation
mutates — a record's state and ``reported`` value, a view's ``backups``
list and health sets — lives in objects a :class:`LazyTable` builds from
the plan's rows on first touch, one table per daemon per simulation.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from types import MappingProxyType
from typing import NamedTuple

from repro.channels.channel import ChannelRole
from repro.core.bcp import BCPNetwork
from repro.network.components import NodeId
from repro.protocol.daemon import BackupInfo, EndpointView
from repro.protocol.states import (
    ChannelEvent,
    LocalChannelRecord,
    LocalChannelState,
)
from repro.routing.paths import Path
from repro.util.lazytable import FilledOnTouch


class EndpointRow(NamedTuple):
    """What an end-node knows about one of its connections before any
    failure; the template of an :class:`EndpointView`."""

    source: NodeId
    destination: NodeId
    role: str
    current_channel: int
    current_serial: int
    #: Backups in serial order (a view copies this into its own list).
    backups: tuple[BackupInfo, ...]


class LazyTable(FilledOnTouch):
    """One daemon's mutable entries over one immutable plan table.

    The dict itself holds the entries built so far, so ``[]`` on one of
    them never leaves C; any other row's entry is built by ``fill(key)``
    when first touched, so constructing a simulation costs nothing per
    channel and a run materialises what its failures reach.  Everything
    else reads like the full table it replaces: ``.get``, ``in``, ``len``
    and iteration (in registration order) range over every row.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Mapping, fill: Callable) -> None:
        super().__init__(fill)
        self._rows = rows

    def __contains__(self, key) -> bool:
        return key in self._rows

    def __iter__(self) -> Iterator:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    # ``dict``'s own would see the built entries only.
    get = Mapping.get
    keys = Mapping.keys
    items = Mapping.items
    values = Mapping.values

    def touched(self) -> list:
        """The entries materialised so far, in registration order.  Every
        other entry is still exactly what its row says."""
        return list(map(
            self.__getitem__, filter(dict.keys(self).__contains__, self._rows)
        ))


class NodeTable:
    """Everything the daemon at one node was told at establishment: which
    channels pass through it, and where.  What a channel is — its
    connection, serial, ν, path and installed state — is stored once per
    channel, in the plan, and read from there."""

    __slots__ = ("node", "channels", "endpoints", "by_neighbour", "_meta",
                 "_paths", "_connections")

    def __init__(self, node: NodeId, meta: Mapping, paths: Mapping,
                 connections: Mapping) -> None:
        self.node = node
        #: channel id -> position of the node on the channel's path, in
        #: registration order.
        self.channels: dict[int, int] = {}
        #: connection id -> view template, in registration order.
        self.endpoints: dict[int, EndpointRow] = {}
        #: neighbour node -> ids of the channels whose previous or next
        #: hop it is, in registration order: the only records a failure of
        #: that neighbour, or of a link to or from it, can relate to.
        self.by_neighbour: dict[NodeId, tuple[int, ...]] = {}
        # The plan's network-wide tables (not the plan: no cycle).
        self._meta = meta
        self._paths = paths
        self._connections = connections

    def channels_of(self, connection_id: int) -> list[int]:
        """Ids of the connection's channels through this node, in
        registration order (a connection's channels register one after
        another, in ``connection.channels`` order)."""
        channels = self.channels
        return [channel_id for channel_id in self._connections[connection_id]
                if channel_id in channels]

    def records(self) -> LazyTable:
        """A fresh, untouched channel-record table for one daemon."""
        return LazyTable(self.channels, self._record)

    def views(self) -> LazyTable:
        """A fresh, untouched end-node view table for one daemon."""
        return LazyTable(self.endpoints, self._view)

    def _record(self, channel_id: int) -> LocalChannelRecord:
        index = self.channels[channel_id]
        connection_id, serial, _, _, mux_degree = self._meta[channel_id]
        record = LocalChannelRecord(
            channel_id=channel_id,
            connection_id=connection_id,
            serial=serial,
            path=self._paths[channel_id],
            node=self.node,
            mux_degree=mux_degree,
            index=index,
        )
        if serial:
            record.transition(LocalChannelState.BACKUP,
                              ChannelEvent.ESTABLISH_BACKUP)
        else:
            record.transition(LocalChannelState.PRIMARY,
                              ChannelEvent.ESTABLISH_PRIMARY)
        return record

    def _view(self, connection_id: int) -> EndpointView:
        row = self.endpoints[connection_id]
        return EndpointView(
            connection_id=connection_id,
            source=row.source,
            destination=row.destination,
            role=row.role,
            current_channel=row.current_channel,
            current_serial=row.current_serial,
            backups=list(row.backups),
        )


class ProtocolPlan:
    """Simulation-independent protocol state of a loaded network at one
    ledger version."""

    __slots__ = ("version", "tables", "channel_meta", "channel_paths",
                 "connection_channels")

    def __init__(self, network: BCPNetwork) -> None:
        #: ``network.ledger.version`` this plan was compiled at.
        self.version = network.ledger.version
        meta: dict[int, tuple[int, int, float, int, int]] = {}
        paths: dict[int, Path] = {}
        connections: dict[int, tuple[int, ...]] = {}
        #: node -> its table, for every node of the topology.
        self.tables: dict[NodeId, NodeTable] = {
            node: NodeTable(node, meta, paths, connections)
            for node in network.topology.nodes()
        }
        tables = self.tables
        for connection in network.connections():
            connection_id = connection.connection_id
            channels = connection.channels
            connections[connection_id] = tuple(
                channel.channel_id for channel in channels
            )
            for channel in channels:
                channel_id = channel.channel_id
                # A record's installed state is read off its serial.
                assert (channel.serial == 0) == (
                    channel.role is ChannelRole.PRIMARY
                ), f"channel {channel_id}: serial 0 must be the primary"
                path = paths[channel_id] = channel.path
                meta[channel_id] = (
                    connection_id, channel.serial, channel.bandwidth,
                    path.hops, channel.mux_degree,
                )
                nodes = path.nodes
                last = len(nodes) - 1
                for index, node in enumerate(nodes):
                    table = tables[node]
                    table.channels[channel_id] = index
                    if index:
                        table.by_neighbour.setdefault(
                            nodes[index - 1], []).append(channel_id)
                    if index < last:
                        table.by_neighbour.setdefault(
                            nodes[index + 1], []).append(channel_id)
            backups = tuple(
                BackupInfo(
                    channel_id=backup.channel_id,
                    serial=backup.serial,
                    path=backup.path,
                    mux_degree=backup.mux_degree,
                )
                for backup in connection.backups_in_serial_order()
            )
            for node, role in (
                (connection.source, "source"),
                (connection.destination, "destination"),
            ):
                tables[node].endpoints[connection_id] = EndpointRow(
                    connection.source, connection.destination, role,
                    connection.primary.channel_id, connection.primary.serial,
                    backups,
                )
        for table in tables.values():
            # The index was grown as lists; freeze it.
            table.by_neighbour = {
                neighbour: tuple(ids)
                for neighbour, ids in table.by_neighbour.items()
            }
        #: channel id -> (connection id, serial, bandwidth, hops, mux degree)
        self.channel_meta: Mapping[
            int, tuple[int, int, float, int, int]
        ] = MappingProxyType(meta)
        #: channel id -> its path.  A primary's links are those of its
        #: original dedicated reservation (a simulation copies them into a
        #: set of its own on first touch).
        self.channel_paths: Mapping[int, Path] = MappingProxyType(paths)
        #: connection id -> ids of its channels, in ``connection.channels``
        #: order.
        self.connection_channels: Mapping[
            int, tuple[int, ...]
        ] = MappingProxyType(connections)


def protocol_plan(network: BCPNetwork) -> ProtocolPlan:
    """The plan for ``network``'s current state, compiled at most once
    per ledger version."""
    plan = network._protocol_plan
    if plan is None or plan.version != network.ledger.version:
        plan = network._protocol_plan = ProtocolPlan(network)
    return plan
