"""Reference oracle for the compiled :class:`~repro.core.plan.NetworkPlan`.

These are the two compiles the plan replaced, as they stood: the
evaluator's :class:`RecoveryPlan` (per connection a record of backup
masks and dense link indices, per component the positions of the
primaries crossing it, read from the live registry on first touch) and
the daemons' :class:`ProtocolPlan` (per channel a meta tuple and a path,
per node a ``{channel id: position}`` map, an eager neighbour index and
one view template per endpoint).  Both read the network they are given
and hold nothing of the product's index, so ``tests/test_plan_differential.py``
holds every lookup of the one plan to them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from repro.channels.channel import ChannelRole
from repro.core.bcp import BCPNetwork
from repro.core.overlap import ComponentSpace
from repro.network.components import LinkId, NodeId
from repro.protocol.daemon import BackupInfo, EndpointView
from repro.protocol.plan import LazyTable
from repro.protocol.states import (
    ChannelEvent,
    LocalChannelRecord,
    LocalChannelState,
)
from repro.routing.paths import Path
from repro.util.lazytable import FilledOnTouch


@dataclass(slots=True, eq=False)
class ConnectionRecord:
    """What the evaluator needs to know about one D-connection."""

    connection_id: int
    mux_degree: int
    bandwidth: float
    source: NodeId
    destination: NodeId
    #: ``(serial, component mask, dense link indices)`` per backup, in
    #: serial (activation try) order; masks are bitsets in
    #: :attr:`RecoveryPlan.space`.
    backups: "tuple[tuple[int, int, tuple[int, ...]], ...]"


class RecoveryPlan:
    """Scenario-independent view of a loaded network at one ledger version."""

    __slots__ = (
        "version", "links", "priority_ordered", "space", "primaries_on",
        "record",
    )

    def __init__(self, network: BCPNetwork) -> None:
        #: ``network.ledger.version`` this plan was compiled at.
        self.version = network.ledger.version
        registry = network.registry
        connections = network.connections()
        keys = [(c.mux_degree, c.connection_id) for c in connections]
        #: Whether ``connections()`` order already is ``(mux_degree,
        #: connection_id)`` order, so that any subset listed by position
        #: is in priority order without sorting.
        self.priority_ordered = keys == sorted(keys)
        position_of = {key[1]: position for position, key in enumerate(keys)}
        #: Dense link index -> link; base pools are laid out in this order,
        #: followed by one always-empty slot that every hop outside the
        #: topology shares (never a KeyError).
        self.links: tuple[LinkId, ...] = tuple(network.topology.links())
        link_index = {link: index for index, link in enumerate(self.links)}
        off_topology = len(link_index)
        #: Interner behind the backup masks; the evaluator reads a
        #: scenario's failed bits from it without interning anything.
        self.space = space = ComponentSpace()

        def read_primaries(component: object) -> list[int]:
            return sorted(
                position
                for channel in registry.on_component(component)
                if (position := position_of.get(channel.connection_id)) is not None
                and connections[position].primary is channel
            )

        def compile_record(position: int) -> ConnectionRecord:
            connection = connections[position]
            return ConnectionRecord(
                connection.connection_id, connection.mux_degree,
                connection.traffic.bandwidth, connection.source,
                connection.destination,
                tuple(
                    (
                        backup.serial,
                        space.path_mask(backup.path),
                        tuple(
                            link_index.get(link, off_topology)
                            for link in backup.path.links
                        ),
                    )
                    for backup in connection.backups_in_serial_order()
                ),
            )

        # Both tables close over the registry and the connection list, not
        # over the plan or the network.
        #: ``primaries_on(component)`` — sorted positions (``connections()``
        #: order) of the records whose primary crosses ``component``.
        self.primaries_on = FilledOnTouch(read_primaries).__getitem__
        #: ``record(position)`` — the :class:`ConnectionRecord` there.
        self.record = FilledOnTouch(compile_record).__getitem__


class EndpointRow(NamedTuple):
    """What an end-node knows about one of its connections before any
    failure; the template of an :class:`EndpointView`."""

    role: str
    current_channel: int
    current_serial: int
    #: Backups in serial order (a view copies this into its own list).
    backups: tuple[BackupInfo, ...]


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
        connection_id, serial, bandwidth, _, mux_degree = self._meta[channel_id]
        record = LocalChannelRecord(
            channel_id=channel_id,
            connection_id=connection_id,
            serial=serial,
            path=self._paths[channel_id],
            node=self.node,
            mux_degree=mux_degree,
            bandwidth=bandwidth,
        )
        assert record.index == index
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
                    mux_degree=backup.mux_degree,
                )
                for backup in connection.backups_in_serial_order()
            )
            for node, role in (
                (connection.source, "source"),
                (connection.destination, "destination"),
            ):
                tables[node].endpoints[connection_id] = EndpointRow(
                    role,
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


