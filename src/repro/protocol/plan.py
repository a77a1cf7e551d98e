"""The compiled protocol state: one network state, prepared once.

Section 3.4 has every BCP daemon hold a record for each channel through
its node.  Those records are written at *establishment* and read only by
the channels a failure actually hits (Section 4), so nothing about them
depends on the simulation that reads them.  They are compiled once per
network state into a :class:`ProtocolPlan` — per node, the channel table
in registration order, the two indices the daemon's whole-node scans
reduce to, and the end-node view templates — and every
:class:`~repro.protocol.runtime.ProtocolSimulation` of that state reads
it (the per-failure answer is looked up, not re-derived — the idea of
Enhanced Multiple Routing Configurations, PAPERS.md).

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
from repro.network.components import LinkId, NodeId
from repro.protocol.daemon import BackupInfo, EndpointView
from repro.protocol.states import (
    ChannelEvent,
    LocalChannelRecord,
    LocalChannelState,
)
from repro.routing.paths import Path
from repro.util.lazytable import FilledOnTouch


class ChannelRow(NamedTuple):
    """One channel through one node, as establishment left it."""

    #: Registration position in the node's channel table.
    position: int
    connection_id: int
    serial: int
    path: Path
    mux_degree: int
    #: Installed Fig. 4 state: PRIMARY or BACKUP.
    state: LocalChannelState
    #: Position of the node on ``path``.
    index: int


class EndpointRow(NamedTuple):
    """What an end-node knows about one of its connections before any
    failure; the template of an :class:`EndpointView`."""

    #: Registration position in the node's view table.
    position: int
    source: NodeId
    destination: NodeId
    role: str
    current_channel: int
    current_serial: int
    #: Backups in serial order (a view copies this into its own list).
    backups: tuple[BackupInfo, ...]


_ESTABLISH = {
    LocalChannelState.PRIMARY: ChannelEvent.ESTABLISH_PRIMARY,
    LocalChannelState.BACKUP: ChannelEvent.ESTABLISH_BACKUP,
}


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
        rows = self._rows
        return [
            entry for _, entry in sorted(
                dict.items(self), key=lambda item: rows[item[0]].position
            )
        ]


class NodeTable:
    """Everything the daemon at one node was told at establishment."""

    __slots__ = ("node", "channels", "endpoints", "by_neighbour",
                 "by_connection")

    def __init__(self, node: NodeId) -> None:
        self.node = node
        #: channel id -> row, in registration order.
        self.channels: dict[int, ChannelRow] = {}
        #: connection id -> view template, in registration order.
        self.endpoints: dict[int, EndpointRow] = {}
        #: neighbour node -> ids of the channels whose previous or next
        #: hop it is, in registration order: the only records a failure of
        #: that neighbour, or of a link to or from it, can relate to.
        self.by_neighbour: dict[NodeId, tuple[int, ...]] = {}
        #: connection id -> ids of its channels through this node, in
        #: registration order.
        self.by_connection: dict[int, tuple[int, ...]] = {}

    def records(self) -> LazyTable:
        """A fresh, untouched channel-record table for one daemon."""
        return LazyTable(self.channels, self._record)

    def views(self) -> LazyTable:
        """A fresh, untouched end-node view table for one daemon."""
        return LazyTable(self.endpoints, self._view)

    def _record(self, channel_id: int) -> LocalChannelRecord:
        row = self.channels[channel_id]
        record = LocalChannelRecord(
            channel_id=channel_id,
            connection_id=row.connection_id,
            serial=row.serial,
            path=row.path,
            node=self.node,
            mux_degree=row.mux_degree,
            index=row.index,
        )
        record.transition(row.state, _ESTABLISH[row.state])
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

    __slots__ = ("version", "tables", "channel_meta", "owned_links")

    def __init__(self, network: BCPNetwork) -> None:
        #: ``network.ledger.version`` this plan was compiled at.
        self.version = network.ledger.version
        #: node -> its table, for every node of the topology.
        self.tables: dict[NodeId, NodeTable] = {
            node: NodeTable(node) for node in network.topology.nodes()
        }
        meta: dict[int, tuple[int, int, float, int, int]] = {}
        owned: dict[int, frozenset[LinkId]] = {}
        tables = self.tables
        for connection in network.connections():
            connection_id = connection.connection_id
            for channel in connection.channels:
                channel_id = channel.channel_id
                path = channel.path
                primary = channel.role is ChannelRole.PRIMARY
                state = (LocalChannelState.PRIMARY if primary
                         else LocalChannelState.BACKUP)
                meta[channel_id] = (
                    connection_id, channel.serial, channel.bandwidth,
                    path.hops, channel.mux_degree,
                )
                if primary:
                    owned[channel_id] = frozenset(path.links)
                nodes = path.nodes
                last = len(nodes) - 1
                for index, node in enumerate(nodes):
                    table = tables[node]
                    table.channels[channel_id] = ChannelRow(
                        len(table.channels), connection_id, channel.serial,
                        path, channel.mux_degree, state, index,
                    )
                    table.by_connection.setdefault(
                        connection_id, []).append(channel_id)
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
                endpoints = tables[node].endpoints
                endpoints[connection_id] = EndpointRow(
                    len(endpoints), connection.source, connection.destination,
                    role, connection.primary.channel_id,
                    connection.primary.serial, backups,
                )
        for table in tables.values():
            # The indices were grown as lists; freeze them.
            table.by_neighbour = {
                neighbour: tuple(ids)
                for neighbour, ids in table.by_neighbour.items()
            }
            table.by_connection = {
                connection_id: tuple(ids)
                for connection_id, ids in table.by_connection.items()
            }
        #: channel id -> (connection id, serial, bandwidth, hops, mux degree)
        self.channel_meta: Mapping[
            int, tuple[int, int, float, int, int]
        ] = MappingProxyType(meta)
        #: primary channel id -> the links of its original dedicated
        #: reservation (a simulation copies a channel's set on first touch).
        self.owned_links: Mapping[
            int, frozenset[LinkId]
        ] = MappingProxyType(owned)


def protocol_plan(network: BCPNetwork) -> ProtocolPlan:
    """The plan for ``network``'s current state, compiled at most once
    per ledger version."""
    plan = network._protocol_plan
    if plan is None or plan.version != network.ledger.version:
        plan = network._protocol_plan = ProtocolPlan(network)
    return plan
