"""The daemons' index over the network's compiled plan.

Section 3.4 has every BCP daemon hold a record for each channel through
its node.  What establishment wrote is the network's
:class:`~repro.core.plan.NetworkPlan`; :func:`node_tables` indexes it per
node once per plan, when the first
:class:`~repro.protocol.runtime.ProtocolSimulation` of the network state
is built, and every later simulation of the state shares the index.  A
:class:`NodeTable` keeps only what a node looks up and the plan cannot
answer; a record or view reads everything else off the plan's channels
when it is first built.  The index is immutable and shared: what a
simulation mutates lives in objects a :class:`LazyTable` builds from it
on first touch, one table per daemon per simulation.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping

from repro.channels.channel import Channel, ChannelRole
from repro.core.plan import NetworkPlan
from repro.network.components import NodeId
from repro.protocol.daemon import BackupInfo, EndpointView
from repro.protocol.states import LocalChannelRecord, LocalChannelState
from repro.util.lazytable import FilledOnTouch


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

    def get(self, key, default=None):
        # ``dict``'s own would see the built entries only.
        try:
            return self[key]
        except KeyError:
            return default

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
    channels pass through it and which connections end at it.  What a
    channel is — its connection, serial, path and ν — is the plan's, and
    read from there."""

    __slots__ = ("node", "channels", "endpoints", "by_neighbour", "_flat",
                 "_starts", "_degrees", "_position_of", "_backups")

    def __init__(self, node: NodeId, plan: NetworkPlan,
                 backups: Mapping[int, tuple[BackupInfo, ...]]) -> None:
        self.node = node
        #: channel id -> channel, in registration order.
        self.channels: dict[int, Channel] = {}
        #: connection id -> plan position, in registration order.
        self.endpoints: dict[int, int] = {}
        channels = self.channels

        def adjacent(neighbour: NodeId) -> tuple[int, ...]:
            found = []
            for channel_id, channel in channels.items():
                nodes = channel.path.nodes
                index = nodes.index(node)
                if (index and nodes[index - 1] == neighbour) or (
                    index + 1 < len(nodes) and nodes[index + 1] == neighbour
                ):
                    found.append(channel_id)
            return tuple(found)

        #: neighbour -> ids of the channels whose previous or next hop it
        #: is, in registration order.  Read it with ``[]``: ``.get`` is
        #: ``dict``'s own and would miss what is not filled yet.
        self.by_neighbour = FilledOnTouch(adjacent)
        # The plan's snapshot (not the plan: no cycle).
        self._flat = plan._channels
        self._starts = plan._starts
        self._degrees = plan.degrees
        self._position_of = plan.position_of
        #: plan position -> the connection's backups as both of its
        #: end-nodes' views start out, shared by every node's table.
        self._backups = backups

    def channels_of(self, connection_id: int) -> list[int]:
        """Ids of the connection's channels through this node, in
        registration order (a connection's channels register one after
        another, in plan order)."""
        channels, starts = self.channels, self._starts
        position = self._position_of[connection_id]
        return [
            channel.channel_id
            for channel in self._flat[starts[position]:starts[position + 1]]
            if channel.channel_id in channels
        ]

    def records(self) -> LazyTable:
        """A fresh, untouched channel-record table for one daemon."""
        return LazyTable(self.channels, self._record)

    def views(self) -> LazyTable:
        """A fresh, untouched end-node view table for one daemon."""
        return LazyTable(self.endpoints, self._view)

    def _record(self, channel_id: int) -> LocalChannelRecord:
        channel = self.channels[channel_id]
        position = self._position_of[channel.connection_id]
        start, flat = self._starts[position], self._flat
        # The channel's ν as the plan pinned it (``index`` finds it by
        # identity first, so the scan stops at the channel itself).
        index = (0 if flat[start] is channel
                 else flat.index(channel, start + 1) - start)
        serial = channel.serial
        return LocalChannelRecord(
            channel_id, channel.connection_id, serial, channel.path,
            self.node, self._degrees[position][index],
            channel.traffic.bandwidth,
            # The installed state, read off the serial: where Fig. 4's
            # ESTABLISH_BACKUP / ESTABLISH_PRIMARY take a new record.
            LocalChannelState.BACKUP if serial else LocalChannelState.PRIMARY,
        )

    def _view(self, connection_id: int) -> EndpointView:
        position = self.endpoints[connection_id]
        primary = self._flat[self._starts[position]]
        return EndpointView(
            connection_id=connection_id,
            role=("source" if self.node == primary.path.nodes[0]
                  else "destination"),
            current_channel=primary.channel_id,
            current_serial=primary.serial,
            backups=list(self._backups[position]),
        )


def node_tables(plan: NetworkPlan,
                nodes: Iterable[NodeId]) -> dict[NodeId, NodeTable]:
    """The daemons' index of ``plan``, one :class:`NodeTable` per node of
    the topology, built once per plan, which it pins (the first
    simulation of a network state builds it while the network still is
    at the plan's version)."""
    tables = plan.tables
    if tables is None:
        nodes = list(nodes)
        plan.pin((*nodes, *plan.links))
        # The plan's snapshot (not the plan: no cycle).
        flat, starts, degrees = plan._channels, plan._starts, plan.degrees

        def backups_of(position: int) -> tuple[BackupInfo, ...]:
            nus = degrees[position]
            return tuple(
                BackupInfo(backup.channel_id, backup.serial, nus[index])
                for index, backup in enumerate(
                    flat[starts[position] + 1:starts[position + 1]], 1)
            )

        # Filled for the connections a run touches, not for all of them.
        backups = FilledOnTouch(backups_of)
        tables = {node: NodeTable(node, plan, backups) for node in nodes}
        for connection_id, position in plan.position_of.items():
            channels = plan.channels(position)
            for channel in channels:
                assert (channel.serial == 0) == (
                    channel.role is ChannelRole.PRIMARY
                ), f"channel {channel.channel_id}: serial 0 must be the primary"
                for node in channel.path.nodes:
                    tables[node].channels[channel.channel_id] = channel
            path = channels[0].path
            tables[path.source].endpoints[connection_id] = position
            tables[path.destination].endpoints[connection_id] = position
        plan.tables = tables
    return tables
