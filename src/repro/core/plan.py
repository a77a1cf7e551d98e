"""The compiled plan: one network state, looked up rather than re-derived.

Section 3.4 has the BCP daemon at each node keep a record for every
channel through it, written once, at establishment.  Both evaluation
paths read those facts — the :class:`~repro.recovery.evaluator.
RecoveryEvaluator` to replay a scenario, a :class:`~repro.protocol.
runtime.ProtocolSimulation` to give each daemon its records — so they
are compiled once per network state into one :class:`NetworkPlan` and
looked up, not re-derived (the idea of Enhanced Multiple Routing
Configurations, PAPERS.md).  No per-channel fact is copied: the plan
reads the network's own connections and channels.

*Who fills what.*  Compiled eagerly, O(connections) and cheap: the
connection list, connection id -> position, the dense link index and the
priority-order bit.  Filled on first touch: :attr:`NetworkPlan.primaries_on`
(one registry read per component), the one answer both paths give to
"who does this failure hit", and the evaluator's
:attr:`NetworkPlan.record`.  A connection is hit only if its primary is
the registry's channel under that id: one whose channels left the
registry, or a channel registered outside any connection, is invisible.

*Pinning.*  An evaluator only ever reads the plan of the network as it
is.  A simulation keeps running on the plan it was built on, whatever is
established, adjusted or torn down afterwards, so the first one pins
it (:meth:`~NetworkPlan.pin`): ``primaries_on`` is filled for every
component, and the two facts that change without a new channel are
snapshotted — the backup list (teardown clears it) as one tuple of the
network's own channels, and their ν (``adjust_backup_degree`` rewrites
it in place).  The daemons' per-node index is built on that snapshot
(:mod:`repro.protocol.plan`).

The plan belongs to the :class:`~repro.core.bcp.BCPNetwork` it describes
(``network._plan``), is keyed on ``network.ledger.version`` and, like
``Topology._flat``, is dropped from pickles.  It holds channels and the
registry, never the network, so it closes no cycle the collector would
have to free.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.channels.channel import Channel
from repro.core.bcp import BCPNetwork
from repro.core.overlap import ComponentSpace
from repro.network.components import LinkId, NodeId
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
    #: :attr:`NetworkPlan.space`.
    backups: "tuple[tuple[int, int, tuple[int, ...]], ...]"


class NetworkPlan:
    """Everything both evaluation paths read of a loaded network, at one
    ledger version."""

    __slots__ = (
        "version", "connections", "position_of", "priority_ordered",
        "links", "space", "primaries_on", "record", "_channels", "_starts",
        "degrees", "tables",
    )

    def __init__(self, network: BCPNetwork) -> None:
        #: ``network.ledger.version`` this plan was compiled at.
        self.version = network.ledger.version
        registry = network.registry
        #: The live connections, in ``connections()`` order (a position is
        #: an index here); read as they stand until the plan is pinned.
        self.connections = connections = network.connections()
        keys = [(c.mux_degree, c.connection_id) for c in connections]
        #: Whether ``connections()`` order already is ``(mux_degree,
        #: connection_id)`` order, so that any subset listed by position
        #: is in priority order without sorting.
        self.priority_ordered = keys == sorted(keys)
        position_of = {key[1]: position for position, key in enumerate(keys)}
        #: connection id -> position.
        self.position_of: Mapping[int, int] = MappingProxyType(position_of)
        #: Dense link index -> link; an evaluator's base pools are laid out
        #: in this order, followed by one always-empty slot that every hop
        #: outside the topology shares (never a KeyError).
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
        #: ``primaries_on(component)`` — sorted positions of the
        #: connections whose primary crosses ``component``.
        self.primaries_on = FilledOnTouch(read_primaries).__getitem__
        #: ``record(position)`` — the :class:`ConnectionRecord` there.
        self.record = FilledOnTouch(compile_record).__getitem__
        # The snapshot :meth:`pin` takes, and the daemons' index on it
        # (:func:`repro.protocol.plan.node_tables`).
        self._channels: "tuple[Channel, ...] | None" = None
        self._starts: "array | None" = None
        #: Per position, once pinned: the pinned ν of each of the
        #: connection's :meth:`channels`, interned.
        self.degrees: "tuple[tuple[int, ...], ...] | None" = None
        self.tables = None

    def pin(self, components: Iterable) -> None:
        """Snapshot what a run reads, so that it keeps running on this
        network state whatever is established, adjusted or torn down
        afterwards: every connection's channels (teardown clears
        ``connection.backups``), their ν (``adjust_backup_degree``
        rewrites it in place) and ``primaries_on`` for every one of
        ``components`` (the registry moves on).  Called once, by the first
        simulation of the state, while the network still is at
        :attr:`version`."""
        if self.degrees is not None:
            return
        for component in components:
            self.primaries_on(component)
        flat: list[Channel] = []
        starts = array("L")
        degrees: list[tuple[int, ...]] = []
        interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        for connection in self.connections:
            channels = (connection.primary,
                        *connection.backups_in_serial_order())
            starts.append(len(flat))
            flat.extend(channels)
            nus = tuple(channel.mux_degree for channel in channels)
            degrees.append(interned.setdefault(nus, nus))
        starts.append(len(flat))
        # Every connection's channels back to back, and where each one's
        # run starts: one tuple and one array, not a tuple per connection.
        self._channels, self._starts = tuple(flat), starts
        self.degrees = tuple(degrees)

    def channels(self, position: int) -> tuple[Channel, ...]:
        """The pinned channels of the connection at ``position``: its
        primary, then its backups in serial order."""
        starts = self._starts
        return self._channels[starts[position]:starts[position + 1]]


def network_plan(network: BCPNetwork) -> NetworkPlan:
    """The plan for ``network``'s current state, compiled at most once
    per ledger version."""
    plan = network._plan
    if plan is None or plan.version != network.ledger.version:
        plan = network._plan = NetworkPlan(network)
    return plan
