"""The recovery plan: one network state, looked up rather than re-derived.

Replaying a failure scenario needs three things from the loaded network —
which D-connections' primaries cross each failed component, what each of
those connections' backups look like, and an addressable spare pool per
link.  None of them depends on the scenario, so every scenario is
answered by reading the network's :class:`RecoveryPlan` (the per-failure
answer is looked up, not re-derived — the idea of Enhanced Multiple
Routing Configurations, PAPERS.md).

The plan is owned by the :class:`~repro.core.bcp.BCPNetwork` it describes
(``network._recovery_plan``) and keyed on ``network.ledger.version``,
which every establishment, teardown and activation bumps.  All evaluators
of one network — one per failure model of a table, the serve ``evaluate``
op, the ablation variants — share it; like ``Topology._flat`` it is
dropped from pickles and recompiled on demand.

Under churn a plan lives for one ledger version and answers a handful of
scenarios (the online setting of Keslassy & Orda, PAPERS.md), so only
what is O(connections) and trivially cheap is compiled eagerly: the
``connections()`` list, connection id -> position, the dense link index
and whether ``connections()`` order already is priority order.  The two
lookup tables are *filled on first touch* and kept for the plan's
lifetime: :meth:`RecoveryPlan.primaries_on` (one
``registry.on_component`` read per component) and
:meth:`RecoveryPlan.record` (one :class:`ConnectionRecord` per connection
a scenario ever hit).  Only primaries are indexed — a failed backup alone
disrupts no service, so a scenario's work list is exactly the connections
whose *primary* it crosses; whether a backup of one of those is dead is
``mask & failed`` on integers interned through the plan's own
:class:`~repro.core.overlap.ComponentSpace`, straight from the backup
path's nodes and links (no component set is built for a backup).

*Registry visibility.*  A record is hit only through a registry channel
that *is* its connection's primary object.  A connection still listed by
``network.connections()`` whose channels left the registry, and a channel
registered outside any connection (even one reusing a live
``connection_id``), are invisible.

Links are addressed by a dense index (``topology.links()`` order) so that
scenario-local spare pools are flat lists: a draw is ``pools[i]``, not a
``dict[LinkId]`` lookup that runs ``LinkId.__hash__``/``__eq__`` in Python
for every hop of every contending backup.  The plan keeps the registry,
never the network: ``network._recovery_plan`` must not close a reference
cycle that only the garbage collector can free.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def recovery_plan(network: BCPNetwork) -> RecoveryPlan:
    """The plan for ``network``'s current state, compiled at most once
    per ledger version."""
    plan = network._recovery_plan
    if plan is None or plan.version != network.ledger.version:
        plan = network._recovery_plan = RecoveryPlan(network)
    return plan
