"""The compiled recovery plan: one network state, prepared once.

Replaying a failure scenario needs three things from the loaded network —
which D-connection owns each disabled channel, what each connection's
backups look like, and an addressable spare pool per link.  None of them
depends on the scenario, so they are compiled once per network state into
a :class:`RecoveryPlan` and every scenario is answered by reading it
(the per-failure answer is looked up, not re-derived — the idea of
Enhanced Multiple Routing Configurations, PAPERS.md).

The plan is owned by the :class:`~repro.core.bcp.BCPNetwork` it describes
(``network._recovery_plan``) and keyed on ``network.ledger.version``,
which every establishment, teardown and activation bumps.  All evaluators
of one network — the per-shard evaluators of :mod:`repro.parallel`, the
serve ``evaluate`` op, the ablation variants — share it; like
``Topology._flat`` it is dropped from pickles and recompiled on demand.

Links are addressed by a dense index (``topology.links()`` order) so that
scenario-local spare pools are flat lists: a draw is ``pools[i]``, not a
``dict[LinkId]`` lookup that runs ``LinkId.__hash__``/``__eq__`` in Python
for every hop of every contending backup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bcp import BCPNetwork
from repro.network.components import LinkId, NodeId


@dataclass(slots=True, eq=False)
class ConnectionRecord:
    """What the evaluator needs to know about one D-connection; its
    position in ``network.connections()`` order is its index in
    :attr:`RecoveryPlan.records`."""

    connection_id: int
    mux_degree: int
    bandwidth: float
    source: NodeId
    destination: NodeId
    #: Channel id of the primary.
    primary_id: int
    #: ``(serial, path components, dense link indices)`` per backup, in
    #: serial (activation try) order.
    backups: "tuple[tuple[int, frozenset, tuple[int, ...]], ...]"


class RecoveryPlan:
    """Scenario-independent view of a loaded network at one ledger version."""

    __slots__ = ("version", "links", "records", "owner")

    def __init__(self, network: BCPNetwork) -> None:
        #: ``network.ledger.version`` this plan was compiled at.
        self.version = network.ledger.version
        link_index = {
            link: index for index, link in enumerate(network.topology.links())
        }
        #: One record per connection, in ``network.connections()`` order.
        self.records: list[ConnectionRecord] = []
        #: channel id -> position of the owning connection's record.  The
        #: component -> channel direction is ``ChannelRegistry.affected_by``.
        self.owner: dict[int, int] = {}
        for position, connection in enumerate(network.connections()):
            backups = tuple(
                (
                    backup.serial,
                    backup.components,
                    tuple(
                        # A hop outside the topology gets an index past it
                        # (and therefore an empty pool), never a KeyError.
                        link_index.setdefault(link, len(link_index))
                        for link in backup.path.links
                    ),
                )
                for backup in connection.backups_in_serial_order()
            )
            self.records.append(ConnectionRecord(
                connection.connection_id, connection.mux_degree,
                connection.traffic.bandwidth, connection.source,
                connection.destination, connection.primary.channel_id, backups,
            ))
            for channel in connection.channels:
                self.owner[channel.channel_id] = position
        #: Dense link index -> link; base pools are laid out in this order.
        self.links: tuple[LinkId, ...] = tuple(link_index)


def recovery_plan(network: BCPNetwork) -> RecoveryPlan:
    """The plan for ``network``'s current state, compiled at most once
    per ledger version."""
    plan = network._recovery_plan
    if plan is None or plan.version != network.ledger.version:
        plan = network._recovery_plan = RecoveryPlan(network)
    return plan
