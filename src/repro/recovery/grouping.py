"""Grouped recovery evaluation.

The paper's Table 2 breaks R_fast down by connection class; this module
generalises that: aggregate :class:`~repro.recovery.metrics.RecoveryStats`
per arbitrary connection group (by multiplexing degree, by endpoint, by
tenant — any key function).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.core.bcp import BCPNetwork
from repro.core.dconnection import DConnection
from repro.faults.models import FailureScenario
from repro.recovery.evaluator import ConnectionOutcome, RecoveryEvaluator
from repro.recovery.metrics import RecoveryStats

GroupKey = Callable[[DConnection], object]


def by_mux_degree(connection: DConnection) -> int:
    """Group by the connection's multiplexing degree (Table 2's classes)."""
    return connection.mux_degree


def by_source(connection: DConnection) -> object:
    """Group by source node (per-site reporting)."""
    return connection.source


def evaluate_grouped(
    network: BCPNetwork,
    evaluator: RecoveryEvaluator,
    scenarios: Iterable[FailureScenario],
    key: GroupKey = by_mux_degree,
) -> dict[object, RecoveryStats]:
    """Aggregate recovery stats per connection group over a scenario set.

    Each scenario is evaluated once; its per-connection outcomes are
    partitioned by ``key`` and folded into one
    :class:`~repro.recovery.metrics.RecoveryStats` per group.
    """
    group_of = {
        connection.connection_id: key(connection)
        for connection in network.connections()
    }
    per_group: dict[object, RecoveryStats] = {}
    for scenario in scenarios:
        result = evaluator.evaluate(scenario)
        counters: dict[object, dict[ConnectionOutcome, int]] = {}
        for connection_id, outcome in result.outcomes.items():
            group = group_of[connection_id]
            counts = counters.setdefault(group, {})
            counts[outcome] = counts.get(outcome, 0) + 1
        for group, counts in counters.items():
            stats = per_group.setdefault(group, RecoveryStats())
            fast = counts.get(ConnectionOutcome.FAST_RECOVERED, 0)
            muxf = counts.get(ConnectionOutcome.MUX_FAILURE, 0)
            lost = counts.get(ConnectionOutcome.CHANNELS_LOST, 0)
            stats.add_scenario(
                failed_primaries=fast + muxf + lost,
                fast_recovered=fast,
                mux_failures=muxf,
                channels_lost=lost,
                excluded_connections=counts.get(ConnectionOutcome.EXCLUDED, 0),
            )
    return per_group
