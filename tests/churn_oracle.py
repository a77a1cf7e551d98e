"""Reference oracle for the churn engine's departure handling.

:class:`~repro.workload.churn.ChurnEngine` tears down every departure
due before the next arrival or epoch boundary in one
:meth:`~repro.core.bcp.BCPNetwork.teardown` call.  It used to tear them
down one per loop iteration, re-reading the event clock after each.  This
oracle is that loop: :class:`OneTeardownPerDeparture` pops exactly one
departure per iteration, so ``tests/test_churn_differential.py`` can hold
the batched engine against it operation by operation.
"""

from __future__ import annotations

import heapq

from repro.workload.churn import ChurnEngine


class OneTeardownPerDeparture(ChurnEngine):
    """A churn engine that tears down one departure per loop iteration."""

    def _process_departures(self, horizon, arrival_at, next_epoch) -> None:
        _, _, connection_id = heapq.heappop(self._departures)
        self.network.teardown(connection_id)
        self.stats.departures += 1
        self._c_departures.inc()
