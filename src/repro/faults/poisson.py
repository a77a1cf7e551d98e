"""Poisson failure process for the discrete-event runtime.

Section 3.1 assumes "a Poisson failure process with rate λ" per component.
:class:`PoissonFailureProcess` draws exponential inter-failure times per
component and (optionally) exponential repair times, producing a timeline
of :class:`FailureEvent` records the protocol runtime replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.network.topology import Topology
from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True, slots=True)
class FailureEvent:
    """One component crash (and optional later repair)."""

    time: float
    component: object
    #: Repair completion time, or ``None`` for a permanent crash.
    repair_time: "float | None" = None


class PoissonFailureProcess:
    """Independent per-component Poisson crashes over a horizon."""

    def __init__(
        self,
        topology: Topology,
        failure_rate: float,
        repair_rate: float = 0.0,
        seed: "int | None" = 0,
    ) -> None:
        check_positive(failure_rate, "failure_rate")
        check_non_negative(repair_rate, "repair_rate")
        self.topology = topology
        self.failure_rate = failure_rate
        self.repair_rate = repair_rate
        self._rng = make_rng(seed)

    def _exponential(self, rate: float) -> float:
        # Inverse-CDF sampling keeps the draw count per event fixed, so the
        # timeline is stable under seed-preserving refactors.
        u = self._rng.random()
        return -math.log(1.0 - u) / rate

    def generate(self, horizon: float) -> list[FailureEvent]:
        """All crash events in ``[0, horizon)``, time-ordered.

        With a non-zero repair rate each crash carries its repair time and
        the component can crash again after repair; with repair rate 0 each
        component crashes at most once (permanent failures).  Every node,
        then every link, is a component.
        """
        check_positive(horizon, "horizon")
        components = [*self.topology.nodes(), *self.topology.links()]
        events: list[FailureEvent] = []
        for component in components:
            clock = self._exponential(self.failure_rate)
            while clock < horizon:
                if self.repair_rate > 0:
                    repair_at = clock + self._exponential(self.repair_rate)
                    events.append(FailureEvent(clock, component, repair_at))
                    clock = repair_at + self._exponential(self.failure_rate)
                else:
                    events.append(FailureEvent(clock, component, None))
                    break
        events.sort(key=lambda event: event.time)
        return events
