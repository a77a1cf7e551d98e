"""Steady-state recovery evaluation: the R_fast methodology of Section 7.2.

Given a loaded :class:`~repro.core.bcp.BCPNetwork` and a failure scenario,
the evaluator determines — without mutating the network — which primaries
fail, which connections recover fast via a backup, and which suffer
multiplexing failures or total channel loss.  Aggregating over a scenario
set yields the paper's *fast recovery rate*.
"""

from repro.recovery.evaluator import (
    ActivationOrder,
    ConnectionOutcome,
    RecoveryEvaluator,
    ScenarioResult,
    evaluate_scenarios,
)
from repro.recovery.grouping import (
    by_mux_degree,
    by_source,
    evaluate_grouped,
)
from repro.recovery.metrics import RecoveryStats

__all__ = [
    "RecoveryEvaluator",
    "ScenarioResult",
    "ConnectionOutcome",
    "ActivationOrder",
    "RecoveryStats",
    "evaluate_scenarios",
    "evaluate_grouped",
    "by_mux_degree",
    "by_source",
]
