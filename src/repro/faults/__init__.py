"""Fault models and scenario enumeration.

The paper's evaluation (Section 7.2) injects three failure models after
the workload is established: single link failures, single node failures,
and double node failures.  This package enumerates those scenarios
(exhaustively or by sampling) and provides a Poisson failure process for
the discrete-event runtime.
"""

from repro.faults.models import FailureScenario
from repro.faults.enumerate import (
    all_single_link_failures,
    all_single_node_failures,
    sample_double_node_failures,
)
from repro.faults.poisson import FailureEvent, PoissonFailureProcess

__all__ = [
    "FailureScenario",
    "all_single_link_failures",
    "all_single_node_failures",
    "sample_double_node_failures",
    "PoissonFailureProcess",
    "FailureEvent",
]
