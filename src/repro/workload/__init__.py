"""Churn workloads: long-lived networks under arrival/departure dynamics.

The paper's evaluation loads a network once and studies it statically;
this package drives a :class:`~repro.core.bcp.BCPNetwork` through a
*churn* process — Poisson arrivals of D-connection requests with
exponential holding times — exercising establishment, teardown, and
spare-pool reconfiguration continuously.  See the "Churn workload"
section of docs/architecture.md.
"""

from repro.workload.churn import (
    ChurnConfig,
    ChurnEngine,
    ChurnStats,
)

__all__ = [
    "ChurnConfig",
    "ChurnEngine",
    "ChurnStats",
]
