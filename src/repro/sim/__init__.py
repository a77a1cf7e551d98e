"""Discrete-event simulation kernel.

A minimal, dependency-free event engine (the offline environment has no
simpy): a monotonic clock, a binary-heap calendar and cancellable events,
which are also every protocol timer.  The BCP protocol runtime in
:mod:`repro.protocol` is built on it, and records every step into one
:class:`TraceLog`.
"""

from repro.sim.engine import EventEngine, EventHandle, SimulationError
from repro.sim.trace import Row, TraceLog

__all__ = [
    "EventEngine",
    "EventHandle",
    "SimulationError",
    "TraceLog",
    "Row",
]
