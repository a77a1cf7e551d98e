"""The flight recorder: a bounded ring buffer of recent trace events.

Attached to a live :class:`~repro.sim.trace.TraceLog`, it keeps the last
``capacity`` events (and can pair them with the trailing spans of the
log's span stream) so that when something goes wrong — an
:class:`~repro.protocol.invariants.InvariantAuditor` violation, an SLO
breach — the run can dump a small, replayable ``repro.flight/1``
artifact showing what led up to the failure, without having stored the
full trace.

The listener hook fires even on disabled logs (see ``TraceLog.record``),
so the recorder works on runs that are not otherwise tracing.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

from repro.obs.export import write_json

#: Schema tag for dumped flight artifacts.
FLIGHT_SCHEMA = "repro.flight/1"

#: Default ring size (events and spans each).
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """A bounded ring of the most recent trace events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self._trace = None

    # ------------------------------------------------------------------
    def on_event(self, event) -> None:
        """Trace listener: fold one event into the ring."""
        self._events.append(event.to_dict())

    def attach(self, trace) -> "FlightRecorder":
        """Subscribe to a trace log's event stream."""
        self._trace = trace
        trace.subscribe(self.on_event)
        return self

    def detach(self) -> None:
        """Unsubscribe from the attached trace log (no-op when none)."""
        if self._trace is not None:
            self._trace.unsubscribe(self.on_event)
            self._trace = None

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    def snapshot(self, reason: str = "", spans=None,
                 context: "dict | None" = None) -> dict:
        """The ring's contents as a JSON-ready ``repro.flight/1`` dict.

        ``spans`` may be a :class:`~repro.obs.spans.SpanLog`, whose last
        ``capacity`` spans ride along; ``context`` is free-form caller
        metadata (schedule seed, breached SLO spec, ...).
        """
        span_rows: list[dict] = []
        if spans is not None:
            span_rows = [span.to_dict()
                         for span in spans.tail(self.capacity)]
        return {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "capacity": self.capacity,
            "events": list(self._events),
            "spans": span_rows,
            "context": dict(context or {}),
        }

    def dump(self, path: "Path | str", reason: str = "", spans=None,
             context: "dict | None" = None) -> Path:
        """Write the snapshot as pretty-printed JSON; returns the path."""
        return write_json(
            self.snapshot(reason=reason, spans=spans, context=context), path
        )
