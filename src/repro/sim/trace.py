"""Structured event tracing for simulations.

A :class:`TraceLog` collects timestamped, categorised events.  The
protocol runtime records every externally meaningful action (detections,
reports, activations, rejoins, preemptions) when tracing is enabled,
which makes protocol runs debuggable and lets tests assert on causal
orderings rather than only on end states.

Tracing is off by default; a disabled log's :meth:`record` is a cheap
no-op so instrumented code needs no guards.

Logs are exportable as JSONL (:meth:`TraceLog.to_jsonl`): one JSON
object per event, in recording order, with keys ``time`` / ``category``
/ ``node`` / ``description`` — the ``repro.trace/1`` schema documented
in docs/architecture.md.  Non-primitive node ids (e.g.
:class:`~repro.network.components.LinkId`) are exported as their
``str()`` form.
"""

from __future__ import annotations

import json
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field

from repro.obs.spans import SpanLog


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event."""

    time: float
    category: str
    node: object
    description: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.time:10.3f}] {self.category:<12} @{self.node}: " \
               f"{self.description}"

    def to_dict(self) -> dict:
        """The event as a JSON-ready dict (``repro.trace/1`` row)."""
        node = self.node
        if not isinstance(node, (int, float, str, bool, type(None))):
            node = str(node)
        return {
            "time": self.time,
            "category": self.category,
            "node": node,
            "description": self.description,
        }


@dataclass
class TraceLog:
    """An append-only, filterable event log."""

    enabled: bool = True
    events: list[TraceEvent] = field(default_factory=list)
    #: Live observers, notified of every recorded event *even when the log
    #: itself is disabled* — reactive consumers (the chaos engine's
    #: trace-triggered injections, the invariant auditor) need the stream,
    #: not the storage.
    listeners: list = field(default_factory=list, repr=False)
    #: Causal spans recorded alongside the flat event stream (see
    #: :mod:`repro.obs.spans`).  Created in ``__post_init__`` with the
    #: same enabled state as the log itself.
    spans: "SpanLog | None" = None

    def __post_init__(self) -> None:
        if self.spans is None:
            self.spans = SpanLog(enabled=self.enabled)

    def record(self, time: float, category: str, node: object,
               description: str) -> None:
        """Append an event (no-op when disabled; listeners always fire)."""
        if self.listeners:
            event = TraceEvent(time, category, node, description)
            for listener in tuple(self.listeners):
                listener(event)
            if self.enabled:
                self.events.append(event)
            return
        if not self.enabled:
            return
        self.events.append(TraceEvent(time, category, node, description))

    def subscribe(self, listener) -> None:
        """Register ``listener(event)`` to run on every recorded event."""
        self.listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        try:
            self.listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    def filter(
        self,
        category: "str | Collection[str] | None" = None,
        node: object = None,
        since: "float | None" = None,
        until: "float | None" = None,
    ) -> list[TraceEvent]:
        """Events matching all given criteria, in recording order.

        ``category`` may be a single name or any collection of names
        (membership match).
        """
        selected: Iterable[TraceEvent] = self.events
        if category is not None:
            if isinstance(category, str):
                selected = (e for e in selected if e.category == category)
            else:
                wanted = frozenset(category)
                selected = (e for e in selected if e.category in wanted)
        if node is not None:
            selected = (e for e in selected if e.node == node)
        if since is not None:
            selected = (e for e in selected if e.time >= since)
        if until is not None:
            selected = (e for e in selected if e.time <= until)
        return list(selected)

    def format(self, limit: "int | None" = None,
               tail: "int | None" = None) -> str:
        """Human-readable timeline — the first ``limit`` rows, or the last
        ``tail`` rows (mutually exclusive)."""
        if limit is not None and tail is not None:
            raise ValueError("pass at most one of limit and tail")
        lines: list[str] = []
        selected = self.events
        rows = selected
        if tail is not None:
            rows = selected[-tail:] if tail else []
            if len(selected) > len(rows):
                lines.append(f"... ({len(selected) - len(rows)} earlier)")
        elif limit is not None:
            rows = selected[:limit]
        lines.extend(
            f"[{event.time:10.3f}] {event.category:<12} "
            f"@{event.node}: {event.description}"
            for event in rows
        )
        if limit is not None and len(selected) > limit:
            lines.append(f"... ({len(selected) - limit} more)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_dicts(self) -> Iterator[dict]:
        """Every event as a JSON-ready dict, in recording order."""
        return (event.to_dict() for event in self.events)

    def to_jsonl(self) -> str:
        """The log as JSONL (one compact JSON object per line, trailing
        newline; empty string for an empty log).

        Event rows (``repro.trace/1``) come first, then span rows
        (``repro.spans/1``, identified by their ``span`` key) — one
        stream a reader can split by key.
        """
        lines = [json.dumps(row, sort_keys=True) for row in self.to_dicts()]
        lines.extend(json.dumps(row, sort_keys=True)
                     for row in self.spans.to_dicts())
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self.events)
