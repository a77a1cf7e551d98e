"""Causal spans: lightweight, deterministic units of traced work.

A :class:`Span` is an interval (or instant) with a kind, a parent, and
free-form attributes.  Spans are the causal layer on top of the flat
:class:`~repro.sim.trace.TraceLog` event stream: the protocol runtime
opens an ``episode`` span when a primary channel loses a component and
every downstream action (detection, report hops, activation, resumption)
attaches to it as a child, so an offline reader can reconstruct *why*
each recovery took as long as it did.

Design constraints, mirrored from the metrics registry:

* **Deterministic ids.**  Span ids are a monotone counter starting at 1,
  assigned in emission order.  No wall clock, no randomness — two runs
  of the same seed produce byte-identical span streams, and
  :meth:`SpanLog.absorb` remaps ids so pooled runs
  (:func:`repro.parallel.parallel_map`) merge into the same stream the
  sequential run would have produced.
* **Inert when disabled.**  A disabled log's ``begin``/``end``/``point``
  are cheap no-ops returning id 0, so instrumented code needs only a
  single ``if spans.enabled`` guard around attribute construction.

Export rows carry the ``repro.spans/1`` schema: one JSON object per
span with keys ``span`` / ``parent`` / ``kind`` / ``t_start`` /
``t_end`` / ``attrs`` — distinguishable from ``repro.trace/1`` event
rows (which have no ``span`` key) so both can share one JSONL stream.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

#: Schema tag for exported span rows.
SPAN_SCHEMA = "repro.spans/1"


@dataclass(slots=True)
class Span:
    """One causal span (interval when ``t_end`` is set, instant otherwise)."""

    span_id: int
    parent_id: "int | None"
    kind: str
    t_start: float
    t_end: "float | None" = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The span as a JSON-ready dict (``repro.spans/1`` row)."""
        attrs = {key: self.attrs[key] for key in sorted(self.attrs)}
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "attrs": attrs,
        }


@dataclass
class SpanLog:
    """An append-only log of causal spans with deterministic ids."""

    enabled: bool = True
    spans: list[Span] = field(default_factory=list)
    _by_id: dict[int, Span] = field(default_factory=dict, repr=False)
    _next_id: int = field(default=1, repr=False)

    # ------------------------------------------------------------------
    def begin(self, kind: str, t_start: float,
              parent: "int | None" = None, **attrs: object) -> int:
        """Open a span; returns its id (0 when the log is disabled)."""
        if not self.enabled:
            return 0
        span = Span(self._next_id, parent or None, kind, t_start,
                    attrs=dict(attrs))
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span.span_id

    def end(self, span_id: int, t_end: float, **attrs: object) -> None:
        """Close a previously opened span (no-op for id 0 / unknown ids)."""
        span = self._by_id.get(span_id)
        if span is None:
            return
        span.t_end = t_end
        if attrs:
            span.attrs.update(attrs)

    def point(self, kind: str, t: float,
              parent: "int | None" = None, **attrs: object) -> int:
        """Record an instantaneous span (``t_end == t_start``)."""
        if not self.enabled:
            return 0
        span_id = self.begin(kind, t, parent, **attrs)
        self._by_id[span_id].t_end = t
        return span_id

    def get(self, span_id: int) -> "Span | None":
        """The span with the given id, if any."""
        return self._by_id.get(span_id)

    # ------------------------------------------------------------------
    def tail(self, n: int) -> list[Span]:
        """The last ``n`` spans, in emission order."""
        return self.spans[-n:] if n else []

    def absorb(self, spans: Iterable[Span]) -> None:
        """Merge spans emitted by another (worker) log into this one.

        Ids are remapped by a constant offset so the merged stream keeps
        unique, monotone ids; parent links are shifted by the same
        offset, preserving the causal structure.  Replaying worker logs
        in task order therefore reproduces the exact stream a
        sequential run would have written.
        """
        offset = self._next_id - 1
        for span in spans:
            parent = span.parent_id + offset if span.parent_id else None
            merged = Span(span.span_id + offset, parent, span.kind,
                          span.t_start, span.t_end, dict(span.attrs))
            self.spans.append(merged)
            self._by_id[merged.span_id] = merged
            self._next_id = max(self._next_id, merged.span_id + 1)

    # ------------------------------------------------------------------
    def to_dicts(self) -> Iterator[dict]:
        """Every span as a JSON-ready dict, in emission order."""
        return (span.to_dict() for span in self.spans)

    def __len__(self) -> int:
        return len(self.spans)


class _NullSpanLog(SpanLog):
    """The shared inert span log (``enabled`` is permanently False)."""

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def end(self, span_id: int, t_end: float, **attrs: object) -> None:
        return None

    def absorb(self, spans: Iterable[Span]) -> None:
        return None


#: Shared inert instance for de-instrumented code paths.
NULL_SPAN_LOG = _NullSpanLog()
