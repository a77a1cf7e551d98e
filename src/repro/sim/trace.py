"""The run's one event log.

A :class:`TraceLog` is an append-only sequence of :class:`Row` s, one per
protocol step.  A row is a *point* (``t_end == t``) or a *span* opened by
:meth:`TraceLog.begin` and closed by :meth:`TraceLog.end` (``t_end`` is
``None`` while it is open).  A row's ``parent`` is the id of the span it
belongs to: the protocol runtime opens one ``episode`` span per
connection whose primary is hit and files the detect / report-hop /
informed / activate / resumed steps of that recovery under it, so a
recovery's causal chain is a walk over parent ids.

Ids come from one deterministic counter over every row, in emission
order — no wall clock, no randomness — so two runs of one seed write
byte-identical logs, and :meth:`TraceLog.absorb` renumbers another log's
rows (ids *and* parents) so pooled runs merge into the stream a
sequential run writes.

``keep`` says what the log stores: every row (``None``), none (``0``),
or the last *N* — the bounded tail a chaos run's flight recording is cut
from.  Listeners see every row either way.  Emit sites guard on
:attr:`TraceLog.active`, so a log nobody reads costs one attribute test
per step.

:meth:`TraceLog.to_jsonl` writes the ``repro.trace/2`` schema
(docs/architecture.md): one JSON object per row, in emission order, keys
``id`` / ``parent`` / ``kind`` / ``node`` / ``t`` / ``t_end`` /
``attrs``.  Non-primitive nodes (a :class:`~repro.network.components.
LinkId`) are exported as their ``str()`` form.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

#: Schema of an exported log (one row object per JSONL line).
TRACE_SCHEMA = "repro.trace/2"

#: Schema of a flight recording: the last rows before a failure.
FLIGHT_SCHEMA = "repro.flight/2"

#: Rows a flight recording holds.
FLIGHT_ROWS = 256

#: Every row kind the program emits; a chaos trigger arms on one of them.
KINDS = frozenset({
    # the run and the injected faults
    "run", "failure", "repair", "episode", "primary-failed",
    # detection and reporting (§4.1)
    "detect", "report-hop", "informed",
    # channel switching (§4.2-4.3)
    "activate", "resumed", "recovered", "activation-ack",
    "activation-retry", "activation-stale", "activation-adopt",
    "switchover-demote", "switchover-exhausted", "switchover-reconcile",
    "switchover-restore", "mux-failure", "preemption", "unrecoverable",
    # soft state and teardown (§4.4)
    "rejoined", "teardown",
    # the combinatorial evaluator's per-scenario summary
    "scenario",
})


@dataclass(slots=True)
class Row:
    """One step: a point (``t_end == t``) or a span (``t_end`` set when
    it ends, ``None`` while it is open)."""

    id: int
    parent: "int | None"
    kind: str
    node: object
    t: float
    t_end: "float | None"
    attrs: dict

    def __str__(self) -> str:
        """``[t] kind @node k=v …`` — the one rendering of a row."""
        text = f"[{self.t:10.3f}] {self.kind} @{self.node}"
        if self.t_end != self.t:
            text += f" t_end={self.t_end}"
        return text + "".join(f" {key}={value}"
                              for key, value in self.attrs.items())

    def to_dict(self) -> dict:
        """The row as a JSON-ready dict (a ``repro.trace/2`` row)."""
        node = self.node
        if not isinstance(node, (int, float, str, bool, type(None))):
            node = str(node)
        return {"id": self.id, "parent": self.parent, "kind": self.kind,
                "node": node, "t": self.t, "t_end": self.t_end,
                "attrs": dict(self.attrs)}


class TraceLog:
    """An append-only log of :class:`Row` s with deterministic ids."""

    def __init__(self, keep: "int | None" = None) -> None:
        if keep is not None and keep < 0:
            raise ValueError(f"keep must be None (every row) or >= 0, "
                             f"got {keep}")
        #: ``None`` keeps every row, ``0`` none, ``N`` the last N.
        self.keep = keep
        self.rows: "list[Row] | deque[Row]" = (
            [] if keep is None else deque(maxlen=keep))
        #: Called as ``listener(row)`` on every row, kept or not.
        self.listeners: list = []
        #: Whether a row emitted now reaches anyone — the guard of every
        #: emit site.
        self.active = keep != 0
        #: The id the next row gets.
        self.next_id = 1
        self._open: dict[int, Row] = {}

    # ------------------------------------------------------------------
    def point(self, kind: str, node: object, t: float,
              parent: "int | None" = None, **attrs: object) -> int:
        """Record an instantaneous step; returns its id."""
        row = Row(self.next_id, parent, kind, node, t, t, attrs)
        self._append(row)
        return row.id

    def begin(self, kind: str, node: object, t: float,
              parent: "int | None" = None, **attrs: object) -> int:
        """Open a span; returns its id."""
        row = Row(self.next_id, parent, kind, node, t, None, attrs)
        self._open[row.id] = row
        self._append(row)
        return row.id

    def end(self, row_id: int, t_end: float, **attrs: object) -> None:
        """Close an open span, adding ``attrs`` (no-op for an id that is
        not open)."""
        row = self._open.pop(row_id, None)
        if row is not None:
            row.t_end = t_end
            row.attrs.update(attrs)

    def absorb(self, rows: Iterable[Row]) -> None:
        """Append another log's rows, numbered after this log's own.

        Ids and parents shift by one offset, so causal links survive, and
        absorbing worker logs in task order writes exactly the stream a
        sequential run would have.
        """
        offset = self.next_id - 1
        for row in rows:
            parent = None if row.parent is None else row.parent + offset
            self._append(Row(row.id + offset, parent, row.kind, row.node,
                             row.t, row.t_end, dict(row.attrs)))

    def _append(self, row: Row) -> None:
        self.next_id = row.id + 1
        self.rows.append(row)
        for listener in self.listeners:
            listener(row)

    def subscribe(self, listener) -> None:
        """Call ``listener(row)`` on every row from now on."""
        self.listeners.append(listener)
        self.active = True

    def unsubscribe(self, listener) -> None:
        """Remove a subscribed listener (no-op if absent)."""
        if listener in self.listeners:
            self.listeners.remove(listener)
        self.active = self.keep != 0 or bool(self.listeners)

    # ------------------------------------------------------------------
    def select(self, *kinds: str) -> list[Row]:
        """The kept rows of the given kinds, in emission order."""
        return [row for row in self.rows if row.kind in kinds]

    def format(self) -> str:
        """The kept rows, one ``str(row)`` line each."""
        return "\n".join(map(str, self.rows))

    def to_jsonl(self) -> str:
        """The kept rows as ``repro.trace/2`` JSONL (one compact object
        per line, trailing newline; empty string for an empty log)."""
        lines = [json.dumps(row.to_dict(), sort_keys=True)
                 for row in self.rows]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceLog":
        """A log holding the rows of a ``repro.trace/2`` document; a line
        of any other shape is a ``ValueError``."""
        rows = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            data = json.loads(line)
            try:
                rows.append(Row(data["id"], data["parent"], data["kind"],
                                data["node"], data["t"], data["t_end"],
                                data["attrs"]))
            except (KeyError, TypeError):
                raise ValueError(
                    f"line {number} is not a {TRACE_SCHEMA} row (a "
                    f"repro.trace/1 export predates the one-log format; "
                    f"re-run with --trace-out)"
                ) from None
        log = cls()
        log.absorb(rows)
        return log

    def __len__(self) -> int:
        return len(self.rows)


def flight_record(rows: Iterable[Row], reason: str, context: dict) -> dict:
    """A ``repro.flight/2`` recording: the last :data:`FLIGHT_ROWS` of
    ``rows`` with why they were cut (``reason``) and caller metadata."""
    tail = list(rows)[-FLIGHT_ROWS:]
    return {
        "schema": FLIGHT_SCHEMA,
        "reason": reason,
        "capacity": FLIGHT_ROWS,
        "rows": [row.to_dict() for row in tail],
        "context": context,
    }
