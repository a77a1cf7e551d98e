"""Export and rendering of metrics snapshots and trace logs.

Two machine-readable formats (documented in docs/architecture.md):

* **metrics JSON** — one ``repro.metrics/1`` snapshot document, written
  by :func:`write_metrics`.  Keys are sorted, so two identical seeded
  runs produce byte-identical ``counters`` sections (timer values are
  wall-clock and will differ).
* **trace JSONL** — the ``repro.trace/2`` rows of a
  :class:`~repro.sim.trace.TraceLog`, one JSON object per row in
  emission order, written by :func:`write_trace`.

:func:`format_metrics` renders a snapshot as the aligned ASCII tables
used by ``python -m repro stats``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.registry import MetricsRegistry
from repro.util.tables import format_table


def write_json(document, path: "Path | str") -> Path:
    """Write ``document`` the way every JSON artifact of the package is
    written — indent 2, sorted keys, trailing newline — so two runs can be
    compared with ``cmp``; returns the target path."""
    target = Path(path)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


def write_metrics(
    registry: MetricsRegistry,
    path: "Path | str",
    command: "str | None" = None,
) -> Path:
    """Write the registry's snapshot as pretty-printed JSON; returns the
    target path.  ``command`` tags the document with what produced it."""
    snapshot = registry.snapshot()
    if command is not None:
        snapshot["command"] = command
    return write_json(snapshot, path)


def write_trace(trace, path: "Path | str") -> Path:
    """Write a :class:`~repro.sim.trace.TraceLog` as JSONL; returns the
    target path."""
    target = Path(path)
    target.write_text(trace.to_jsonl())
    return target


def _series_quantile(summary: dict, q: float) -> "float | None":
    """Nearest-rank quantile over a series summary's retained point
    values."""
    values = sorted(point[1] for point in summary.get("points") or [])
    if not values:
        return None
    rank = max(0, math.ceil(q * len(values)) - 1)
    return values[min(rank, len(values) - 1)]


def _fmt(value) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_metrics(snapshot: dict, title: "str | None" = None) -> str:
    """Render one snapshot as counter/gauge/histogram tables."""
    parts: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        parts.append(format_table(
            ["counter", "value"],
            [[name, value] for name, value in sorted(counters.items())],
            title=title or "Metrics summary",
        ))
    gauges = snapshot.get("gauges", {})
    if gauges:
        parts.append(format_table(
            ["gauge", "value", "min", "max"],
            [[name, _fmt(g["value"]), _fmt(g["min"]), _fmt(g["max"])]
             for name, g in sorted(gauges.items())],
        ))
    histograms = snapshot.get("histograms", {})
    if histograms:
        parts.append(format_table(
            ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
            [[name, h["count"], _fmt(h["mean"]), _fmt(h["p50"]),
              _fmt(h["p95"]), _fmt(h["p99"]), _fmt(h["max"])]
             for name, h in sorted(histograms.items())],
        ))
    series = snapshot.get("series", {})
    if series:
        parts.append(format_table(
            ["series", "count", "points", "p50", "p95", "p99",
             "last time", "last value"],
            [[name, s["count"], len(s["points"]),
              _fmt(_series_quantile(s, 0.50)),
              _fmt(_series_quantile(s, 0.95)),
              _fmt(_series_quantile(s, 0.99)),
              _fmt(s["points"][-1][0] if s["points"] else None),
              _fmt(s["points"][-1][1] if s["points"] else None)]
             for name, s in sorted(series.items())],
        ))
    if not parts:
        return (title or "Metrics summary") + "\n(no metrics recorded)"
    return "\n\n".join(parts)
