"""Declarative service-level objectives over metrics snapshots.

An :class:`SLOTarget` is parsed from a compact spec string::

    recovery_delay.p99 <= gamma
    churn.establish_latency.p99 <= 12
    protocol.unrecoverable.value <= 0

The left side names an instrument in a ``repro.metrics/1`` snapshot and
a statistic on it; the right side is a numeric threshold or a *symbolic*
constant (e.g. ``gamma``) resolved at evaluation time via the
``constants`` mapping — this is how ``recovery_delay.p99 <= gamma``
binds to the analytic Γ bound of whatever network the run used.

Statistic resolution order for a metric name: histogram → series →
gauge → counter.  Supported statistics:

* histograms — ``count``, ``mean``, ``min``, ``max``, ``p50``, ``p95``,
  ``p99`` (any ``pNN`` re-computed exactly from the decimated samples),
* series — ``count``, ``mean``, ``min``, ``max``, ``last``, any ``pNN``
  (nearest-rank over the retained points),
* gauges — ``value``, ``min``, ``max``,
* counters — ``value`` (alias ``count``).

A target naming a missing metric **breaches** (an SLO over something
that never got recorded is a misconfiguration worth failing loudly);
a present metric whose statistic is undefined (e.g. an empty histogram)
is *skipped* (``ok is None``).

:class:`SLOEngine` evaluates a set of targets against one snapshot and
returns :class:`SLOResult` rows; the churn engine runs one evaluation
per epoch, the chaos CLI one per campaign.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_PCT = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")


def _nearest_rank(values: list, q: float):
    """Exact nearest-rank quantile (q in [0, 1]) over a sorted list."""
    if not values:
        return None
    if q <= 0:
        return values[0]
    if q >= 1:
        return values[-1]
    import math

    rank = math.ceil(q * len(values))
    return values[max(0, rank - 1)]


@dataclass(frozen=True)
class SLOTarget:
    """One declarative objective: ``metric.stat <op> threshold``."""

    metric: str
    stat: str
    op: str  # "<=" | ">="
    threshold: "float | str"  # number, or symbolic constant name

    @staticmethod
    def parse(spec: str) -> "SLOTarget":
        """Parse ``"name.stat <= value"`` (or ``>=``)."""
        for op in ("<=", ">="):
            if op in spec:
                left, _, right = spec.partition(op)
                break
        else:
            raise ValueError(
                f"SLO spec {spec!r} needs a '<=' or '>=' comparison"
            )
        left = left.strip()
        if "." not in left:
            raise ValueError(
                f"SLO spec {spec!r} needs a 'metric.stat' left side"
            )
        metric, _, stat = left.rpartition(".")
        right = right.strip()
        if not metric or not stat or not right:
            raise ValueError(f"malformed SLO spec {spec!r}")
        threshold: "float | str"
        try:
            threshold = float(right)
        except ValueError:
            threshold = right  # symbolic; resolved at evaluation time
        return SLOTarget(metric=metric, stat=stat, op=op,
                         threshold=threshold)

    def spec(self) -> str:
        """The canonical spec string."""
        threshold = self.threshold
        if isinstance(threshold, float):
            threshold = f"{threshold:g}"
        return f"{self.metric}.{self.stat} {self.op} {threshold}"


@dataclass(frozen=True)
class SLOResult:
    """Outcome of evaluating one target against one snapshot."""

    target: SLOTarget
    observed: "float | None"
    threshold: "float | None"
    #: True = met, False = breached, None = skipped (no data to judge).
    ok: "bool | None"
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "spec": self.target.spec(),
            "observed": self.observed,
            "threshold": self.threshold,
            "ok": self.ok,
            "detail": self.detail,
        }


def _stat_from_histogram(h: dict, stat: str):
    if stat in ("count", "mean", "min", "max", "p50", "p95", "p99"):
        return h.get(stat)
    match = _PCT.match(stat)
    if match:
        samples = sorted(h.get("samples") or [])
        return _nearest_rank(samples, float(match.group(1)) / 100.0)
    raise ValueError(f"unknown histogram statistic {stat!r}")


def _stat_from_series(s: dict, stat: str):
    values = [point[1] for point in s.get("points") or []]
    if stat == "count":
        return s.get("count")
    if stat == "last":
        return values[-1] if values else None
    if stat == "mean":
        return sum(values) / len(values) if values else None
    if stat == "min":
        return min(values) if values else None
    if stat == "max":
        return max(values) if values else None
    match = _PCT.match(stat)
    if match:
        return _nearest_rank(sorted(values), float(match.group(1)) / 100.0)
    raise ValueError(f"unknown series statistic {stat!r}")


class SLOEngine:
    """Evaluate declarative targets against metrics snapshots."""

    def __init__(self, targets) -> None:
        self.targets: list[SLOTarget] = [
            t if isinstance(t, SLOTarget) else SLOTarget.parse(t)
            for t in targets
        ]

    def evaluate(self, snapshot: dict,
                 constants: "dict[str, float] | None" = None,
                 ) -> list[SLOResult]:
        """Judge every target against ``snapshot``; symbolic thresholds
        are resolved via ``constants`` (unresolvable ones breach)."""
        constants = constants or {}
        results: list[SLOResult] = []
        for target in self.targets:
            results.append(self._evaluate_one(target, snapshot, constants))
        return results

    def breaches(self, snapshot: dict) -> list[SLOResult]:
        """Only the breached results (``ok is False``), judged without
        constants: a symbolic threshold breaches as unresolved."""
        return [r for r in self.evaluate(snapshot) if r.ok is False]

    # ------------------------------------------------------------------
    def _evaluate_one(self, target: SLOTarget, snapshot: dict,
                      constants: dict) -> SLOResult:
        threshold = target.threshold
        if isinstance(threshold, str):
            if threshold not in constants:
                return SLOResult(
                    target, None, None, False,
                    f"unresolved constant {threshold!r}",
                )
            threshold = float(constants[threshold])
        try:
            found, observed = self._observe(target, snapshot)
        except ValueError as exc:
            return SLOResult(target, None, threshold, False, str(exc))
        if not found:
            return SLOResult(
                target, None, threshold, False,
                f"metric {target.metric!r} not in snapshot",
            )
        if observed is None:
            return SLOResult(target, None, threshold, None, "no data")
        ok = (observed <= threshold if target.op == "<="
              else observed >= threshold)
        return SLOResult(target, float(observed), threshold, ok)

    @staticmethod
    def _observe(target: SLOTarget, snapshot: dict):
        """Returns ``(found, observed)``."""
        name, stat = target.metric, target.stat
        histograms = snapshot.get("histograms", {})
        if name in histograms:
            return True, _stat_from_histogram(histograms[name], stat)
        series = snapshot.get("series", {})
        if name in series:
            return True, _stat_from_series(series[name], stat)
        gauges = snapshot.get("gauges", {})
        if name in gauges:
            if stat not in ("value", "min", "max"):
                raise ValueError(f"unknown gauge statistic {stat!r}")
            return True, gauges[name].get(stat)
        counters = snapshot.get("counters", {})
        if name in counters:
            if stat not in ("value", "count"):
                raise ValueError(f"unknown counter statistic {stat!r}")
            return True, counters[name]
        return False, None


def format_results(results, title: str = "SLO evaluation") -> str:
    """Render evaluation results as an aligned table."""
    from repro.util.tables import format_table

    def fmt(value) -> str:
        if value is None:
            return "-"
        return f"{value:.6g}"

    rows = []
    for r in results:
        status = "ok" if r.ok else ("BREACH" if r.ok is False else "skip")
        rows.append([r.target.spec(), fmt(r.observed), fmt(r.threshold),
                     status, r.detail])
    return format_table(
        ["target", "observed", "threshold", "status", "detail"],
        rows, title=title,
    )
