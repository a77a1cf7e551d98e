"""Metrics primitives: counters, gauges, and bounded histograms/timers.

A :class:`MetricsRegistry` is a namespace of named instruments.  The
design goals, in order:

1. **Cheap enough to stay on by default.**  Every instrument is a plain
   attribute-update object; instrumented code caches instrument
   references at construction time, so the hot path never does a name
   lookup.
2. **Bounded memory.**  Histograms keep an exact ``count``/``sum``/
   ``min``/``max`` plus a *deterministically decimated* sample buffer for
   percentiles: once the buffer reaches its cap, every other retained
   sample is dropped and the keep-stride doubles, so memory stays
   ``O(cap)`` no matter how many values are recorded — without any RNG,
   which keeps snapshots reproducible across identical runs.
3. **A no-op twin.**  :class:`NullRegistry` hands out shared do-nothing
   instruments so hot loops can be de-instrumented without ``if`` guards
   at every call site; its ``enabled`` flag lets code skip even the
   ``perf_counter`` calls around timed sections.

Counter and gauge values are exactly reproducible across identical
seeded runs; timer *values* are wall-clock and therefore are not (their
``count`` still is).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter

#: Version tag written into every exported snapshot (see docs/architecture.md).
SNAPSHOT_SCHEMA = "repro.metrics/1"

#: Default cap on retained histogram samples (per histogram).
DEFAULT_MAX_SAMPLES = 2048


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount


class Gauge:
    """A spot value with min/max watermarks."""

    __slots__ = ("name", "value", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: "float | None" = None
        self.min = math.inf
        self.max = -math.inf

    def set(self, value: float) -> None:
        """Record the current value, updating the watermarks."""
        self.value = value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def absorb(self, summary: dict) -> None:
        """Fold another gauge's exported summary in (parallel merges).

        The merged ``value`` is the absorbed one (last writer in merge
        order wins); watermarks take the union.
        """
        if summary.get("value") is None:
            return
        self.value = summary["value"]
        if summary["max"] > self.max:
            self.max = summary["max"]
        if summary["min"] < self.min:
            self.min = summary["min"]

    def summary(self) -> dict:
        """``{"value", "min", "max"}`` (all ``None`` before any set)."""
        if self.value is None:
            return {"value": None, "min": None, "max": None}
        return {"value": self.value, "min": self.min, "max": self.max}


class Histogram:
    """A bounded-memory distribution of recorded values.

    Exact ``count``/``sum``/``min``/``max``; percentiles come from a
    decimated sample (see the module docstring), which is exact until
    ``max_samples`` values have been recorded and an evenly spaced
    subsample afterwards.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_samples", "_stride", "_skip")

    #: Retained-sample cap.
    max_samples = DEFAULT_MAX_SAMPLES

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []
        self._stride = 1   # keep 1 of every _stride recorded values
        self._skip = 0     # values left to drop before the next keep

    def record(self, value: float) -> None:
        """Fold one value in."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._skip:
            self._skip -= 1
            return
        samples = self._samples
        samples.append(value)
        if len(samples) >= self.max_samples:
            del samples[::2]
            self._stride *= 2
        self._skip = self._stride - 1

    @property
    def mean(self) -> "float | None":
        return self.total / self.count if self.count else None

    def absorb(self, summary: dict) -> None:
        """Fold another histogram's exported summary in (parallel merges).

        ``count``/``sum``/``min``/``max`` (and hence ``mean``) merge
        exactly.  The absorbed side's percentile *samples* are gone — only
        its summary crossed the process boundary — so the absorbed mean is
        fed into the sample buffer once as a coarse percentile proxy.
        """
        if not summary.get("count"):
            return
        self.count += summary["count"] - 1
        if summary["min"] < self.min:
            self.min = summary["min"]
        if summary["max"] > self.max:
            self.max = summary["max"]
        # Route one representative value through record() so the decimated
        # sample buffer stays consistent; correct the total afterwards.
        self.record(summary["mean"])
        self.total += summary["sum"] - summary["mean"]

    def percentile(self, p: float) -> "float | None":
        """Nearest-rank percentile over the retained sample, or ``None``
        when nothing has been recorded."""
        samples = sorted(self._samples)
        if not samples:
            return None
        rank = max(0, math.ceil(p / 100.0 * len(samples)) - 1)
        return samples[min(rank, len(samples) - 1)]

    def summary(self) -> dict:
        """The exported shape: count/sum/min/max/mean/p50/p95/p99."""
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": None, "p50": None, "p95": None, "p99": None}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class Timer(Histogram):
    """A histogram of elapsed seconds with a context-manager helper."""

    __slots__ = ()

    @contextmanager
    def time(self):
        """``with timer.time(): ...`` records the block's wall time."""
        start = perf_counter()
        try:
            yield self
        finally:
            self.record(perf_counter() - start)


class Series:
    """A bounded time series of ``(time, value)`` points.

    For workload-level signals sampled against a *simulated* clock —
    blocking probability, spare fraction, network load over a churn run.
    Memory is bounded the same way as :class:`Histogram`: once
    ``max_points`` points are retained, every other point is dropped and
    the keep-stride doubles, so the retained series stays an evenly
    spaced deterministic subsample (no RNG) of everything appended.
    ``count`` tracks every append exactly; the first and latest points
    are always retained (the latest outside the decimation buffer), so
    run-boundary values survive decimation.
    """

    __slots__ = ("name", "count", "last_time", "last_value",
                 "_points", "_stride", "_skip")

    #: Retained-point cap.
    max_points = DEFAULT_MAX_SAMPLES

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.last_time: "float | None" = None
        self.last_value: "float | None" = None
        self._points: list[tuple[float, float]] = []
        self._stride = 1
        self._skip = 0

    def append(self, time: float, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.last_time = time
        self.last_value = value
        if self._skip:
            self._skip -= 1
            return
        points = self._points
        points.append((time, value))
        if len(points) >= self.max_points:
            # Keep index 0 (the run's first sample) and every other
            # survivor after it.
            del points[1::2]
            self._stride *= 2
        self._skip = self._stride - 1

    def points(self) -> list[tuple[float, float]]:
        """The retained ``(time, value)`` points, in append order,
        including the latest sample even when decimation skipped it."""
        points = list(self._points)
        if (self.last_time is not None
                and (not points or points[-1][0] != self.last_time)):
            points.append((self.last_time, self.last_value))
        return points

    def absorb(self, summary: dict) -> None:
        """Fold another series' exported summary in (parallel merges).

        The absorbed side's retained points are appended through
        :meth:`append` in order, so the decimation state stays
        consistent; its dropped points are gone (only the summary
        crossed the process boundary), mirroring histogram absorption.
        """
        absorbed = summary.get("points") or []
        for time, value in absorbed:
            self.append(time, value)
        self.count += summary.get("count", len(absorbed)) - len(absorbed)

    def summary(self) -> dict:
        """The exported shape: exact ``count`` plus the retained points."""
        return {
            "count": self.count,
            "points": [[time, value] for time, value in self.points()],
        }


class MetricsRegistry:
    """A namespace of get-or-create instruments.

    Instrument kinds share one namespace: asking for an existing name
    with a different kind raises ``TypeError`` (it is always a bug).
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, kind: type):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif type(instrument) is not kind:
            # A Timer is a histogram of seconds; exported snapshots do not
            # distinguish the two, so a name absorbed from a worker
            # snapshot may be re-requested under either kind.
            if kind is Histogram and type(instrument) is Timer:
                return instrument
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the named histogram."""
        return self._get(name, Histogram)

    def timer(self, name: str) -> Timer:
        """Get or create the named timer (a histogram of seconds)."""
        return self._get(name, Timer)

    def series(self, name: str) -> Series:
        """Get or create the named time series."""
        return self._get(name, Series)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-ready dict of everything recorded so far.

        Shape (the ``repro.metrics/1`` schema)::

            {"schema": "repro.metrics/1",
             "counters":   {name: int},
             "gauges":     {name: {"value", "min", "max"}},
             "histograms": {name: {"count", "sum", "min", "max",
                                   "mean", "p50", "p95", "p99"}},
             "series":     {name: {"count", "points": [[t, v], ...]}}}

        Keys are sorted so identical runs produce identical documents.
        """
        counters: dict[str, int] = {}
        gauges: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        series: dict[str, dict] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.summary()
            elif isinstance(instrument, Series):
                series[name] = instrument.summary()
            else:
                histograms[name] = instrument.summary()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "series": series,
        }

    def absorb(self, snapshot: dict) -> None:
        """Fold an exported ``repro.metrics/1`` snapshot into this registry.

        This is how the parallel execution layer surfaces worker-process
        metrics in the parent session: counters add exactly, gauges merge
        watermarks (absorbed value wins), histograms merge their exact
        ``count``/``sum``/``min``/``max`` (percentile *samples* do not
        cross the process boundary — see :meth:`Histogram.absorb`).
        Unknown histogram names are created as :class:`Timer` so later
        ``timer()`` *and* ``histogram()`` lookups both resolve to them.
        """
        for name, value in snapshot.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
        for name, summary in snapshot.get("gauges", {}).items():
            self.gauge(name).absorb(summary)
        for name, summary in snapshot.get("histograms", {}).items():
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._get(name, Timer)
            elif not isinstance(instrument, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not Histogram"
                )
            instrument.absorb(summary)
        for name, summary in snapshot.get("series", {}).items():
            self.series(name).absorb(summary)


# ----------------------------------------------------------------------
# The no-op twin
# ----------------------------------------------------------------------
class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = None
    min = math.inf
    max = -math.inf

    def set(self, value: float) -> None:
        pass

    def summary(self) -> dict:
        return {"value": None, "min": None, "max": None}


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    min = math.inf
    max = -math.inf
    mean = None

    def record(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> None:
        return None

    def summary(self) -> dict:
        return {"count": 0, "sum": 0.0, "min": None, "max": None,
                "mean": None, "p50": None, "p95": None, "p99": None}

    @contextmanager
    def time(self):
        yield self


class _NullSeries:
    __slots__ = ()
    name = "null"
    count = 0
    last_time = None
    last_value = None

    def append(self, time: float, value: float) -> None:
        pass

    def points(self) -> list:
        return []

    def summary(self) -> dict:
        return {"count": 0, "points": []}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SERIES = _NullSeries()


class NullRegistry(MetricsRegistry):
    """A registry whose instruments do nothing — for hot loops.

    ``enabled`` is ``False`` so instrumented code can also skip the
    clock reads bracketing timed sections.
    """

    enabled = False

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM  # type: ignore[return-value]

    def timer(self, name: str) -> Timer:
        return _NULL_HISTOGRAM  # type: ignore[return-value]

    def series(self, name: str) -> Series:
        return _NULL_SERIES  # type: ignore[return-value]

    def snapshot(self) -> dict:
        return {"schema": SNAPSHOT_SCHEMA, "counters": {}, "gauges": {},
                "histograms": {}, "series": {}}

    def absorb(self, snapshot: dict) -> None:
        pass


#: Shared no-op registry, safe to hand to anything.
NULL_REGISTRY = NullRegistry()


# ----------------------------------------------------------------------
# The process-wide observability session
# ----------------------------------------------------------------------
# Components default to this registry / trace sink when none is passed
# explicitly, which is what lets `python -m repro <cmd> --metrics-out`
# observe a whole run without threading a registry through every
# constructor in the stack.
_registry: MetricsRegistry = MetricsRegistry()
_trace_sink = None  # a repro.sim.trace.TraceLog keeping every row, or None


def get_registry() -> MetricsRegistry:
    """The session's default registry (a real one unless replaced)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the session registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


def get_trace_sink():
    """The session's shared trace sink (a TraceLog), or ``None``."""
    return _trace_sink


def set_trace_sink(sink):
    """Replace the session trace sink (``None`` clears it); returns the
    previous sink."""
    global _trace_sink
    previous = _trace_sink
    _trace_sink = sink
    return previous


@contextmanager
def obs_session(registry: "MetricsRegistry | None" = None, trace_sink=None):
    """Scope a registry (and optional trace sink) as the session default.

    ``registry=None`` installs a fresh :class:`MetricsRegistry`; the
    previous session state is restored on exit.  Yields the registry.
    """
    active = registry if registry is not None else MetricsRegistry()
    previous_registry = set_registry(active)
    previous_sink = set_trace_sink(trace_sink)
    try:
        yield active
    finally:
        set_registry(previous_registry)
        set_trace_sink(previous_sink)
