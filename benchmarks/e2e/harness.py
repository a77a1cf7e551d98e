"""Repetition loop, calibrated clock and metric assembly.

A workload (see :mod:`workloads`) marks the regions that count with
``with clock.timed() as segment:``.  Every such segment is bracketed by
two short calibration slices, and its raw seconds are converted with
its own bracket (:func:`calibration.calibrated`) — the host's speed
moves on a scale of seconds, so a bracket per ~0.5 s segment tracks it
where one bracket per ~5 s repetition does not (measured while sizing
the benchmark: quartile spread of ``paper-build`` repetitions 14 % with
end-point brackets, 3.5 % with per-segment brackets, 8 % raw).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import calibration
import layers
import tracing

#: Fewest kept repetitions a run reports from.
MIN_REPS = 3
#: Traced runs cycle one untraced repetition (the overhead reference)
#: and this many traced ones.
TRACED_PER_CYCLE = 2
#: A calibration slice older than this is not reused as a segment's
#: ``before`` bracket.
_STALE_S = 0.05
#: Largest share of a traced repetition that parentless spans may cover
#: before per-layer self times are refused as double-counted.
MAX_ORPHAN_FRAC = 0.02

def percentile(samples, p: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than ten samples
    beyond it (the tail would be a single outlier's value)."""
    count = len(samples)
    if count * (100.0 - p) / 100.0 < 10.0:
        raise ValueError(
            f"p{p:g} of {count} samples has fewer than 10 samples beyond it"
        )
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(count * p / 100.0) - 1)]


@dataclass
class Segment:
    """One timed region and its calibration bracket."""

    label: str
    before: float
    raw: float = 0.0
    after: float = 0.0
    #: Raw seconds of the unit operations timed inside the segment.
    ops: list = field(default_factory=list)
    #: ``tracer.spans[first:last]`` finished inside it (traced runs).
    first: int = 0
    last: int = 0
    root: "int | None" = None

    @property
    def factor(self) -> float:
        return calibration.calibrated(1.0, self.before, self.after)

    @property
    def seconds(self) -> float:
        """Calibrated seconds."""
        return self.raw * self.factor


class Clock:
    """Hands out timed segments and owns the calibration slices."""

    def __init__(self, tracer: "tracing.Tracer | None" = None) -> None:
        self.tracer = tracer
        #: Whether segments opened now record spans.
        self.tracing = False
        self.segments: list[Segment] = []
        self.slices: list[float] = []
        self._last_slice_end = -math.inf

    def calibrate(self) -> float:
        elapsed = calibration.calibration_loop()
        self.slices.append(elapsed)
        self._last_slice_end = perf_counter()
        return elapsed

    @contextmanager
    def timed(self, label: str = ""):
        if perf_counter() - self._last_slice_end > _STALE_S:
            self.calibrate()
        segment = Segment(label, self.slices[-1])
        tracer = self.tracer if self.tracing else None
        token = None
        if tracer is not None:
            segment.first = len(tracer.spans)
            tracer.active = True
            token = tracer.begin("harness", "segment")
        started = perf_counter()
        try:
            yield segment
        finally:
            segment.raw = perf_counter() - started
            if tracer is not None:
                tracer.end(token)
                tracer.active = False
                segment.root = token[0]
                segment.last = len(tracer.spans)
            segment.after = self.calibrate()
            self.segments.append(segment)


@dataclass
class Outcome:
    """What one repetition of a workload reports besides its timing."""

    attempted: int
    failed: int = 0
    #: Output-check failures; any entry fails the whole repetition.
    problems: list = field(default_factory=list)
    #: Simulated statistics (deterministic for a seed).
    stats: dict = field(default_factory=dict)
    #: Everything that must repeat exactly from one repetition to the next.
    signature: tuple = ()
    #: Per-layer counters the spans cannot see.
    counters: dict = field(default_factory=dict)


@dataclass
class Rep:
    segments: list
    outcome: Outcome
    traced: bool = False

    @property
    def seconds(self) -> float:
        return sum(segment.seconds for segment in self.segments)

    @property
    def raw(self) -> float:
        return sum(segment.raw for segment in self.segments)

    @property
    def drift(self) -> float:
        """Mean disagreement of the segments' brackets.  Built from the
        calibration slices alone — never from a measured value."""
        return calibration.mean_drift(
            (segment.before, segment.after) for segment in self.segments
        )

    @property
    def drifted(self) -> bool:
        return calibration.drifted(self.drift)

    def admit_ms(self) -> list:
        return admit_ms(self.segments)


def admit_ms(segments) -> list:
    """Calibrated milliseconds of every unit operation timed in
    ``segments``, each scaled by its own segment's bracket."""
    return [
        1000.0 * op * segment.factor
        for segment in segments
        for op in segment.ops
    ]


def run_rep(workload, clock: Clock, traced: bool = False) -> Rep:
    gc.collect()
    first = len(clock.segments)
    clock.tracing = traced
    try:
        outcome = workload.rep(clock)
    finally:
        clock.tracing = False
    return Rep(clock.segments[first:], outcome, traced)


def keep(reps: list, wanted: int) -> tuple[list, int]:
    """Apply the drift-discard rule: ``(kept, discarded count)``.

    Drifted repetitions are dropped; if that leaves fewer than
    ``wanted``, the least-drifted of them are taken back so the run
    still reports.  Only calibration readings are consulted.
    """
    steady = [rep for rep in reps if not rep.drifted]
    shaky = sorted((rep for rep in reps if rep.drifted),
                   key=lambda rep: rep.drift)
    refill = max(0, min(wanted, len(reps)) - len(steady))
    return steady + shaky[:refill], len(shaky) - refill


def measure(workload, clock: Clock, seconds: float, traced: bool) -> list:
    """Run repetitions for ``seconds``.

    Untraced: until :data:`MIN_REPS` steady repetitions exist, re-running
    drifted ones for at most half of ``seconds`` more (and never more
    than as many extra repetitions as fit).  Traced: whole cycles of one
    untraced repetition — the overhead reference, run with the wrappers
    taken out again — and :data:`TRACED_PER_CYCLE` traced ones.
    """
    reps: list[Rep] = []
    started = perf_counter()
    tracer = clock.tracer
    cycle = 1 + TRACED_PER_CYCLE
    while True:
        trace_this = traced and len(reps) % cycle != 0
        if trace_this and not tracer.installed:
            layers.install(tracer)
        elif tracer is not None and not trace_this:
            tracer.uninstall()
        reps.append(run_rep(workload, clock, trace_this))
        elapsed = perf_counter() - started
        if elapsed < seconds:
            continue
        if traced:
            if len(reps) % cycle == 0:
                break
            continue
        steady = sum(1 for rep in reps if not rep.drifted)
        fit = max(MIN_REPS, math.ceil(seconds * len(reps) / elapsed))
        if (steady >= MIN_REPS or elapsed >= 1.5 * seconds
                or len(reps) >= 2 * fit):
            break
    if tracer is not None:
        tracer.uninstall()
    return reps


# ----------------------------------------------------------------------
# assembling the result
# ----------------------------------------------------------------------
def check_repeats(reps: list, problems: list) -> None:
    """Seed-dependent outputs cannot be pinned; they must at least be
    identical in every repetition of the run."""
    signatures = {rep.outcome.signature for rep in reps}
    if len(signatures) > 1:
        problems.append(
            f"outputs differ between repetitions: {len(signatures)} distinct "
            f"signatures in {len(reps)} repetitions"
        )


def tally(reps: list, problems: list) -> tuple[int, int]:
    """``(attempted, failed)`` unit operations over ``reps``; a
    repetition with an output-check failure fails all of its operations."""
    attempted = failed = 0
    for rep in reps:
        outcome = rep.outcome
        attempted += outcome.attempted
        failed += outcome.attempted if outcome.problems else outcome.failed
        problems.extend(outcome.problems)
    return attempted, failed


def end_to_end(reps: list, setup_s: float, setup_builds: list) -> dict:
    """The end-to-end metrics of an untraced run.

    Admission percentiles are taken per repetition and the median over
    repetitions is reported: pooled, the tail would be whichever
    repetition the host slowed most.  A workload whose repetitions admit
    nothing reports its ``setup_builds`` (segment lists) the same way.
    """
    kept, _ = keep(reps, MIN_REPS)
    admit = [ms for ms in (rep.admit_ms() for rep in kept) if ms]
    admit = admit or [admit_ms(segments) for segments in setup_builds]
    stats = kept[-1].outcome.stats
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(rep.seconds for rep in kept), "s"),
        "admit_p50_ms": (
            statistics.median(percentile(ms, 50) for ms in admit), "ms"),
        "admit_p95_ms": (
            statistics.median(percentile(ms, 95) for ms in admit), "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "r_fast": (stats["r_fast"], "ratio"),
        "spare_frac": (stats["spare_frac"], "ratio"),
        "admitted_frac": (stats["admitted_frac"], "ratio"),
    }


def rep_layer_metrics(rep: Rep, spans: list) -> tuple[dict, float, float]:
    """One traced repetition: ``(its metrics, in calibrated seconds,
    unattributed seconds, orphan seconds)``."""
    totals: dict = {}
    orphaned = 0.0
    for segment in rep.segments:
        window = spans[segment.first:segment.last]
        orphaned += tracing.orphan_time(window, {segment.root}) * segment.factor
        tracing.op_totals(window, segment.factor, totals)
    unattributed = totals.pop(("harness", "segment"))[1]
    metrics = layers.rep_metrics(totals, rep.outcome.counters)
    return metrics, unattributed, orphaned


def per_layer(reps: list, clock: Clock, problems: list,
              obs_overhead: float) -> dict:
    """The per-layer metrics of a traced run."""
    spans = clock.tracer.spans
    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]
    values = {name: 0.0 for name in layers.PER_LAYER_METRICS}
    rows = []
    unattributed = orphaned = 0.0
    for rep in traced:
        metrics, loose, orphan = rep_layer_metrics(rep, spans)
        rows.append(metrics)
        unattributed += loose
        orphaned += orphan
    for name in rows[0]:
        column = [row[name] for row in rows]
        unit = layers.PER_LAYER_METRICS[name]
        if unit in ("count", "bytes") and len(set(column)) > 1:
            problems.append(f"{name} differs between traced repetitions: "
                            f"{column}")
        values[name] = statistics.median(column)
    traced_wall = sum(rep.seconds for rep in traced)
    if orphaned > MAX_ORPHAN_FRAC * traced_wall:
        problems.append(
            f"layer self times do not telescope: {orphaned:.4f} s of "
            f"{traced_wall:.4f} s traced wall lies in parentless spans"
        )
    plain_wall = statistics.median(rep.seconds for rep in plain)
    values["obs.overhead_frac"] = obs_overhead
    values["trace.overhead_frac"] = (
        statistics.median(rep.seconds for rep in traced) / plain_wall - 1.0
    )
    values["trace.unattributed_frac"] = unattributed / traced_wall
    values["trace.spans"] = sum(
        segment.last - segment.first
        for rep in traced for segment in rep.segments
    ) / len(traced)
    values["bench.calib_s"] = statistics.fmean(clock.slices)
    values["bench.reps"] = len(reps)
    values["bench.retried_reps"] = sum(1 for rep in reps if rep.drifted)
    values["bench.wall_raw_s"] = statistics.median(rep.raw for rep in plain)
    return {
        name: (values[name], unit)
        for name, unit in layers.PER_LAYER_METRICS.items()
    }
