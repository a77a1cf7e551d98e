"""Reference oracle for :class:`repro.sim.EventEngine`.

This is the event engine as it stood before the tuple-ordered calendar:
the heap holds ``@dataclass(order=True)`` ``_ScheduledEvent`` objects
(ordered by generated Python ``__lt__``), every push wraps its arguments
in a ``lambda`` and hands out a separate ``EventHandle``, and the
instruments are touched on every event even when they are the no-op
twins.  Moved verbatim (its known quirks included: ``active`` stays true
after the event fired, ``run(until=inf)`` poisons the clock), it is slow
and obviously right, and it lives here — not in ``src/`` — so the product
has one engine and the tests have something independent to hold it
against (``test_engine_differential``).  It raises the product's
:class:`~repro.sim.SimulationError`, so callers cannot tell the two apart
by exception type.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.obs.registry import MetricsRegistry, get_registry
from repro.sim.engine import SimulationError


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)
    category: str = field(default="", compare=False)


class EventHandle:
    """Handle to a scheduled event; supports cancellation."""

    __slots__ = ("_event", "_engine")

    def __init__(self, event: _ScheduledEvent, engine: "EventEngine") -> None:
        self._event = event
        self._engine = engine

    @property
    def time(self) -> float:
        """Absolute fire time."""
        return self._event.time

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not fired, not cancelled)."""
        return not self._event.cancelled

    def cancel(self) -> None:
        """Cancel the event; cancelling a fired/cancelled event is a no-op."""
        event = self._event
        if not event.cancelled and not event.fired:
            self._engine._live -= 1
            self._engine._c_cancelled.inc()
        event.cancelled = True


class EventEngine:
    """A discrete-event clock and calendar."""

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[_ScheduledEvent] = []
        self._events_processed = 0
        #: Post-fire observers: called as ``observer(time, category)`` after
        #: every fired event.  Kept in a plain list checked for truthiness
        #: per event, so the hook is free when nobody subscribed.
        self._observers: list[Callable[[float, str], None]] = []
        #: Live count of non-cancelled events in the calendar, maintained
        #: on push/fire/cancel so :attr:`pending` is O(1).
        self._live = 0
        self._metrics = metrics if metrics is not None else get_registry()
        self._timed = self._metrics.enabled
        self._c_fired = self._metrics.counter("engine.events_fired")
        self._c_scheduled = self._metrics.counter("engine.events_scheduled")
        self._c_cancelled = self._metrics.counter("engine.events_cancelled")
        self._g_heap = self._metrics.gauge("engine.heap_depth")
        #: Callback category -> cached Timer (avoids a registry lookup and
        #: string build per event).
        self._category_timers: dict[str, Any] = {}

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still in the calendar (cancelled
        tombstones awaiting their pop are excluded).  O(1)."""
        return self._live

    # ------------------------------------------------------------------
    def subscribe(self, observer: Callable[[float, str], None]) -> None:
        """Register ``observer(time, category)`` to run after every fired
        event.  Observers are how auditors watch a run without patching
        callbacks; they must not schedule or cancel events."""
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[float, str], None]) -> None:
        """Remove a previously subscribed observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        if not math.isfinite(delay):
            raise SimulationError(f"cannot schedule non-finite delay {delay!r}")
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if not math.isfinite(time):
            # NaN would also silently corrupt heap ordering (every
            # comparison against it is False), so reject loudly.
            raise SimulationError(f"cannot schedule at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}; clock is already at {self._now}"
            )
        category = getattr(callback, "__qualname__", None) \
            or type(callback).__name__
        bound = (lambda: callback(*args)) if args else callback
        event = _ScheduledEvent(time=time, seq=self._seq, callback=bound,
                                category=category)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        self._c_scheduled.inc()
        self._g_heap.set(len(self._heap))
        return EventHandle(event, self)

    # ------------------------------------------------------------------
    def _fire(self, event: _ScheduledEvent) -> None:
        event.fired = True
        self._live -= 1
        self._now = event.time
        self._events_processed += 1
        self._c_fired.inc()
        if not self._timed:
            event.callback()
            if self._observers:
                for observer in self._observers:
                    observer(event.time, event.category)
            return
        timer = self._category_timers.get(event.category)
        if timer is None:
            timer = self._metrics.timer(f"engine.callback_s.{event.category}")
            self._category_timers[event.category] = timer
        start = perf_counter()
        try:
            event.callback()
        finally:
            timer.record(perf_counter() - start)
        if self._observers:
            for observer in self._observers:
                observer(event.time, event.category)

    def step(self) -> bool:
        """Fire the next pending event; returns ``False`` when idle."""
        while self._heap:
            event = heapq.heappop(self._heap)
            # The gauge tracks the physical heap (tombstones included), so
            # every pop moves it — not just pushes in ``schedule_at``.
            self._g_heap.set(len(self._heap))
            if event.cancelled:
                continue
            self._fire(event)
            return True
        return False

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Run until the calendar drains, the clock passes ``until``, or
        ``max_events`` fire; returns the final clock value.

        With ``until`` set, events scheduled beyond it stay pending and the
        clock is advanced exactly to ``until`` (so repeated bounded runs
        compose).
        """
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                return self._now
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                self._g_heap.set(len(self._heap))
                continue
            if until is not None and head.time > until:
                self._now = max(self._now, until)
                return self._now
            if not self.step():  # pragma: no cover - guarded by loop head
                break
            fired += 1
        if until is not None:
            self._now = max(self._now, until)
        return self._now
