"""The event engine: a heap-based calendar queue.

Events are callbacks scheduled at absolute times.  The calendar is a
binary heap of ``(time, seq, event)`` tuples: ``seq`` is a monotone,
unique sequence number, so same-time events fire in scheduling order,
the comparison never reaches the event object, and ordering runs at C
speed.  That total order keeps protocol runs fully deterministic.

The engine is instrumented (see :mod:`repro.obs`): with a live registry
it counts schedules, cancellations, and firings, tracks the heap-depth
high-water mark, and records per-callback-category wall time.  Pass
``metrics=NULL_REGISTRY`` to de-instrument a hot loop — the engine then
skips its instruments altogether; by default the session registry is
used.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import Any

from repro.obs.registry import MetricsRegistry, get_registry


class SimulationError(Exception):
    """Raised on kernel misuse (scheduling in the past, etc.)."""


class EventHandle:
    """A scheduled event, and the handle to cancel it — one object.

    ``time`` is the absolute fire time; ``active`` is whether the event
    is still pending (not fired, not cancelled).  Both are the engine's
    to write; callers read them and call :meth:`cancel`.

    A fired or cancelled handle holds neither its callback nor its
    arguments: an owner that keeps its handle (a timer, a pending frame)
    is then never tied to it in an ``owner -> handle -> bound method /
    args -> owner`` loop, and everything the event carried is freed by
    reference count the moment the event is over.
    """

    __slots__ = ("time", "active", "_callback", "_args", "_engine")

    def __init__(
        self, time: float, callback: Callable[..., None], args: tuple,
        engine: "EventEngine",
    ) -> None:
        self.time = time
        self.active = True
        self._callback = callback
        self._args = args
        self._engine = engine

    def cancel(self) -> None:
        """Cancel the event; cancelling a fired/cancelled event is a no-op.

        The calendar entry stays behind as a tombstone the engine drops
        when it reaches the head of the heap.
        """
        if self.active:
            self.active = False
            self._callback = self._args = None
            engine = self._engine
            engine._cancelled += 1
            if engine._timed:
                engine._c_cancelled.inc()


class EventEngine:
    """A discrete-event clock and calendar."""

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        #: Current simulation time: a plain attribute, since every layer
        #: reads it per message.  The engine's to write.
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._events_processed = 0
        #: Events cancelled while pending: with ``_seq`` (events pushed)
        #: and ``_events_processed`` it makes :attr:`pending` O(1).
        self._cancelled = 0
        self._metrics = metrics if metrics is not None else get_registry()
        #: Whether the registry is a live one.  When it is not, the
        #: instruments below are the shared no-op twins and the hot path
        #: does not call them at all.
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
    def events_processed(self) -> int:
        """Number of events fired so far (diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still in the calendar (cancelled
        tombstones awaiting their pop are excluded).  O(1)."""
        return self._seq - self._events_processed - self._cancelled

    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        time = self.now + delay
        # One chained test rejects NaN (every comparison is False), both
        # infinities, a negative delay and a sum that overflowed to inf.
        if not (delay >= 0 and time < inf):
            raise SimulationError(
                f"cannot schedule {delay!r} from {self.now}: the delay must "
                "be finite and non-negative, the fire time finite"
            )
        event = EventHandle(time, callback, args, self)
        heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        if self._timed:
            self._c_scheduled.inc()
            self._g_heap.set(len(self._heap))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        # NaN would silently corrupt heap ordering; it fails this test too.
        if not (self.now <= time < inf):
            raise SimulationError(
                f"cannot schedule at {time!r}: the time must be finite and "
                f"not before the clock ({self.now})"
            )
        event = EventHandle(time, callback, args, self)
        heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        if self._timed:
            self._c_scheduled.inc()
            self._g_heap.set(len(self._heap))
        return event

    # ------------------------------------------------------------------
    def _fire(self, event: EventHandle) -> None:
        """Fire one popped live event (``step`` and timed ``run``; the
        untimed ``run`` does the same inline)."""
        event.active = False
        self.now = event.time
        self._events_processed += 1
        callback, args = event._callback, event._args
        event._callback = event._args = None
        if not self._timed:
            callback(*args)
            return
        self._c_fired.inc()
        category = getattr(callback, "__qualname__", None) \
            or type(callback).__name__
        timer = self._category_timers.get(category)
        if timer is None:
            timer = self._metrics.timer(f"engine.callback_s.{category}")
            self._category_timers[category] = timer
        start = perf_counter()
        try:
            callback(*args)
        finally:
            timer.record(perf_counter() - start)

    def step(self) -> bool:
        """Fire the next pending event; returns ``False`` when idle."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if self._timed:
                # The gauge tracks the physical heap (tombstones included),
                # so every pop moves it — not just pushes.
                self._g_heap.set(len(heap))
            if event.active:
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
        compose).  ``until=inf`` means the same as ``None`` — drain, and
        leave the clock at the last event — so the clock stays finite.
        """
        if until is not None:
            if until != until:
                raise SimulationError(f"cannot run until {until!r}")
            if until == inf:
                until = None
        heap = self._heap
        timed = self._timed
        fired = 0
        # A fire time is finite, so an infinite horizon never stops the
        # loop and an infinite limit is never reached.
        horizon = inf if until is None else until
        limit = inf if max_events is None else max_events
        while heap:
            if fired >= limit:
                return self.now
            time, _, event = heap[0]
            if event.active and time > horizon:
                break
            heappop(heap)  # the head: a live event in range, or a tombstone
            if timed:
                self._g_heap.set(len(heap))
                if event.active:
                    self._fire(event)
                    fired += 1
            elif event.active:
                # ``_fire``'s untimed half, in this frame.
                event.active = False
                self.now = time
                self._events_processed += 1
                callback, args = event._callback, event._args
                event._callback = event._args = None
                callback(*args)
                fired += 1
        if until is not None:
            self.now = max(self.now, until)
        return self.now
