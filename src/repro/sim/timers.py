"""Timer helpers over the event engine.

:class:`Timeout` models one-shot, restartable timers (retransmission and
rejoin timers in the BCP runtime); :class:`PeriodicTimer` models fixed-rate
recurring work (the RCC eligibility clock).  :class:`WeakCallback` is the
callback an owner hands to a timer or link it owns itself.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from typing import Any

from repro.sim.engine import EventEngine, EventHandle
from repro.util.validation import check_positive_finite


class WeakCallback:
    """A bound method, called through a weak reference to its object.

    A timer (or a link) that an object owns and that calls one of its
    methods back would otherwise close an ``owner -> timer -> bound
    method -> owner`` cycle, which only the cycle collector frees.  This
    holds the function and a weak reference instead, so dropping the
    owner frees both by reference count; calling it once the owner is
    gone does nothing.  Make one per method and owner, and share it.
    """

    __slots__ = ("_owner", "_function")

    def __init__(self, method: Callable[..., None]) -> None:
        self._owner = weakref.ref(method.__self__)
        self._function = method.__func__

    def __call__(self, *args: Any) -> None:
        owner = self._owner()
        if owner is not None:
            self._function(owner, *args)


class Timeout:
    """A one-shot timer that can be restarted or cancelled.

    ``callback(*args)`` fires once, ``duration`` after the most recent
    :meth:`start`.  Starting a running timer restarts it.
    """

    def __init__(
        self, engine: EventEngine, duration: float,
        callback: Callable[..., None], *args: Any,
    ) -> None:
        check_positive_finite(duration, "duration")
        self._engine = engine
        self.duration = duration
        self._callback = callback
        self._args = args
        self._handle: EventHandle | None = None

    @property
    def running(self) -> bool:
        return self._handle is not None and self._handle.active

    def start(self) -> None:
        """(Re)arm the timer for ``duration`` from now."""
        # Schedule first: if the engine rejects the new deadline, the
        # armed one survives.
        handle = self._engine.schedule(self.duration, self._fire)
        self.cancel()
        self._handle = handle

    def cancel(self) -> None:
        """Disarm without firing; safe to call when not running."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback(*self._args)


class PeriodicTimer:
    """A fixed-period recurring timer.

    ``callback(*args)`` fires every ``period`` until :meth:`stop`.  The
    first firing happens one period after :meth:`start`.
    """

    def __init__(
        self, engine: EventEngine, period: float,
        callback: Callable[..., None], *args: Any,
    ) -> None:
        check_positive_finite(period, "period")
        self._engine = engine
        self.period = period
        self._callback = callback
        self._args = args
        self._handle: EventHandle | None = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """(Re)start firing; the first tick comes one period from now.  A
        rejected call leaves a running timer's schedule alone."""
        handle = self._engine.schedule(self.period, self._tick)
        self.stop()
        self._running = True
        self._handle = handle

    def stop(self) -> None:
        """Stop firing; safe to call when not running."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        if not self._running:  # pragma: no cover - stop() cancels the event
            return
        self._handle = self._engine.schedule(self.period, self._tick)
        self._callback(*self._args)
