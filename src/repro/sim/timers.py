"""The callback an owner hands to the events, timers and links it owns.

A protocol timer is a plain calendar entry, an
:class:`~repro.sim.engine.EventHandle`: its owner restarts it by
scheduling the new deadline and then cancelling the old handle.  What
calls the owner back is one shared :class:`WeakCallback` per method, with
the timer's key (a channel or connection id) as the event's argument.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from typing import Any


class WeakCallback:
    """A bound method, called through a weak reference to its object.

    An event (or a link) that an object owns and that calls one of its
    methods back would otherwise close an ``owner -> handle -> bound
    method -> owner`` cycle, which only the cycle collector frees.  This
    holds the function and a weak reference instead, so dropping the
    owner frees both by reference count; calling it once the owner is
    gone does nothing.  Make one per method and owner, and share it.
    Its ``__qualname__`` is the method's, which is what a live engine
    names the callback's wall-time timer after.
    """

    __slots__ = ("_owner", "_function", "__qualname__")

    def __init__(self, method: Callable[..., None]) -> None:
        self._owner = weakref.ref(method.__self__)
        self._function = method.__func__
        self.__qualname__ = method.__qualname__

    def __call__(self, *args: Any) -> None:
        owner = self._owner()
        if owner is not None:
            self._function(owner, *args)
