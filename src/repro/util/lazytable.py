"""Lookup tables filled on first touch.

The compiled plan (:mod:`repro.core.plan`) and the indexes its consumers
build on it (:mod:`repro.protocol.plan`) answer most of their keys never
and a few of them thousands of times, so their tables compute an entry
when it is first asked for and keep it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from typing import Any


class FilledOnTouch(dict):
    """A lookup table whose missing entries are computed by ``fill(key)``
    on first touch and kept; a hit never leaves C."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[Hashable], Any]) -> None:
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value
