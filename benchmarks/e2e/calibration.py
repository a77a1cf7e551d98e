"""Frozen machine-speed calibration for the e2e benchmark.

DO NOT EDIT in a PR that claims a performance gain.  Every host-time
metric the benchmark prints is in *calibrated seconds*:

    raw perf_counter seconds * CALIB_REF_S / mean(calib_before, calib_after)

where ``calib_*`` are the wall times of :func:`calibration_loop` run
immediately before and after the measured region.  The loop is fixed
work — dict-adjacency BFS in pure Python plus small-array numpy passes,
the instruction mix the measured program is made of — so a host that is
momentarily 30 % slower stretches the loop and the measured region alike
and the ratio cancels it.  Changing the loop, its sizes or
``CALIB_REF_S`` rescales every number ever recorded with it, which is
why this module is frozen and imports nothing from ``repro``.

One loop is a ~0.1 s *slice*.  The harness brackets every timed segment
(~0.5 s of work) with its own pair of slices, so a repetition carries
seven or more of them: on the box the benchmark was defined on, the
host's speed moves by up to 1.5x on a scale of seconds, and two 0.25 s
readings at the ends of a 5 s repetition tracked that worse than no
calibration at all.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

import numpy as np

#: Wall time of one :func:`calibration_loop` on the reference host.  A
#: calibrated second is a second on a host whose slice takes this long.
CALIB_REF_S = 0.1

#: A repetition whose bracketing slices disagree, on average over its
#: segments, by more than this share of their mean saw the host change
#: speed mid-measurement; it is discarded and measured again.  (0.1 s
#: slices read +-10 % apart on a busy host without any change of speed;
#: the threshold sits above that.)
MAX_DRIFT = 0.25

_GRID = 24
_BFS_ROUNDS = 400
_NUMPY_ROUNDS = 9000
_WORDS = 64


def _grid_adjacency(side: int) -> dict[int, list[int]]:
    """Dict adjacency of a ``side`` x ``side`` torus grid."""
    adjacency: dict[int, list[int]] = {}
    for row in range(side):
        for col in range(side):
            adjacency[row * side + col] = [
                ((row - 1) % side) * side + col,
                ((row + 1) % side) * side + col,
                row * side + (col - 1) % side,
                row * side + (col + 1) % side,
            ]
    return adjacency


_ADJACENCY = _grid_adjacency(_GRID)
_BITS = np.arange(1, 32 * _WORDS + 1, dtype=np.uint64).reshape(32, _WORDS)
_ROW = np.arange(_WORDS, dtype=np.uint64) * np.uint64(2654435761)


def _bfs(adjacency: dict[int, list[int]], source: int) -> int:
    """Hop-distance BFS; returns the eccentricity of ``source``."""
    distance = {source: 0}
    frontier = deque([source])
    farthest = 0
    while frontier:
        node = frontier.popleft()
        hops = distance[node] + 1
        for neighbour in adjacency[node]:
            if neighbour not in distance:
                distance[neighbour] = hops
                farthest = hops
                frontier.append(neighbour)
    return farthest


def calibration_loop() -> float:
    """Run one slice of the fixed work; returns its wall time in seconds."""
    started = perf_counter()
    checksum = 0
    for round_index in range(_BFS_ROUNDS):
        checksum += _bfs(_ADJACENCY, round_index % len(_ADJACENCY))
    for _ in range(_NUMPY_ROUNDS):
        checksum += int((_BITS & _ROW).sum(axis=1).max() & np.uint64(1))
    elapsed = perf_counter() - started
    if checksum <= 0:
        raise AssertionError("calibration work was optimised away")
    return elapsed


def mean_drift(brackets) -> float:
    """Mean disagreement of ``(before, after)`` slice pairs, each as a
    share of the pair's mean."""
    drifts = [
        abs(after - before) / ((before + after) / 2.0)
        for before, after in brackets
    ]
    return sum(drifts) / len(drifts)


def drifted(drift: float) -> bool:
    """The discard rule for one repetition, given the :func:`mean_drift`
    of its segments' brackets.  It sees calibration readings and nothing
    else: the measured value never decides whether a repetition is kept."""
    return drift > MAX_DRIFT


def calibrated(raw_seconds: float, before: float, after: float) -> float:
    """Convert raw seconds measured between two slices."""
    return raw_seconds * CALIB_REF_S / ((before + after) / 2.0)
