"""Small argument-validation helpers used across the library.

Each helper raises ``ValueError`` with a message naming the offending
parameter, and returns the validated value so calls can be inlined.
"""

from __future__ import annotations


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_positive_finite(value: float, name: str) -> float:
    """Require ``0 < value < inf`` (NaN fails both comparisons)."""
    if not 0 < value < float("inf"):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Require ``value >= 0`` (NaN fails: it is not ``>= 0``)."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_count(value: int, name: str) -> int:
    """Require a non-negative ``int``: a ``bool`` or an integral float is
    not one, however it compares."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_non_negative_finite(value: float, name: str) -> float:
    """Require ``0 <= value < inf`` (NaN fails both comparisons)."""
    if not 0 <= value < float("inf"):
        raise ValueError(
            f"{name} must be non-negative and finite, got {value!r}"
        )
    return value


def check_probability(value: float, name: str) -> float:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return value
