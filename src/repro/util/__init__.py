"""Shared utilities: seeded RNG helpers, table rendering, validation."""

from repro.util.rng import make_rng, spawn_rngs
from repro.util.tables import format_table, format_percent
from repro.util.validation import (
    check_non_negative,
    check_non_negative_finite,
    check_positive,
    check_positive_finite,
    check_probability,
)

__all__ = [
    "make_rng",
    "spawn_rngs",
    "format_table",
    "format_percent",
    "check_non_negative",
    "check_non_negative_finite",
    "check_positive",
    "check_positive_finite",
    "check_probability",
]
