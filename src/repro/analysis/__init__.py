"""Analytic models: Markov reliability (Fig. 3), delay bounds (Section 5),
and RCC sizing (Section 5.2)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # for tools; at run time a name is imported on first use
    from repro.analysis.delay import (
        connection_delay_bound,
        recovery_delay_bound,
        required_rcc_frame_messages,
    )
    from repro.analysis.markov import (
        DConnectionMarkovModel,
    )

__all__ = [
    "recovery_delay_bound",
    "connection_delay_bound",
    "required_rcc_frame_messages",
    "DConnectionMarkovModel",
]

__getattr__ = lazy_exports(__name__, {
    "delay": (
        "connection_delay_bound",
        "recovery_delay_bound",
        "required_rcc_frame_messages",
    ),
    "markov": ("DConnectionMarkovModel",),
})
