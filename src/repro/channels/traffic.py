"""Client traffic specification.

The paper's evaluation reduces traffic to a single per-link bandwidth
figure ("each channel requires 1 Mbps of bandwidth on each link of its
path"), which is what admission control consumes.  The message-level
parameters feed the RCC sizing rule of Section 5.2 and the discrete-event
runtime, where message transmission times matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True, slots=True)
class TrafficSpec:
    """Traffic parameters declared by the client at establishment time.

    Attributes
    ----------
    bandwidth:
        Reserved per-link bandwidth (Mbps).  This is the only parameter the
        admission test of the reproduction's steady-state evaluation uses.
    max_message_size:
        Largest message the client will inject (bits).
    max_message_rate:
        Maximum message arrival rate (messages/second) after traffic
        regulation.
    """

    bandwidth: float = 1.0
    max_message_size: float = 8_000.0
    max_message_rate: float = 125.0

    def __post_init__(self) -> None:
        check_positive(self.bandwidth, "bandwidth")
        check_positive(self.max_message_size, "max_message_size")
        check_positive(self.max_message_rate, "max_message_rate")
