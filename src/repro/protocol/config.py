"""Protocol runtime configuration.

Time is unit-free; the defaults read naturally as milliseconds (RCC hop
delay 1.0, rejoin timeout 50.0).  The delay-bound analysis of Section 5.3
works in the same unit via ``RCCParams.max_delay``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.util.validation import (
    check_non_negative_finite,
    check_positive,
    check_positive_finite,
)

#: An unacknowledged RCC frame is resent after
#: ``ACK_TIMEOUT_FACTOR * 2 * rcc.max_delay`` — a quarter more than the
#: hop round trip its ack needs.
ACK_TIMEOUT_FACTOR = 1.25

#: An RCC frame is resent at most this many times; then the sender drops
#: it and counts it (``rcc.gave_up``), and concludes nothing from it.
MAX_RETRANSMISSIONS = 8

#: Switchover handshake (Section 4.2 hardening): an end-node that
#: initiates an activation expects an end-to-end ActivationAck from the
#: far end-node within ``SWITCHOVER_ACK_TIMEOUT``; on expiry it resends,
#: backing off geometrically by ``SWITCHOVER_BACKOFF`` per attempt, up to
#: ``SWITCHOVER_RETRY_LIMIT`` retries.  Exhaustion declares the backup
#: dead (U) and falls through to the next backup, or reports the
#: connection unrecoverable — the handshake never wedges in soft state.
#: The timeout covers a worst-case report + activation + ack traversal
#: over the RCC (a few give-up free hop round trips at D_max = 1.0).
SWITCHOVER_ACK_TIMEOUT = 12.0
SWITCHOVER_RETRY_LIMIT = 2
SWITCHOVER_BACKOFF = 2.0

#: Worst-case time one backup's handshake can occupy: the initial wait
#: plus every backed-off retry (12 + 24 + 48 = 84).
SWITCHOVER_RETRY_WINDOW = sum(
    SWITCHOVER_ACK_TIMEOUT * SWITCHOVER_BACKOFF ** attempt
    for attempt in range(SWITCHOVER_RETRY_LIMIT + 1)
)


class SwitchingScheme(enum.Enum):
    """The three channel-switching schemes of Section 4.2 (Fig. 5)."""

    #: Downstream node reports to the *destination*; the destination sends
    #: the activation toward the source, which resumes on receiving it.
    SCHEME_1 = 1
    #: Upstream node reports to the *source*; the source sends the
    #: activation toward the destination and resumes immediately.
    SCHEME_2 = 2
    #: Hybrid: both end-nodes are informed and activate bi-directionally
    #: (the paper's default for the rest of the paper).
    SCHEME_3 = 3


@dataclass(frozen=True)
class RCCParams:
    """The RCC model of Section 5.1: (S_max, R_max, D_max).

    ``max_messages_per_frame`` plays the role of S_max expressed in control
    messages (all control messages have equal size in the model);
    ``max_rate`` is R_max (frames per time unit), enforcing the eligibility
    spacing ``1/R_max``; ``max_delay`` is D_max, the per-hop delivery bound
    the underlying real-time channel guarantees.
    """

    max_messages_per_frame: int = 64
    max_rate: float = 10.0
    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_messages_per_frame < 1:
            raise ValueError(
                f"max_messages_per_frame must be >= 1, got "
                f"{self.max_messages_per_frame}"
            )
        # An infinite rate is no spacing at all (``min_interval`` 0); an
        # infinite hop delay is no deadline any event could be put at.
        check_positive(self.max_rate, "max_rate")
        check_positive_finite(self.max_delay, "max_delay")

    @property
    def min_interval(self) -> float:
        """Minimum spacing between frame transmissions (1/R_max)."""
        return 1.0 / self.max_rate


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs of the BCP runtime.

    Failure detection is not one of them: the paper assumes a detector
    ([HAN97a]) and Section 5.3 assumes it is immediate, so a crash
    reaches its neighbours at the instant it happens, and that notice is
    the only failure information a daemon gets.
    """

    scheme: SwitchingScheme = SwitchingScheme.SCHEME_3
    rcc: RCCParams = field(default_factory=RCCParams)
    #: Soft-state rejoin timer (Section 4.4).  A repair's neighbours are
    #: told of it as of a failure, and the rejoin starts then: a channel
    #: heals if its last repair leaves room, before this expires, for the
    #: hint up to the source and the request-confirm round trip.
    rejoin_timeout: float = 50.0
    #: Priority-based activation, delay variant (Section 4.3): an end-node
    #: waits ``mux_degree * activation_delay_per_degree`` before sending an
    #: activation.  0 disables the wait.
    activation_delay_per_degree: float = 0.0
    #: Priority-based activation, preemption variant (Section 4.3): a
    #: higher-priority activation short on spare may preempt an activated
    #: lower-priority backup on the congested link.
    preemption: bool = False

    def __post_init__(self) -> None:
        # Every rejoin timer is scheduled this far ahead, and an activation
        # up to ν times the per-degree delay: checked once here.
        check_positive_finite(self.rejoin_timeout, "rejoin_timeout")
        check_non_negative_finite(
            self.activation_delay_per_degree, "activation_delay_per_degree"
        )

    @property
    def ack_timeout(self) -> float:
        """How long a frame waits for its hop-by-hop ack before resending."""
        return ACK_TIMEOUT_FACTOR * 2.0 * self.rcc.max_delay
