"""Protocol runtime configuration.

Time is unit-free; the defaults read naturally as milliseconds (RCC hop
delay 1.0, rejoin timeout 50.0).  The delay-bound analysis of Section 5.3
works in the same unit via ``RCCParams.max_delay``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

#: An unacknowledged RCC frame is resent after
#: ``ACK_TIMEOUT_FACTOR * 2 * rcc.max_delay`` — a quarter more than the
#: hop round trip its ack needs.
ACK_TIMEOUT_FACTOR = 1.25


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
        check_positive(self.max_rate, "max_rate")
        check_positive(self.max_delay, "max_delay")

    @property
    def min_interval(self) -> float:
        """Minimum spacing between frame transmissions (1/R_max)."""
        return 1.0 / self.max_rate


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs of the BCP runtime."""

    scheme: SwitchingScheme = SwitchingScheme.SCHEME_3
    rcc: RCCParams = field(default_factory=RCCParams)
    #: Delay between a component crash and its neighbours noticing; the
    #: paper assumes detection exists ([HAN97a]) and Section 5.3 assumes it
    #: is immediate.
    detection_delay: float = 0.0
    #: Soft-state rejoin timer (Section 4.4) — must cover reporting delay +
    #: rejoin round trip for repairs to beat the teardown.
    rejoin_timeout: float = 50.0
    #: The source re-probes a failed channel (rejoin-request) at this
    #: interval while its rejoin timer runs, so a repair anywhere in the
    #: window is caught even after earlier probes died at the break.
    rejoin_probe_interval: float = 10.0
    #: Priority-based activation, delay variant (Section 4.3): an end-node
    #: waits ``mux_degree * activation_delay_per_degree`` before sending an
    #: activation.  0 disables the wait.
    activation_delay_per_degree: float = 0.0
    #: Priority-based activation, preemption variant (Section 4.3): a
    #: higher-priority activation short on spare may preempt an activated
    #: lower-priority backup on the congested link.
    preemption: bool = False
    #: Retransmission: resend an unacked frame after :attr:`ack_timeout`,
    #: at most this many times before giving the frame up.
    max_retransmissions: int = 8
    #: Random per-frame loss (exercises the ack/retransmit machinery even
    #: without component failures).
    frame_loss_probability: float = 0.0
    #: Slow-path recovery (Section 4.4: "If all channels of a D-connection
    #: fail simultaneously, a new primary channel has to be established
    #: from scratch").  When enabled, a source that exhausts its backups
    #: routes a replacement in the residual network and pays the full
    #: two-pass establishment latency; otherwise the connection is just
    #: reported unrecoverable.
    reestablish_unrecoverable: bool = False
    #: Failure detection.  The paper assumes an external detector
    #: ([HAN97a]) and instant detection; with ``heartbeat_detection`` the
    #: detection is *emergent* instead: every node heartbeats each
    #: outgoing link over the RCC, and a neighbour missing
    #: ``heartbeat_miss_threshold`` consecutive beats declares the link
    #: failed.  Detection latency then becomes
    #: ≈ threshold·period + D_max rather than ``detection_delay``.
    heartbeat_detection: bool = False
    heartbeat_period: float = 2.0
    heartbeat_miss_threshold: int = 3
    #: Switchover handshake (Section 4.2 hardening): an end-node that
    #: initiates an activation expects an end-to-end ActivationAck from
    #: the far end-node within ``switchover_ack_timeout``; on expiry it
    #: resends, backing off geometrically by ``switchover_backoff`` per
    #: attempt, up to ``switchover_retry_limit`` retries.  Exhaustion
    #: declares the backup dead (U) and falls through to the next backup
    #: or to source-initiated re-establishment — the handshake never
    #: wedges in soft state.  The default timeout covers a worst-case
    #: report + activation + ack traversal over the RCC (a few give-up
    #: free hop round trips at D_max = 1.0).
    switchover_ack_timeout: float = 12.0
    switchover_retry_limit: int = 2
    switchover_backoff: float = 2.0

    def __post_init__(self) -> None:
        check_non_negative(self.detection_delay, "detection_delay")
        check_positive(self.rejoin_timeout, "rejoin_timeout")
        check_non_negative(
            self.activation_delay_per_degree, "activation_delay_per_degree"
        )
        if self.max_retransmissions < 0:
            raise ValueError(
                f"max_retransmissions must be >= 0, got {self.max_retransmissions}"
            )
        check_probability(self.frame_loss_probability, "frame_loss_probability")
        check_positive(self.rejoin_probe_interval, "rejoin_probe_interval")
        check_positive(self.switchover_ack_timeout, "switchover_ack_timeout")
        if self.switchover_retry_limit < 0:
            raise ValueError(
                f"switchover_retry_limit must be >= 0, got "
                f"{self.switchover_retry_limit}"
            )
        if self.switchover_backoff < 1.0:
            raise ValueError(
                f"switchover_backoff must be >= 1.0, got "
                f"{self.switchover_backoff}"
            )
        check_positive(self.heartbeat_period, "heartbeat_period")
        if self.heartbeat_miss_threshold < 1:
            raise ValueError(
                f"heartbeat_miss_threshold must be >= 1, got "
                f"{self.heartbeat_miss_threshold}"
            )

    @property
    def ack_timeout(self) -> float:
        """How long a frame waits for its hop-by-hop ack before resending."""
        return ACK_TIMEOUT_FACTOR * 2.0 * self.rcc.max_delay

    @property
    def switchover_retry_window(self) -> float:
        """Worst-case wall time one backup's handshake can occupy: the
        geometric sum of the initial wait plus every backed-off retry."""
        attempts = self.switchover_retry_limit + 1
        if self.switchover_backoff == 1.0:
            return self.switchover_ack_timeout * attempts
        return (
            self.switchover_ack_timeout
            * (self.switchover_backoff ** attempts - 1.0)
            / (self.switchover_backoff - 1.0)
        )
