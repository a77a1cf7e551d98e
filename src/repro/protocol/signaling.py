"""Channel-establishment signaling (Section 3.4's message passes).

A channel is established "by using a pair of channel-establishment
messages: (i) the 'resource reservation message' from source to
destination and (ii) the 'resource relaxation message' from destination to
source".

The point of modelling this is the paper's central latency argument:
"establishing a new channel is usually a time-consuming process" —
re-establishment costs a full signalling round trip with per-hop
admission work, whereas backup activation costs one failure report plus
an activation sweep.  :func:`establishment_latency` prices that round
trip in the time unit of the recovery protocol's clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class SignalingParams:
    """Timing model of establishment signalling.

    ``hop_delay`` is the per-hop message transfer time (these messages are
    *not* time-critical and do not ride the RCC — Section 5.1 explicitly
    excludes reconfiguration traffic — so they see ordinary queueing);
    ``processing_delay`` is the per-node admission-test / table-update
    time.  Both default to multiples of the RCC's 1.0 hop delay to keep
    the comparison conservative.
    """

    hop_delay: float = 2.0
    processing_delay: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.hop_delay, "hop_delay")
        check_non_negative(self.processing_delay, "processing_delay")


#: The timing model every establishment is priced with.
SIGNALING = SignalingParams()


def establishment_latency(hops: int) -> float:
    """Closed-form signalling latency of establishing one channel under
    :data:`SIGNALING`.

    Forward pass: ``hops`` transfers and ``hops + 1`` node visits;
    backward pass the same.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    # Forward: every node processes once ((hops+1) nodes) over `hops`
    # transfers; backward: `hops` transfers, each followed by processing
    # at the receiving node (the destination's processing is shared).
    return (
        2 * hops * SIGNALING.hop_delay
        + (2 * hops + 1) * SIGNALING.processing_delay
    )
