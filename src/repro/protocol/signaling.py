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

#: Per-hop transfer time of an establishment message.  These messages are
#: *not* time-critical and do not ride the RCC — Section 5.1 explicitly
#: excludes reconfiguration traffic — so they see ordinary queueing; twice
#: the RCC's 1.0 hop delay keeps the comparison conservative.
HOP_DELAY = 2.0

#: Per-node admission-test / table-update time of an establishment.
PROCESSING_DELAY = 1.0


def establishment_latency(hops: int) -> float:
    """Closed-form signalling latency of establishing one channel under
    :data:`HOP_DELAY` and :data:`PROCESSING_DELAY`.

    Forward pass: ``hops`` transfers and ``hops + 1`` node visits;
    backward pass the same.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    # Forward: every node processes once ((hops+1) nodes) over `hops`
    # transfers; backward: `hops` transfers, each followed by processing
    # at the receiving node (the destination's processing is shared).
    return 2 * hops * HOP_DELAY + (2 * hops + 1) * PROCESSING_DELAY
