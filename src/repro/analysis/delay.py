"""Failure-recovery delay bound and RCC sizing (Sections 5.2-5.3).

With RCC message delay bounded by ``D_max`` per hop, the paper derives

    Γ ≤ (K − 1)·D_max  +  2(b − 1)(K − 1)·D_max

where ``K`` is the hop count of the connection's longest channel and ``b``
its number of backups: the first term bounds the failure-reporting delay,
the second the activation-retrial round trips when earlier backups turn
out to be dead.  The protocol runtime's measured service disruptions are
validated against this bound (``python -m repro delay-bound``;
``benchmarks/paper`` asserts it).

Section 5.2's sizing rule makes ``D_max`` hold: the RCC frame must carry
the worst-case burst, ``S_max ≥ max(x·y)`` over link pairs, with ``y`` the
number of channels on the pair of opposite links between two neighbours.
"""

from __future__ import annotations

from repro.core.bcp import BCPNetwork
from repro.core.dconnection import DConnection
from repro.util.validation import check_positive


def recovery_delay_bound(hops: int, num_backups: int, d_max: float) -> float:
    """The Γ upper bound for a connection whose longest channel has
    ``hops`` hops and which owns ``num_backups`` backups."""
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    if num_backups < 1:
        raise ValueError(
            f"the bound assumes at least one backup, got {num_backups}"
        )
    check_positive(d_max, "d_max")
    k = hops
    reporting = (k - 1) * d_max
    retrials = 2 * (num_backups - 1) * (k - 1) * d_max
    return reporting + retrials


def connection_delay_bound(connection: DConnection, d_max: float) -> float:
    """Γ bound for a live D-connection: ``K`` is the hop count of its
    longest channel (primary or backup)."""
    k = max(channel.path.hops for channel in connection.channels)
    return recovery_delay_bound(k, max(1, connection.num_backups), d_max)


def network_delay_bound(network: BCPNetwork, d_max: float) -> float:
    """The worst Γ bound over the network's live connections — what the
    symbolic ``gamma`` SLO threshold resolves to (0 with none)."""
    return max(
        (connection_delay_bound(connection, d_max)
         for connection in network.connections()),
        default=0.0,
    )


def required_rcc_frame_messages(network: BCPNetwork) -> int:
    """Smallest per-frame message capacity guaranteeing bounded control
    delay (Section 5.2), in units of control messages.

    For every adjacent node pair, the worst burst on the RCC between them
    is one control message per channel routed over *either* direction of
    the pair (failure reports can travel both ways along a channel).  The
    required S_max is the maximum over all pairs.
    """
    registry = network.registry
    worst = 0
    seen_pairs = set()
    for link in network.topology.links():
        pair = frozenset(link.endpoints())
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        count = registry.channel_count_on_link(link)
        reverse = link.reversed()
        count += registry.channel_count_on_link(reverse)
        worst = max(worst, count)
    return worst
