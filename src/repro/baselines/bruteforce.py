"""Brute-force multiplexing (Section 7.4).

"In the brute-force multiplexing method, the same amount of spare resource
is reserved for all links without considering the network status."  The
paper sizes that uniform amount as the *average* spare the proposed scheme
reserves under the same workload, making the two schemes' total overhead
identical — the comparison then isolates *where* the spare sits.
"""

from __future__ import annotations

from repro.core.bcp import BCPNetwork
from repro.recovery.evaluator import RecoveryEvaluator


def uniform_spare_amount(network: BCPNetwork) -> float:
    """The per-link uniform spare matching the proposed scheme's average.

    Total spare bandwidth divided by the number of links; the evaluator
    caps each link's pool at its remaining capacity, mirroring what a real
    reservation could actually hold.
    """
    num_links = network.topology.num_links
    if num_links == 0:
        return 0.0
    return network.ledger.total_spare() / num_links


def brute_force_evaluator(
    network: BCPNetwork, seed: "int | None" = 0
) -> RecoveryEvaluator:
    """A recovery evaluator using brute-force uniform spare pools.

    Every link gets :func:`uniform_spare_amount` of the already-established
    network, i.e. the paper's same-total-overhead comparison.  Everything
    else (workload, routing, backup paths, activation order) is shared
    with the proposed scheme, so differences in R_fast come purely from
    spare placement.
    """
    return RecoveryEvaluator(
        network, spare_override=uniform_spare_amount(network), seed=seed
    )
