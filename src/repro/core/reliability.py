"""Fault-tolerance QoS: the combinatorial ``P_r`` model (Sections 3.1, 3.3).

``P_r`` is the probability that a D-connection survives one *time unit*
under the paper's combinatorial model: each component fails independently
with probability λ within the unit, and the system resets at the start of
each unit (justified because channel repair is orders of magnitude faster
than MTBF).  With backup multiplexing, a surviving backup can still be lost
to a *multiplexing failure* — its spare pool drained by other activations —
which the model folds in through the upper bound ``P_muxf``:

    P_muxf(B_i) ≤ Σ_ℓ [ 1 - (1-ν)^{|Ψ(B_i,ℓ)|} ]

The continuous-time Markov models of Fig. 3 live in
:mod:`repro.analysis.markov`; this module is the client-interface model.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.util.validation import check_probability


def channel_reliability(component_count: int, failure_probability: float) -> float:
    """Probability a channel of ``component_count`` components survives one
    time unit: ``(1-λ)^c``."""
    if component_count < 0:
        raise ValueError(f"component_count must be >= 0, got {component_count}")
    check_probability(failure_probability, "failure_probability")
    return (1.0 - failure_probability) ** component_count


def p_muxf_upper_bound(psi_sizes: Sequence[int], nu: float) -> float:
    """Upper bound on the multiplexing-failure probability of one backup.

    ``psi_sizes`` holds |Ψ(B_i, ℓ)| for each link ℓ of the backup's path;
    ``nu`` is the backup's threshold ν.  The per-link terms are summed (a
    union bound) and the result clipped to 1.
    """
    check_probability(nu, "nu")
    total = 0.0
    for size in psi_sizes:
        if size < 0:
            raise ValueError(f"psi size must be >= 0, got {size}")
        total += 1.0 - (1.0 - nu) ** size
    return min(1.0, total)


def pr_single_backup(
    primary_count: int,
    backup_count: int,
    failure_probability: float,
) -> float:
    """``P_r`` of a D-connection with one disjointly-routed backup that no
    multiplexing failure blocks.

    Section 3.3:  ``P_r = P(M ok) + P(M fails)·P(B ok)·(1 - P_muxf)`` at
    ``P_muxf = 0``; :func:`pr_multiple_backups` takes each backup's
    ``P_muxf``.
    """
    primary_ok = channel_reliability(primary_count, failure_probability)
    backup_ok = channel_reliability(backup_count, failure_probability)
    return primary_ok + (1.0 - primary_ok) * backup_ok


def pr_multiple_backups(
    primary_count: int,
    backup_counts: Sequence[int],
    failure_probability: float,
    p_muxfs: Sequence[float] | None = None,
) -> float:
    """``P_r`` of a D-connection with any number of disjoint backups.

    Generalises the single-backup formula ("P_r with more backups can be
    derived in a similar way"): the connection fails the time unit only if
    the primary fails *and* every backup is unavailable, where backup ``b``
    is unavailable with probability ``1 - (1-λ)^{c_b}·(1 - P_muxf_b)``.
    Disjoint routing makes the channel failures independent.
    """
    if p_muxfs is None:
        p_muxfs = [0.0] * len(backup_counts)
    if len(p_muxfs) != len(backup_counts):
        raise ValueError(
            f"{len(backup_counts)} backups but {len(p_muxfs)} P_muxf values"
        )
    primary_ok = channel_reliability(primary_count, failure_probability)
    all_backups_unavailable = 1.0
    for components, p_muxf in zip(backup_counts, p_muxfs):
        check_probability(p_muxf, "p_muxf")
        available = channel_reliability(components, failure_probability) * (
            1.0 - p_muxf
        )
        all_backups_unavailable *= 1.0 - available
    return 1.0 - (1.0 - primary_ok) * all_backups_unavailable


def connection_pr(connection, engine) -> float:
    """``P_r`` of a live :class:`~repro.core.dconnection.DConnection`.

    Reads each backup's |Ψ| on every link of its path from the
    multiplexing ``engine`` and its ν from the backup's mux degree; λ is
    the engine policy's.

    This is the number BCP reports back to the client after establishment
    (the "resultant P_r" of the loose negotiation scheme, Section 3.4).
    It is :func:`pr_multiple_backups` over :func:`p_muxf_upper_bound`,
    folded in one pass with every float expression in the order those
    two evaluate it, so the result is bit-identical to composing them.
    The counts and the policy's λ are valid by construction; each
    backup's ν is checked as :func:`p_muxf_upper_bound` checks it.
    """
    policy = engine.policy
    survive = 1.0 - policy.failure_probability
    count_endpoints = policy.count_endpoints
    link_state = engine.link_state
    all_backups_unavailable = 1.0
    for backup in connection.backups:
        keep = 1.0 - check_probability(policy.nu(backup.mux_degree), "nu")
        channel_id = backup.channel_id
        path = backup.path
        p_muxf = 0.0
        for link in path.links:
            p_muxf += 1.0 - keep ** link_state(link).psi_size(channel_id)
        available = survive ** path.component_count(count_endpoints) * (
            1.0 - min(1.0, p_muxf)
        )
        all_backups_unavailable *= 1.0 - available
    primary_ok = survive ** connection.primary.path.component_count(
        count_endpoints
    )
    return 1.0 - (1.0 - primary_ok) * all_backups_unavailable
