"""QoS specifications: timeliness and fault-tolerance.

Timeliness follows the paper's evaluation model: "the end-to-end delay
requirement of each channel is assumed to be met if the channel path is not
longer than the shortest-possible path by more than 2 hops" (Section 7).

Fault-tolerance QoS is either prescriptive (a number of backups plus a
multiplexing degree, as in the evaluation) or declarative (a required
reliability ``P_r``, satisfied by the literal negotiation scheme of
Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import (
    check_count,
    check_non_negative,
    check_probability,
)


@dataclass(frozen=True, slots=True)
class DelayQoS:
    """End-to-end delay requirement expressed as hop slack.

    A path of ``h`` hops satisfies the QoS iff
    ``h <= shortest_possible + slack_hops``.

    ``per_channel_baseline`` decides what "shortest possible" means for a
    *backup* channel: with ``True`` (default) it is the shortest path that
    the backup could take given its disjointness constraints — i.e. each
    channel is judged against its own feasible optimum; with ``False`` it
    is the connection's unconstrained shortest path.  The paper's
    evaluation is only consistent with the per-channel reading: a third
    disjoint path within ``global_shortest + 2`` simply does not exist for
    many torus node pairs, yet the paper establishes double backups for
    all 4032 connections (Table 1(b)).
    """

    slack_hops: int = 2
    per_channel_baseline: bool = True

    def __post_init__(self) -> None:
        check_count(self.slack_hops, "slack_hops")

    def max_hops(self, shortest_possible: int) -> int:
        """Longest admissible path for a connection whose unconstrained
        shortest path has ``shortest_possible`` hops."""
        check_non_negative(shortest_possible, "shortest_possible")
        return shortest_possible + self.slack_hops


@dataclass(frozen=True, slots=True)
class FaultToleranceQoS:
    """Fault-tolerance requirement of a D-connection.

    Exactly one of the two styles is used:

    * *prescriptive* — ``num_backups`` and ``mux_degree`` given directly
      (``required_pr`` is ``None``).  ``mux_degree`` is the integer ``α``
      of the paper's ``mux=α`` notation: two backups may share spare
      resources iff their primaries share fewer than ``α`` components
      (equivalently ν = α·λ).  ``mux_degree = 0`` disables multiplexing.
    * *declarative* — ``required_pr`` given; the literal negotiation scheme
      (Section 3.4) picks the largest mux degree (and, if needed, extra
      backups) that achieves it.

    ``max_backups`` bounds the declarative search.
    """

    num_backups: int = 1
    mux_degree: int = 1
    required_pr: float | None = None
    max_backups: int = 2

    def __post_init__(self) -> None:
        check_count(self.num_backups, "num_backups")
        check_count(self.mux_degree, "mux_degree")
        check_count(self.max_backups, "max_backups")
        if self.required_pr is not None:
            check_probability(self.required_pr, "required_pr")
            if self.max_backups < 1:
                raise ValueError(
                    "declarative fault-tolerance needs max_backups >= 1"
                )

    @property
    def is_declarative(self) -> bool:
        """Whether the requirement is a target ``P_r`` rather than an
        explicit backup configuration."""
        return self.required_pr is not None


#: A connection with no fault-tolerance at all (plain real-time channel).
NO_FAULT_TOLERANCE = FaultToleranceQoS(num_backups=0, mux_degree=0)
