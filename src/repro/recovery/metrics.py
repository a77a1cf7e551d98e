"""Aggregated recovery statistics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RecoveryStats:
    """Counters aggregated over one or more failure scenarios.

    ``failed_primaries`` counts D-connections whose primary was disabled
    and whose end-nodes survived (the paper's denominator); the remaining
    counters partition it:

    * ``fast_recovered`` — switched to a healthy backup with sufficient
      spare (the paper's numerator),
    * ``mux_failures`` — a healthy backup existed but some spare pool was
      exhausted (a *multiplexing failure*, Section 3.3),
    * ``channels_lost`` — every backup was disabled by the same scenario,
    * no backups at all also lands in ``channels_lost`` (a connection with
      zero backups can never recover fast).
    """

    scenarios: int = 0
    failed_primaries: int = 0
    fast_recovered: int = 0
    mux_failures: int = 0
    channels_lost: int = 0
    excluded_connections: int = 0

    # ------------------------------------------------------------------
    def add_scenario(
        self,
        failed_primaries: int,
        fast_recovered: int,
        mux_failures: int,
        channels_lost: int,
        excluded_connections: int,
    ) -> None:
        """Fold one scenario's counts in."""
        if fast_recovered + mux_failures + channels_lost != failed_primaries:
            raise ValueError(
                "scenario counts do not partition failed_primaries: "
                f"{fast_recovered}+{mux_failures}+{channels_lost} != "
                f"{failed_primaries}"
            )
        self.scenarios += 1
        self.failed_primaries += failed_primaries
        self.fast_recovered += fast_recovered
        self.mux_failures += mux_failures
        self.channels_lost += channels_lost
        self.excluded_connections += excluded_connections

    def merge(self, other: "RecoveryStats") -> "RecoveryStats":
        """Combine with another stats object (parallel sweeps)."""
        return RecoveryStats(
            scenarios=self.scenarios + other.scenarios,
            failed_primaries=self.failed_primaries + other.failed_primaries,
            fast_recovered=self.fast_recovered + other.fast_recovered,
            mux_failures=self.mux_failures + other.mux_failures,
            channels_lost=self.channels_lost + other.channels_lost,
            excluded_connections=(
                self.excluded_connections + other.excluded_connections
            ),
        )

    # ------------------------------------------------------------------
    @property
    def r_fast(self) -> float | None:
        """Ratio of fast recoveries to failed primaries, pooled over all
        scenarios (the paper's R_fast).  ``None`` when nothing failed."""
        if self.failed_primaries == 0:
            return None
        return self.fast_recovered / self.failed_primaries
