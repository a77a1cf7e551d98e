"""Admission control (the RNMP admission test of Section 2).

The admission test of the reproduction checks bandwidth only, matching the
paper's simplification ("we consider only link bandwidth for simplicity").
Two kinds of admission happen:

* a *primary* channel needs ``traffic.bandwidth`` of free capacity on every
  link of its path, and
* a *backup* channel needs each link of its path to accommodate whatever
  spare-pool growth the multiplexing engine computes for it (possibly
  zero) — that check lives in :mod:`repro.core.multiplexing`, which calls
  back into the ledger.

This module also builds the link predicates the routers use, so routing
never proposes a path that admission would reject.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.channels.traffic import TrafficSpec
from repro.network.reservations import CapacityFloor, ReservationLedger
from repro.routing.paths import Path


class AdmissionError(Exception):
    """Raised when a channel fails the admission test."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class AdmissionController:
    """Bandwidth admission tests over a reservation ledger."""

    ledger: ReservationLedger

    def primary_link_predicate(self, traffic: TrafficSpec) -> CapacityFloor:
        """Routing predicate: links able to carry a new primary reservation.

        Returns a recognised :class:`CapacityFloor` (not an opaque
        closure), so the flat routing core resolves admissibility to an
        array compare and can cache the search result.
        """
        return self.ledger.capacity_floor(traffic.bandwidth)

    def reserve_primary(self, path: Path, traffic: TrafficSpec) -> None:
        """Reserve primary bandwidth along ``path`` (all-or-nothing).

        One bulk ledger operation: validate-then-apply with a single
        version bump, so downstream route caches invalidate once per
        admitted path instead of once per link.
        """
        self.ledger.reserve_primary_path(path.links, traffic.bandwidth)

    def release_primary(self, path: Path, traffic: TrafficSpec) -> None:
        """Release primary bandwidth along ``path`` (teardown)."""
        self.ledger.release_primary_path(path.links, traffic.bandwidth)
