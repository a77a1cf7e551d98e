"""Channel objects.

A :class:`Channel` is one virtual circuit of a D-connection: the primary or
one of its serially-numbered backups.  Channels are identified by a
network-unique integer id; backup serial numbers implement the paper's rule
that "one way to accomplish this [consistent bi-directional activation] is
to allocate serial numbers to the backups of each D-connection" (Section
4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.channels.traffic import TrafficSpec
from repro.routing.paths import Path


class ChannelRole(enum.Enum):
    """Role of a channel within its D-connection."""

    PRIMARY = "primary"
    BACKUP = "backup"


@dataclass(slots=True)
class Channel:
    """One virtual circuit (primary or backup) of a D-connection.

    Attributes
    ----------
    channel_id:
        Network-unique identifier, carried by failure reports.
    connection_id:
        The owning D-connection.
    role:
        Primary or backup.
    serial:
        0 for the primary, 1.. for backups in establishment order.
    path:
        The route; fixed for the channel's lifetime (real-time channels
        cannot be detoured on the fly — that is the paper's premise).
    traffic:
        Client traffic spec; ``traffic.bandwidth`` is reserved on each link.
    mux_degree:
        The integer ``α`` of ``mux=α`` (backups only; primaries carry the
        connection's value for bookkeeping but never multiplex).
    """

    channel_id: int
    connection_id: int
    role: ChannelRole
    serial: int
    path: Path
    traffic: TrafficSpec
    mux_degree: int = 0

    def __post_init__(self) -> None:
        if self.serial < 0:
            raise ValueError(f"serial must be >= 0, got {self.serial}")

    @property
    def bandwidth(self) -> float:
        """Reserved per-link bandwidth (Mbps)."""
        return self.traffic.bandwidth

    @property
    def components(self) -> frozenset:
        """All components (nodes + links) of the channel path, built by
        the path on first use."""
        return self.path.components

    def fails_under(self, failed_components: frozenset | set) -> bool:
        """Whether this channel is disabled by the given component failures."""
        return self.path.intersects(failed_components)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Channel(id={self.channel_id}, conn={self.connection_id}, "
            f"{self.role.value}#{self.serial}, "
            f"{self.path.source}->{self.path.destination}, "
            f"{self.path.hops} hops)"
        )
