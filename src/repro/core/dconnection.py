"""Dependable connections (D-connections).

A D-connection bundles one primary channel with zero or more serially
numbered backup channels between the same endpoints (Section 1: "a
dependable real-time connection consists of a primary channel and one or
more backup channels").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.channels.channel import Channel, ChannelRole
from repro.channels.qos import DelayQoS, FaultToleranceQoS
from repro.channels.traffic import TrafficSpec
from repro.network.components import NodeId


class ConnectionState(enum.Enum):
    """Lifecycle of a D-connection."""

    #: Primary healthy, backups standing by.
    ACTIVE = "active"
    #: Primary lost, a backup activation or re-establishment in progress.
    RECOVERING = "recovering"
    #: All channels lost; service cannot be restored without full
    #: re-establishment (or at all, if an end-node failed).
    FAILED = "failed"
    #: Torn down by the client.
    CLOSED = "closed"


@dataclass(slots=True)
class DConnection:
    """One dependable real-time connection."""

    connection_id: int
    source: NodeId
    destination: NodeId
    traffic: TrafficSpec
    delay_qos: DelayQoS
    ft_qos: FaultToleranceQoS
    primary: Channel
    backups: list[Channel] = field(default_factory=list)
    state: ConnectionState = ConnectionState.ACTIVE
    #: The resultant reliability reported to the client (Section 3.4);
    #: filled in by establishment when a λ-based policy is in use.
    achieved_pr: float | None = None

    def __post_init__(self) -> None:
        if self.primary.role is not ChannelRole.PRIMARY:
            raise ValueError("the primary channel must have PRIMARY role")
        for backup in self.backups:
            if backup.role is not ChannelRole.BACKUP:
                raise ValueError(
                    f"channel {backup.channel_id} listed as backup but has "
                    f"role {backup.role}"
                )

    # ------------------------------------------------------------------
    @property
    def num_backups(self) -> int:
        return len(self.backups)

    @property
    def channels(self) -> list[Channel]:
        """All channels, primary first, then backups in serial order."""
        return [self.primary, *self.backups]

    @property
    def total_hops(self) -> int:
        """Hop count summed over every channel (primary + backups).

        The churn engine's modelled establishment latency is
        ``PER_HOP_LATENCY * total_hops``; remote connection handles
        (:mod:`repro.serve`) carry the same number so client-side stats
        stay byte-identical to a local run.
        """
        return sum(channel.path.hops for channel in self.channels)

    @property
    def mux_degree(self) -> int:
        """The connection's multiplexing degree (the paper keeps one ν per
        connection: "each backup is required to have the same multiplexing
        degree on all of its links")."""
        return self.ft_qos.mux_degree

    def backups_in_serial_order(self) -> list[Channel]:
        """Backups sorted by serial number — the activation try order that
        keeps both end-nodes consistent (Section 4.2)."""
        return sorted(self.backups, key=lambda channel: channel.serial)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DConnection(id={self.connection_id}, "
            f"{self.source}->{self.destination}, backups={self.num_backups}, "
            f"mux={self.mux_degree}, {self.state.value})"
        )
