"""Reference oracle for the management-level switchover (Section 4.4).

After a primary fails, its lowest-serial backup becomes the primary (the
serial-number rule that keeps both end-nodes consistent, Section 4.2)
and the resources are reconfigured: the backup leaves the multiplexing
state, the failed primary's bandwidth is released, the activated path's
bandwidth moves from the spare pool into the primary pool, and every
touched spare pool is resized for the backups that remain.

No entry point of the program commits a switchover to a network — the
runtime protocol (:mod:`repro.protocol`) and the steady-state evaluator
(:mod:`repro.recovery`) model one on state of their own — so this block
lives beside the tests that drive it, written against the network's
public calls only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import (
    BCPNetwork,
    ChannelRole,
    ConnectionState,
    DConnection,
    EstablishmentError,
)
from repro.network import LinkId


@dataclass
class ReconfigurationReport:
    """Outcome of the resource reconfiguration after a switchover.

    ``converted`` lists the links where the activated backup's bandwidth
    moved from the spare pool to the primary pool; ``deficits`` maps each
    link whose spare pool could not be restored to what the remaining
    backups require onto the missing bandwidth.
    """

    converted: list[LinkId] = field(default_factory=list)
    deficits: dict[LinkId, float] = field(default_factory=dict)

    @property
    def fully_restored(self) -> bool:
        """Whether every remaining backup kept its full spare coverage."""
        return not self.deficits


def switch_to_backup(
    network: BCPNetwork, connection: DConnection
) -> ReconfigurationReport:
    """Promote ``connection``'s lowest-serial backup to primary and
    reconfigure the network's resources; the old primary's reservations
    are released and its channel leaves the registry."""
    if not connection.backups:
        raise EstablishmentError(
            f"connection {connection.connection_id} has no backups"
        )
    backup = connection.backups_in_serial_order()[0]
    ledger = network.ledger
    report = ReconfigurationReport()

    # 1. The backup stops being multiplexed, which shrinks each link's
    #    required pool.
    requirements = network.mux.remove_backup(backup)

    # 2. Release the failed primary's dedicated bandwidth.
    network.engine.admission.release_primary(
        connection.primary.path, connection.traffic
    )

    # 3. On each link of the activated path, draw the channel's bandwidth
    #    out of the spare pool into the primary pool; a pool already
    #    drained below it is topped up from free capacity.
    bandwidth = connection.traffic.bandwidth
    for link in backup.path.links:
        spare = ledger.spare_reserved(link)
        draw = min(bandwidth, spare)
        if draw > 0:
            ledger.set_spare(link, spare - draw)
            ledger.reserve_primary(link, draw)
        if draw < bandwidth:
            ledger.reserve_primary(link, bandwidth - draw)
        report.converted.append(link)

    # 4. Reconcile every touched link's pool with the new requirement.
    for link in set(requirements) | set(backup.path.links):
        required = network.mux.spare_required(link)
        entry = ledger.ledger(link)
        affordable = min(required, entry.capacity - entry.primary)
        ledger.set_spare(link, affordable)
        if affordable < required:
            report.deficits[link] = required - affordable

    # 5. Flip roles in the connection; the old primary is gone.
    old_primary = connection.primary
    connection.backups.remove(backup)
    backup.role = ChannelRole.PRIMARY
    connection.primary = backup
    connection.state = ConnectionState.ACTIVE
    network.registry.remove(old_primary.channel_id)
    return report
