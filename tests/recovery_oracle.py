"""Reference oracle for :class:`repro.recovery.RecoveryEvaluator`.

This is the evaluator as it stood before the compiled recovery plan: every
scenario rescans every live connection and draws spare through
``dict[LinkId, float]`` pools seeded lazily from the construction-time
snapshot.  It is slow and obviously right, and it lives here — not in
``src/`` — so the product has one evaluation path and the tests have
something independent to hold it against (``test_recovery_differential``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.channels.channel import Channel
from repro.core.bcp import BCPNetwork
from repro.core.dconnection import DConnection
from repro.faults.models import FailureScenario
from repro.network.components import LinkId
from repro.recovery import ActivationOrder, ConnectionOutcome, ScenarioResult
from repro.util.rng import make_rng


class OracleEvaluator:
    """Full-scan scenario evaluation; same constructor meaning as the real
    evaluator (minus metrics and input validation)."""

    def __init__(
        self,
        network: BCPNetwork,
        order: ActivationOrder = ActivationOrder.PRIORITY,
        spare_override: "Mapping[LinkId, float] | float | None" = None,
        free_capacity_fallback: bool = False,
        seed: "int | None" = 0,
    ) -> None:
        self.network = network
        self.order = order
        self.free_capacity_fallback = free_capacity_fallback
        self._rng = make_rng(seed)
        self._base_spares = self._resolve_spares(spare_override)
        self._base_free = (
            {link: network.ledger.free(link) for link in network.topology.links()}
            if free_capacity_fallback
            else {}
        )

    def _resolve_spares(
        self, override: "Mapping[LinkId, float] | float | None"
    ) -> dict[LinkId, float]:
        topology = self.network.topology
        if override is None:
            return self.network.ledger.snapshot_spares()
        if isinstance(override, (int, float)):
            return {
                link: min(
                    float(override),
                    topology.capacity(link)
                    - self.network.ledger.primary_reserved(link),
                )
                for link in topology.links()
            }
        return {link: float(override.get(link, 0.0)) for link in topology.links()}

    def evaluate(self, scenario: FailureScenario) -> ScenarioResult:
        network = self.network
        failed_components = scenario.components(network.topology)
        affected_ids = network.registry.affected_by(failed_components)
        result = ScenarioResult(scenario=scenario)
        if not affected_ids:
            return result

        contenders: list[DConnection] = []
        for connection in network.connections():
            if scenario.hits_endpoint(connection.source, connection.destination):
                if any(
                    channel.channel_id in affected_ids
                    for channel in connection.channels
                ):
                    result.outcomes[connection.connection_id] = (
                        ConnectionOutcome.EXCLUDED
                    )
                continue
            if connection.primary.channel_id in affected_ids:
                contenders.append(connection)

        pools: dict[LinkId, float] = {}
        free: dict[LinkId, float] = {}
        for connection in self._ordered(contenders):
            outcome = self._try_activate(
                connection, failed_components, pools, free, result
            )
            result.outcomes[connection.connection_id] = outcome
        return result

    def _ordered(self, contenders: Sequence[DConnection]) -> list[DConnection]:
        if self.order is ActivationOrder.PRIORITY:
            return sorted(
                contenders,
                key=lambda conn: (conn.mux_degree, conn.connection_id),
            )
        if self.order is ActivationOrder.CONNECTION_ID:
            return sorted(contenders, key=lambda conn: conn.connection_id)
        shuffled = list(contenders)
        self._rng.shuffle(shuffled)
        return shuffled

    def _try_activate(
        self,
        connection: DConnection,
        failed_components: frozenset,
        pools: dict[LinkId, float],
        free: dict[LinkId, float],
        result: ScenarioResult,
    ) -> ConnectionOutcome:
        bandwidth = connection.traffic.bandwidth
        saw_healthy_backup = False
        for backup in connection.backups_in_serial_order():
            if backup.fails_under(failed_components):
                continue
            saw_healthy_backup = True
            if self._draw(backup, bandwidth, pools, free):
                result.activated_serial[connection.connection_id] = backup.serial
                return ConnectionOutcome.FAST_RECOVERED
        if saw_healthy_backup:
            return ConnectionOutcome.MUX_FAILURE
        return ConnectionOutcome.CHANNELS_LOST

    def _draw(
        self,
        backup: Channel,
        bandwidth: float,
        pools: dict[LinkId, float],
        free: dict[LinkId, float],
    ) -> bool:
        links = backup.path.links
        for link in links:
            available = pools.setdefault(link, self._base_spares.get(link, 0.0))
            if available + 1e-9 < bandwidth:
                if not self.free_capacity_fallback:
                    return False
                spill = bandwidth - available
                free_here = free.setdefault(link, self._base_free.get(link, 0.0))
                if free_here + 1e-9 < spill:
                    return False
        for link in links:
            remaining = pools[link] - bandwidth
            if remaining < -1e-9:
                free[link] += remaining
                remaining = 0.0
            pools[link] = max(0.0, remaining)
        return True
