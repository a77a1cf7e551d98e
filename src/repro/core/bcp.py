"""The :class:`BCPNetwork` facade — the library's main entry point.

Bundles a topology with the reservation ledger, channel registry,
multiplexing engine, and establishment engine, and exposes the operations
of the Backup Channel Protocol at the network-management level:
establishing D-connections (one request, or a batch admitted in order)
and tearing them down, and reading the utilization metrics the paper
reports (network-load and spare-bandwidth fractions).

The *runtime* side of BCP — failure reporting, activation messages, RCC
transport, rejoin timers — lives in :mod:`repro.protocol` on top of the
discrete-event kernel; steady-state failure coverage evaluation lives in
:mod:`repro.recovery`.  Both operate on a ``BCPNetwork``.
"""

from __future__ import annotations

from repro.channels.qos import DelayQoS, FaultToleranceQoS
from repro.channels.registry import ChannelRegistry
from repro.channels.traffic import TrafficSpec
from repro.core.dconnection import DConnection
from repro.core.establishment import (
    BatchRequest,
    EstablishmentEngine,
    EstablishmentError,
    NegotiationOffer,
    spare_aware_backup_cost,
)
from repro.core.multiplexing import MultiplexingEngine
from repro.core.overlap import OverlapPolicy
from repro.core.reliability import connection_pr
from repro.network.components import LinkId, NodeId
from repro.network.reservations import ReservationLedger
from repro.network.topology import Topology

__all__ = [
    "BCPNetwork",
    "BatchRequest",
    "EstablishmentError",
    "SPARE_MIRROR_EPSILON",
]

#: Spare mirrored into the ledger may differ from the mux requirement, and
#: a link's primary pool from the live primaries crossing it, by float
#: round-off only; anything larger is a consistency violation (see
#: :meth:`BCPNetwork.audit_invariants`).
SPARE_MIRROR_EPSILON = 1e-6


class BCPNetwork:
    """A multi-hop network managed by the Backup Channel Protocol."""

    def __init__(
        self,
        topology: Topology,
        policy: OverlapPolicy | None = None,
        spare_aware_backup_routing: bool = False,
    ) -> None:
        self.topology = topology
        self.policy = policy or OverlapPolicy()
        self.ledger = ReservationLedger(topology)
        self.registry = ChannelRegistry()
        self.mux = MultiplexingEngine(self.policy)
        cost_factory = (
            spare_aware_backup_cost if spare_aware_backup_routing else None
        )
        self.engine = EstablishmentEngine(
            topology, self.ledger, self.registry, self.mux,
            backup_cost_factory=cost_factory,
        )
        self._connections: dict[int, DConnection] = {}
        #: Compiled plan both evaluation paths read (see
        #: :mod:`repro.core.plan`), built lazily and recompiled whenever
        #: ``ledger.version`` moves on.
        self._plan = None

    # ------------------------------------------------------------------
    # establishment / teardown
    # ------------------------------------------------------------------
    def establish(
        self,
        src: NodeId,
        dst: NodeId,
        traffic: TrafficSpec | None = None,
        delay_qos: DelayQoS | None = None,
        ft_qos: FaultToleranceQoS | None = None,
    ) -> DConnection:
        """Establish a D-connection; see
        :meth:`~repro.core.establishment.EstablishmentEngine.establish`."""
        connection = self.engine.establish(src, dst, traffic, delay_qos, ft_qos)
        self._connections[connection.connection_id] = connection
        return connection

    def establish_batch(
        self, requests: "list[BatchRequest]"
    ) -> "list[DConnection | EstablishmentError]":
        """Admit a batch of requests in order, exactly as one
        :meth:`establish` per request would; see
        :meth:`~repro.core.establishment.EstablishmentEngine.establish_batch`.

        Successes are registered as live connections; failures stay in
        the result list as the blocking :class:`EstablishmentError`.
        """
        results = self.engine.establish_batch(requests)
        for result in results:
            if isinstance(result, DConnection):
                self._connections[result.connection_id] = result
        return results

    def negotiate(
        self,
        src: NodeId,
        dst: NodeId,
        required_pr: float,
        traffic: TrafficSpec | None = None,
    ) -> NegotiationOffer:
        """Loose QoS negotiation; the returned offer's connection is live."""
        offer = self.engine.negotiate_loose(src, dst, required_pr, traffic)
        self._connections[offer.connection.connection_id] = offer.connection
        return offer

    def teardown(self, *connections: "DConnection | int") -> None:
        """Tear down one or more connections, by object or id, in order.

        All of them are checked before any is touched: an id that is not
        an ``int`` raises ``TypeError``, an unknown id ``KeyError``, and a
        connection named twice ``ValueError``.
        """
        if not connections:
            raise TypeError("teardown needs at least one connection")
        resolved = [
            connection if isinstance(connection, DConnection)
            else self.connection(connection)
            for connection in connections
        ]
        ids = [connection.connection_id for connection in resolved]
        if len(set(ids)) < len(ids):
            raise ValueError(f"teardown names a connection twice: {ids}")
        for connection in resolved:
            self.engine.teardown(connection)
            self._connections.pop(connection.connection_id, None)

    # ------------------------------------------------------------------
    # connection access
    # ------------------------------------------------------------------
    def connection(self, connection_id: int) -> DConnection:
        """The live connection with the given id; raises ``KeyError``, or
        ``TypeError`` for an id that is not an ``int`` (a ``bool`` is
        not one)."""
        if isinstance(connection_id, bool) or not isinstance(
            connection_id, int
        ):
            raise TypeError(
                f"a connection id must be an int, got {connection_id!r}"
            )
        try:
            return self._connections[connection_id]
        except KeyError:
            raise KeyError(f"unknown connection id {connection_id}") from None

    def connections(self) -> list[DConnection]:
        """All live connections, in establishment order."""
        return list(self._connections.values())

    @property
    def num_connections(self) -> int:
        return len(self._connections)

    def connection_reliability(self, connection: "DConnection | int") -> float:
        """The resultant ``P_r`` of a live connection (Section 3.3)."""
        if isinstance(connection, int):
            connection = self.connection(connection)
        return connection_pr(connection, self.mux)

    # ------------------------------------------------------------------
    # metrics (Section 7.1)
    # ------------------------------------------------------------------
    def network_load(self) -> float:
        """Primary bandwidth over total capacity."""
        return self.ledger.network_load()

    def spare_fraction(self) -> float:
        """Spare-pool bandwidth over total capacity."""
        return self.ledger.spare_fraction()

    def audit_invariants(self) -> list[str]:
        """Ledger audit, the mux-vs-ledger spare consistency check, and
        two leak checks against the live connections.

        The churn engine's epoch auditor, hoisted onto the network so
        remote network adapters (:mod:`repro.serve`) can run the same
        check server-side with one round trip.  A leak is primary
        bandwidth on a link beyond what the live connections' primaries
        crossing it carry (only the excess: a switchover may draw less),
        or a registered channel whose connection is not live.  Returns
        one problem string per violation; empty means consistent.
        """
        violations = [str(finding) for finding in self.ledger.audit()]
        live = self._connections
        carried: dict[LinkId, float] = {}
        for connection in live.values():
            bandwidth = connection.traffic.bandwidth
            for link in connection.primary.path.links:
                carried[link] = carried.get(link, 0.0) + bandwidth
        for link in self.topology.links():
            required = self.mux.spare_required(link)
            mirrored = self.ledger.spare_reserved(link)
            if abs(required - mirrored) > SPARE_MIRROR_EPSILON:
                violations.append(
                    f"link {link}: mux requires {required!r} spare but "
                    f"ledger mirrors {mirrored!r}"
                )
            reserved = self.ledger.primary_reserved(link)
            crossing = carried.get(link, 0.0)
            if reserved - crossing > SPARE_MIRROR_EPSILON:
                violations.append(
                    f"link {link}: ledger holds {reserved!r} primary but "
                    f"live connections carry {crossing!r}"
                )
        for channel in self.registry.channels():
            if channel.connection_id not in live:
                violations.append(
                    f"channel {channel.channel_id} is registered but its "
                    f"connection {channel.connection_id} is not live"
                )
        return violations

    def __getstate__(self) -> dict:
        # The compiled plan is derived state, cheap to recompile and as
        # large as the connection table — drop it from pickles (only a
        # chaos campaign's pool processes receive a pickled network, and
        # recompile on first use), like ``Topology._flat``.
        state = self.__dict__.copy()
        state["_plan"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BCPNetwork({self.topology.name!r}, "
            f"connections={self.num_connections}, "
            f"load={self.network_load():.1%}, "
            f"spare={self.spare_fraction():.1%})"
        )
