"""Client side of the admission service.

:class:`ServeClient` is the low-level RPC stream — one request, one
response, correlation-id checked.  :class:`RemoteNetwork` adapts it to
the network surface :class:`~repro.workload.churn.ChurnEngine` drives
(``establish_batch`` / ``teardown`` / audit / metrics / per-epoch
recovery evaluation), which turns the existing churn engine into a
remote load generator: every seeded draw happens client-side against a
local topology mirror rebuilt from the server's ``hello`` spec, so a
remote run's stats are byte-identical to a local run's.

A round trip carries what the engine hands over in one call: an arrival
batch is one ``establish`` request, and the departures due before the
next arrival or epoch boundary are one ``teardown`` request.  An
establish item names only the QoS fields that differ from their
dataclass defaults.
"""

from __future__ import annotations

import time
from dataclasses import fields

from repro.core.bcp import EstablishmentError
from repro.network.components import LinkId
from repro.recovery import RecoveryStats
from repro.scenario.spec import ScenarioSpec
from repro.serve.protocol import MessageStream, connect


#: Seconds a connect, send or receive may block before ``OSError``.
TIMEOUT_S = 30.0

#: Spec objects whose wire operand a :class:`RemoteNetwork` remembers.
OPERAND_CACHE = 64


class ServeError(Exception):
    """The server reported an operation failure (``ok: false``)."""


class ServeClient:
    """Blocking request/response client over one server connection."""

    def __init__(self, address: str) -> None:
        self.address = address
        self._stream: "MessageStream | None" = None
        self._next_id = 0

    def connect(self, retry_window: float = 0.0) -> dict:
        """(Re)connect and handshake; returns the ``hello`` response.

        ``retry_window`` keeps retrying the TCP/Unix connect for that
        many seconds — how a client rides through a server restart.
        """
        self.close()
        deadline = time.monotonic() + retry_window
        while True:
            try:
                self._stream = MessageStream(
                    connect(self.address, timeout=TIMEOUT_S)
                )
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        return self.call("hello")

    def call(self, op: str, **params) -> dict:
        """One round trip; raises :class:`ServeError` on ``ok: false``."""
        if self._stream is None:
            raise ServeError(f"not connected to {self.address}")
        self._next_id += 1
        request = {"id": self._next_id, "op": op, **params}
        self._stream.send(request)
        response = self._stream.recv()
        if response is None:
            raise ServeError(f"server closed the connection during {op!r}")
        if response.get("id") != self._next_id:
            raise ServeError(
                f"response correlation mismatch: sent id {self._next_id}, "
                f"got {response.get('id')!r}"
            )
        if not response.get("ok"):
            raise ServeError(response.get("error", f"{op} failed"))
        return response

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


class RemoteConnection:
    """Client-side handle for one admitted D-connection.

    Carries exactly what the churn engine consumes: the id (for
    teardown scheduling) and the hop count (for the modelled
    establishment latency).
    """

    __slots__ = ("connection_id", "total_hops")

    def __init__(self, connection_id: int, total_hops: int) -> None:
        self.connection_id = connection_id
        self.total_hops = total_hops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RemoteConnection(id={self.connection_id}, "
            f"hops={self.total_hops})"
        )


class RemoteNetwork:
    """The churn engine's network surface, backed by an admission server.

    The constructor handshakes, then rebuilds the server's topology
    locally from the ``hello`` spec — seeded node-pair and failure-link
    sampling need the node/link tables, and building them from the same
    :class:`~repro.scenario.spec.TopologySpec` guarantees both sides
    agree on insertion order.  All admission state stays server-side;
    the one thing mirrored is the live-connection count, which every
    ``hello`` / ``establish`` / ``teardown`` response carries
    (``connections``) — the server serves one connection at a time, so
    the latest one is exact and :attr:`num_connections` costs no round
    trip.
    """

    def __init__(self, client: ServeClient, retry_window: float = 0.0) -> None:
        self.client = client
        self._operands: dict[int, tuple] = {}
        hello = self.reconnect(retry_window)
        self.spec = ScenarioSpec.from_dict(hello["spec"])
        self.topology = self.spec.topology.build()

    def reconnect(self, retry_window: float = 30.0) -> dict:
        """Ride through a server restart; returns the new ``hello``."""
        hello = self.client.connect(retry_window=retry_window)
        self._num_connections = hello["connections"]
        return hello

    # -- the ChurnEngine surface ---------------------------------------
    def establish_batch(self, requests) -> list:
        """Admit a batch remotely; per-request results in order, each a
        :class:`RemoteConnection` or an
        :class:`~repro.core.bcp.EstablishmentError`."""
        items = []
        for request in requests:
            item = {"src": request.src, "dst": request.dst}
            for name in ("traffic", "delay_qos", "ft_qos"):
                operand = self._operand(getattr(request, name))
                if operand:
                    item[name] = operand
            items.append(item)
        response = self.client.call("establish", requests=items)
        self._num_connections = response["connections"]
        return [
            RemoteConnection(item["connection_id"], item["total_hops"])
            if item["ok"]
            else EstablishmentError(item["error"])
            for item in response["results"]
        ]

    def _operand(self, spec) -> dict:
        """The fields of a traffic / QoS spec that differ from their
        dataclass defaults (in value or in type), worked out once per
        spec object: the churn engine sends the same three with every
        request.  An entry holds its spec, so no other object can take
        its ``id``; a caller building fresh specs per request only ever
        refills a small cache."""
        cached = self._operands.get(id(spec))
        if cached is None:
            operand = {}
            for field in fields(spec):
                value = getattr(spec, field.name)
                if not (value == field.default
                        and type(value) is type(field.default)):
                    operand[field.name] = value
            if len(self._operands) >= OPERAND_CACHE:
                self._operands.clear()
            cached = self._operands[id(spec)] = (spec, operand)
        return cached[1]

    def teardown(self, *connection_ids: int) -> None:
        """Tear down one or more connections in one round trip; the
        server checks every id before it tears any down."""
        response = self.client.call(
            "teardown", connection_ids=list(connection_ids)
        )
        self._num_connections = response["connections"]

    @property
    def num_connections(self) -> int:
        """Live connections as of the latest admission response."""
        return self._num_connections

    def network_load(self) -> float:
        return self.client.call("network_load")["value"]

    def spare_fraction(self) -> float:
        return self.client.call("spare_fraction")["value"]

    def audit_invariants(self) -> list[str]:
        """The server-side epoch audit, in one round trip."""
        return self.client.call("audit")["violations"]

    def evaluate_failures(self, links: "list[LinkId]", seed: int) -> tuple:
        """Run a recovery evaluation server-side (its warm network, its
        compiled plan); returns ``(RecoveryStats, counters)`` exactly as
        the local evaluate-under-churn path produces them."""
        response = self.client.call(
            "evaluate",
            links=[[link.src, link.dst] for link in links],
            seed=seed,
        )
        return RecoveryStats(**response["stats"]), response["counters"]

    # -- management helpers (not part of the engine surface) -----------
    def snapshot(self, path: str) -> dict:
        """Ask the server to write a ``repro.snapshot/1`` file."""
        return self.client.call("snapshot", path=path)

    def metrics_snapshot(self) -> dict:
        """The server's ``repro.metrics/1`` registry snapshot."""
        return self.client.call("metrics")["snapshot"]

    def shutdown(self) -> dict:
        return self.client.call("shutdown")


__all__ = [
    "RemoteConnection",
    "RemoteNetwork",
    "ServeClient",
    "ServeError",
]
