"""The always-on admission server.

One :class:`AdmissionServer` owns one warm
:class:`~repro.core.bcp.BCPNetwork` for the lifetime of the process:
compiled flat views, route-cache floor tables, the per-link multiplexing
state, and the reservation ledger all persist across requests instead of being
rebuilt per CLI invocation.  Requests arrive over the line-delimited
JSON protocol of :mod:`repro.serve.protocol`; recovery queries are
answered in-process from the warm network's compiled plan
(:func:`repro.recovery.evaluate_scenarios`) — the server never forks.

The server itself is single-threaded and handles one connection at a
time — admission is a serialized state machine by design (the
determinism contract), so a request pipeline, not request concurrency,
is the scaling axis.  Every operation's wall time lands in the
``serve.admission_latency`` / ``serve.recovery_delay`` histograms, whose
p50/p99 summaries feed :class:`~repro.obs.slo.SLOEngine` gating (the
serve-smoke CI job fails on breached targets).
"""

from __future__ import annotations

import os
from dataclasses import asdict
from time import perf_counter

from repro.channels.qos import DelayQoS, FaultToleranceQoS
from repro.channels.traffic import TrafficSpec
from repro.core.bcp import BCPNetwork, BatchRequest, EstablishmentError
from repro.faults.models import FailureScenario
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.slo import SLOEngine
from repro.recovery import evaluate_scenarios
from repro.scenario.spec import ScenarioSpec
from repro.serve.protocol import (
    SERVE_SCHEMA,
    MessageStream,
    ProtocolError,
    create_listener,
    parse_address,
)
from repro.serve.state import load_snapshot, restore_network, write_snapshot


class AdmissionServer:
    """Serves establish/teardown/audit/recovery operations over a socket.

    Parameters
    ----------
    spec:
        The scenario cell pinning the topology (and, for churn clients,
        the workload defaults).  ``hello`` hands the spec to clients so
        they can rebuild an identical local topology for seeded pair and
        failure-link sampling.
    workers:
        Accepted and ignored: the frozen ``benchmarks/e2e/workloads.py``
        still passes ``workers=1`` (ROADMAP, "One benchmark system").
    metrics:
        Target registry for the ``serve.*`` metrics (default: the
        session registry).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        workers: "int | None" = 1,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.spec = spec
        self.registry = metrics if metrics is not None else get_registry()
        self.network = BCPNetwork(spec.topology.build())
        self._h_admission = self.registry.histogram("serve.admission_latency")
        self._h_recovery = self.registry.histogram("serve.recovery_delay")
        self._c_requests = self.registry.counter("serve.requests")
        self._c_established = self.registry.counter("serve.established")
        self._c_blocked = self.registry.counter("serve.blocked")
        self._c_teardowns = self.registry.counter("serve.teardowns")
        self._c_snapshots = self.registry.counter("serve.snapshots")
        self._c_restores = self.registry.counter("serve.restores")
        self._c_errors = self.registry.counter("serve.errors")
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def restore(self, path: str) -> int:
        """Load a ``repro.snapshot/1`` file into the warm network.

        Returns the number of restored connections.  Must run before any
        admission traffic (the codec refuses non-fresh networks).
        """
        restore_network(self.network, load_snapshot(path))
        self._c_restores.inc()
        return self.network.num_connections

    def slo_breaches(self, slos: "tuple[str, ...]") -> list[str]:
        """Evaluate declarative SLO targets against this server's metrics
        snapshot; one human-readable line per breached target."""
        engine = SLOEngine(slos)
        return [
            f"{breach.target.spec()} observed {breach.observed!r}"
            + (f" ({breach.detail})" if breach.detail else "")
            for breach in engine.breaches(self.registry.snapshot())
        ]

    # ------------------------------------------------------------------
    # the serve loop
    # ------------------------------------------------------------------
    def serve_forever(self, address: str) -> None:
        """Listen on ``address`` and serve until a ``shutdown`` request.

        Connections are accepted and served one at a time, each until
        its peer disconnects; a Unix socket path is unlinked on exit.
        """
        parsed = parse_address(address)
        listener = create_listener(address)
        self._running = True
        try:
            while self._running:
                conn, _ = listener.accept()
                try:
                    self.serve_connection(conn)
                finally:
                    conn.close()
        finally:
            listener.close()
            if isinstance(parsed, str):
                try:
                    os.unlink(parsed)
                except OSError:  # pragma: no cover - already gone
                    pass

    def serve_connection(self, sock) -> None:
        """Serve one connected peer until EOF or ``shutdown``.

        Public so tests and the in-process bench can run the full
        protocol over a ``socketpair`` without binding a listener.  A
        peer that disconnects mid-exchange ends its connection quietly.
        """
        stream = MessageStream(sock)
        try:
            while True:
                try:
                    request = stream.recv()
                except ProtocolError as error:
                    self._c_errors.inc()
                    stream.send({"id": None, "ok": False, "error": str(error)})
                    return
                if request is None:
                    return
                stream.send(self.handle_request(request))
                if not self._running:
                    return
        except ConnectionError:
            # The peer vanished: its connection is over, not the server.
            return

    def handle_request(self, request: dict) -> dict:
        """Dispatch one request dict to its ``op`` handler."""
        self._c_requests.inc()
        request_id = request.get("id")
        op = request.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            self._c_errors.inc()
            return {
                "id": request_id,
                "ok": False,
                "error": f"unknown op {op!r}",
            }
        try:
            result = handler(self, request)
        except Exception as error:
            self._c_errors.inc()
            return {
                "id": request_id,
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }
        result["id"] = request_id
        result["ok"] = True
        return result

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _op_hello(self, request: dict) -> dict:
        return {
            "schema": SERVE_SCHEMA,
            "spec": self.spec.to_dict(),
            "connections": self.network.num_connections,
        }

    def _op_ping(self, request: dict) -> dict:
        return {}

    def _op_shutdown(self, request: dict) -> dict:
        self._running = False
        return {"connections": self.network.num_connections}

    def _op_establish(self, request: dict) -> dict:
        # A spec is built once per distinct operand of the request (a
        # churn batch repeats one); the value types are part of the key,
        # so ``1``, ``1.0`` and ``true`` stay three operands.
        built: dict = {}

        def spec(kind, item: dict, name: str):
            operand = item.get(name, {})
            key = (kind, *[(field, type(value), value)
                           for field, value in operand.items()])
            made = built.get(key)
            if made is None:
                made = built[key] = kind(**operand)
            return made

        requests = [
            BatchRequest(
                src=item["src"],
                dst=item["dst"],
                traffic=spec(TrafficSpec, item, "traffic"),
                delay_qos=spec(DelayQoS, item, "delay_qos"),
                ft_qos=spec(FaultToleranceQoS, item, "ft_qos"),
            )
            for item in request["requests"]
        ]
        started = perf_counter()
        results = self.network.establish_batch(requests)
        elapsed = perf_counter() - started
        encoded = []
        for result in results:
            # Each request in the batch experienced the batch's wall
            # time as its admission latency.
            self._h_admission.record(elapsed)
            if isinstance(result, EstablishmentError):
                self._c_blocked.inc()
                encoded.append({"ok": False, "error": str(result)})
            else:
                self._c_established.inc()
                encoded.append(
                    {
                        "ok": True,
                        "connection_id": result.connection_id,
                        "total_hops": result.total_hops,
                    }
                )
        return {"results": encoded, "connections": self.network.num_connections}

    def _op_teardown(self, request: dict) -> dict:
        # Anything but a list of ints fails the network's checks: a JSON
        # scalar does not unpack, a string or object unpacks to strings.
        ids = request["connection_ids"]
        self.network.teardown(*ids)
        self._c_teardowns.inc(len(ids))
        return {"connections": self.network.num_connections}

    def _op_audit(self, request: dict) -> dict:
        return {"violations": self.network.audit_invariants()}

    def _op_num_connections(self, request: dict) -> dict:
        return {"value": self.network.num_connections}

    def _op_network_load(self, request: dict) -> dict:
        return {"value": self.network.network_load()}

    def _op_spare_fraction(self, request: dict) -> dict:
        return {"value": self.network.spare_fraction()}

    def _op_evaluate(self, request: dict) -> dict:
        topology = self.network.topology
        links = [topology.link(src, dst) for src, dst in request["links"]]
        scenarios = [FailureScenario.of_links([link]) for link in links]
        started = perf_counter()
        private = MetricsRegistry()
        stats = evaluate_scenarios(
            self.network,
            scenarios,
            seed=request["seed"],
            metrics=private,
        )
        self._h_recovery.record(perf_counter() - started)
        return {
            "stats": asdict(stats),
            "counters": private.snapshot()["counters"],
        }

    def _op_snapshot(self, request: dict) -> dict:
        write_snapshot(self.network, request["path"])
        self._c_snapshots.inc()
        return {
            "path": request["path"],
            "connections": self.network.num_connections,
        }

    def _op_metrics(self, request: dict) -> dict:
        return {"snapshot": self.registry.snapshot()}

    _OPS = {
        "hello": _op_hello,
        "ping": _op_ping,
        "shutdown": _op_shutdown,
        "establish": _op_establish,
        "teardown": _op_teardown,
        "audit": _op_audit,
        "num_connections": _op_num_connections,
        "network_load": _op_network_load,
        "spare_fraction": _op_spare_fraction,
        "evaluate": _op_evaluate,
        "snapshot": _op_snapshot,
        "metrics": _op_metrics,
    }
