"""Microbenchmarks of the admission service (repro.serve).

The server runs in-process over a ``socketpair`` in a daemon thread, so
these measure the full wire protocol — encode, frame, dispatch, admit,
respond — without kernel TCP or process-spawn noise.  Gated by
``scripts/check_bench_regression.py`` against the committed
``benchmarks/BENCH_serve.json`` baseline; medians are normalised by the
same reference-BFS calibration anchor the other suites use.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.bcp import BCPNetwork
from repro.network import torus
from repro.obs.registry import MetricsRegistry
from repro.scenario import (
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.serve import AdmissionServer, MessageStream, ServeClient
from repro.serve.state import restore_network, snapshot_network
from repro.workload import ChurnConfig, ChurnEngine
from tests.routing_oracle import reference_shortest_path

ANCHOR_TOPOLOGY = torus(8, 8, capacity=200.0)
DEEP_PAIR = (0, 36)  # torus antipode: the deepest search

SPEC = ScenarioSpec(
    name="serve/bench",
    topology=TopologySpec(family="torus", rows=4, cols=4, capacity=160.0),
    workload=WorkloadSpec(
        kind="churn", arrival_rate=6.0, holding_time=4.0, duration=10.0,
        bandwidth=4.0, batch_window=0.5, epoch_interval=5.0,
        eval_scenarios=0, pairs=16,
    ),
    protocol=ProtocolSpec(num_backups=1, mux_degree=2),
    seed=3,
)

ESTABLISH_ITEM = {
    "src": 0,
    "dst": 5,
    "traffic": {"bandwidth": 4.0},
    "ft_qos": {"num_backups": 1, "mux_degree": 2},
}


class PairClient(ServeClient):
    """A ServeClient speaking over one end of a socketpair."""

    def __init__(self, sock) -> None:
        super().__init__("socketpair")
        self._sock = sock

    def connect(self, retry_window: float = 0.0) -> dict:
        if self._stream is None:
            self._stream = MessageStream(self._sock)
        return self.call("hello")


@pytest.fixture
def remote():
    """A handshaken PairClient against an in-thread AdmissionServer."""
    server_sock, client_sock = socket.socketpair()
    server = AdmissionServer(SPEC, metrics=MetricsRegistry())
    server._running = True
    thread = threading.Thread(
        target=server.serve_connection, args=(server_sock,), daemon=True
    )
    thread.start()
    client = PairClient(client_sock)
    client.connect()
    yield client
    client.close()
    thread.join(timeout=5.0)
    server_sock.close()


def populated_network() -> BCPNetwork:
    network = BCPNetwork(SPEC.topology.build())
    config = ChurnConfig(
        arrival_rate=6.0, holding_time=4.0, duration=10.0,
        epoch_interval=5.0, eval_scenarios=0, pairs=16,
        num_backups=1, mux_degree=2, seed=3,
    )
    ChurnEngine(network, config, metrics=MetricsRegistry()).run()
    return network


def test_calibration_reference_bfs(benchmark):
    """Calibration anchor — the retained dict-based reference kernel."""
    benchmark(reference_shortest_path, ANCHOR_TOPOLOGY, *DEEP_PAIR)


def test_serve_ping_round_trip(benchmark, remote):
    """Protocol floor: one no-op request through the full wire path."""
    response = benchmark(remote.call, "ping")
    assert response["ok"] is True


def test_serve_establish_teardown_round_trip(benchmark, remote):
    """One admission plus its teardown, both over the wire — the serve
    loop's steady-state unit of work under churn."""

    def cycle():
        response = remote.call("establish", requests=[ESTABLISH_ITEM])
        [result] = response["results"]
        remote.call("teardown", connection_id=result["connection_id"])
        return result

    result = benchmark(cycle)
    assert result["ok"] is True


def test_serve_snapshot_encode(benchmark):
    """Encoding a ~16-connection network into a repro.snapshot/1 dict."""
    network = populated_network()
    snapshot = benchmark(snapshot_network, network)
    assert snapshot["schema"] == "repro.snapshot/1"


def test_serve_snapshot_restore(benchmark):
    """Restoring that snapshot into a freshly built network (the server
    restart path: decode, re-register, replay mux adds, transplant)."""
    snapshot = snapshot_network(populated_network())

    def run():
        fresh = BCPNetwork(SPEC.topology.build())
        restore_network(fresh, snapshot)
        return fresh

    restored = benchmark(run)
    assert restored.num_connections == len(snapshot["connections"])
