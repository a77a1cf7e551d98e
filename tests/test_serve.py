"""Tests for the always-on admission service (repro.serve).

The server is exercised in-process over ``socket.socketpair()`` — the
full wire protocol, no listener, no ports — with the serve loop in a
daemon thread.  The headline property: a churn run driven through
:class:`RemoteNetwork` produces byte-identical stats to the same run
against a local :class:`BCPNetwork`, because every seeded draw happens
client-side and admission is a deterministic function of the request
stream.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading

import pytest

from repro.channels.qos import DelayQoS, FaultToleranceQoS
from repro.channels.traffic import TrafficSpec
from repro.core.bcp import BCPNetwork, BatchRequest, EstablishmentError
from repro.obs.registry import MetricsRegistry
from repro.scenario import (
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    churn_config_from_spec,
)
from repro.serve import (
    AdmissionServer,
    MessageStream,
    ProtocolError,
    RemoteNetwork,
    ServeClient,
    ServeError,
)
from repro.serve.protocol import (
    decode_message,
    encode_message,
    parse_address,
)
from repro.workload import ChurnEngine


def smoke_spec(duration: float = 10.0) -> ScenarioSpec:
    return ScenarioSpec(
        name="serve/test",
        topology=TopologySpec(family="torus", rows=4, cols=4, capacity=160.0),
        workload=WorkloadSpec(
            kind="churn", arrival_rate=6.0, holding_time=4.0,
            duration=duration, bandwidth=4.0, batch_window=0.5,
            epoch_interval=5.0, eval_scenarios=2, pairs=16,
        ),
        protocol=ProtocolSpec(num_backups=1, mux_degree=2),
        seed=3,
    )


class PairClient(ServeClient):
    """A ServeClient speaking over one end of a socketpair."""

    def __init__(self, sock) -> None:
        super().__init__("socketpair")
        self._sock = sock

    def connect(self, retry_window: float = 0.0) -> dict:
        # Unlike the real client there is nothing to re-dial: keep the
        # one stream alive across re-handshakes.
        if self._stream is None:
            self._stream = MessageStream(self._sock)
        return self.call("hello")


@contextlib.contextmanager
def serving(server: AdmissionServer):
    """Serve one socketpair peer from a daemon thread; yields the
    client's end of the pair."""
    server_sock, client_sock = socket.socketpair()
    server._running = True
    thread = threading.Thread(
        target=server.serve_connection, args=(server_sock,), daemon=True
    )
    thread.start()
    try:
        yield client_sock
    finally:
        # Close the client end first: its EOF unblocks the serve loop, so
        # the thread is gone before the server-side fd goes away under it.
        client_sock.close()
        thread.join(timeout=5.0)
        server_sock.close()
        assert not thread.is_alive()


@pytest.fixture
def served():
    """(client, server): an AdmissionServer serving one socketpair peer
    in a daemon thread, with a handshaken PairClient attached."""
    server = AdmissionServer(smoke_spec(), workers=1,
                             metrics=MetricsRegistry())
    with serving(server) as client_sock:
        client = PairClient(client_sock)
        client.connect()
        yield client, server


class TestProtocol:
    def test_message_round_trip(self):
        message = {"id": 3, "op": "establish", "requests": []}
        assert decode_message(encode_message(message)) == message

    def test_encoding_is_deterministic(self):
        a = encode_message({"b": 1, "a": 2})
        b = encode_message({"a": 2, "b": 1})
        assert a == b
        assert a.endswith(b"\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")

    def test_parse_address(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address("/tmp/serve.sock") == "/tmp/serve.sock"
        # No digit port after the last colon: a unix path, not TCP.
        assert parse_address("./odd:name") == "./odd:name"

    def test_stream_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        stream = MessageStream(a)
        b.close()
        assert stream.recv() is None
        stream.close()

    def test_stream_mid_message_eof_raises(self):
        a, b = socket.socketpair()
        stream = MessageStream(a)
        b.sendall(b'{"id": 1')  # no terminating newline
        b.close()
        with pytest.raises(ProtocolError):
            stream.recv()
        stream.close()


class TestAdmissionServer:
    def test_hello_carries_spec_and_schema(self, served):
        client, server = served
        hello = client.call("hello")
        assert hello["schema"] == "repro.serve/2"
        assert ScenarioSpec.from_dict(hello["spec"]) == server.spec

    def test_unknown_op_is_an_error_response(self, served):
        client, _ = served
        with pytest.raises(ServeError, match="unknown op"):
            client.call("frobnicate")

    def test_handler_exception_is_an_error_response(self, served):
        client, _ = served
        # The connection survives the failed op.
        with pytest.raises(ServeError, match="unknown connection id"):
            client.call("teardown", connection_ids=[999])
        assert client.call("ping")["ok"] is True

    def test_establish_teardown_round_trip(self, served):
        client, server = served
        network = RemoteNetwork(client)
        requests = server.registry.counter("serve.requests")
        handshakes = requests.value
        request = BatchRequest(
            src=0, dst=5,
            traffic=TrafficSpec(bandwidth=4.0),
            delay_qos=DelayQoS(),
            ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=2),
        )
        [result] = network.establish_batch([request])
        assert not isinstance(result, EstablishmentError)
        assert result.total_hops > 0
        assert network.num_connections == 1
        network.teardown(result.connection_id)
        assert network.num_connections == 0
        # The count rode on the two responses: no round trip of its own.
        assert requests.value == handshakes + 2
        assert network.audit_invariants() == []

    def test_admission_responses_carry_the_connection_count(self, served):
        client, server = served
        assert client.call("hello")["connections"] == 0
        request = {"src": 0, "dst": 5}
        response = client.call("establish", requests=[request, request])
        assert [item["ok"] for item in response["results"]] == [True, True]
        assert response["connections"] == 2 == server.network.num_connections
        first = response["results"][0]["connection_id"]
        assert client.call(
            "teardown", connection_ids=[first]
        )["connections"] == 1
        # The op other clients poll stays.
        assert client.call("num_connections")["value"] == 1

    def test_unknown_node_fails_its_request_only_and_leaks_nothing(self):
        server = AdmissionServer(smoke_spec(), workers=1,
                                 metrics=MetricsRegistry())
        response = server.handle_request({
            "id": 1, "op": "establish",
            "requests": [{"src": 0, "dst": 5}, {"src": 99, "dst": 0}],
        })
        assert response["ok"] is True
        admitted, unknown = response["results"]
        assert admitted["ok"] is True and unknown["ok"] is False
        assert "unknown endpoint" in unknown["error"]
        assert response["connections"] == 1
        alone = BCPNetwork(smoke_spec().topology.build())
        alone.establish_batch([BatchRequest(0, 5)])
        assert server.network.network_load() == alone.network_load() > 0.0
        assert server.network.audit_invariants() == []
        server.handle_request({"id": 2, "op": "teardown",
                               "connection_ids": [admitted["connection_id"]]})
        assert server.network.network_load() == 0.0
        assert server.network.audit_invariants() == []

    def test_remote_count_follows_reconnect_to_restored_server(
        self, served, tmp_path
    ):
        client, server = served
        network = RemoteNetwork(client)
        request = BatchRequest(
            src=0, dst=5, traffic=TrafficSpec(), delay_qos=DelayQoS(),
            ft_qos=FaultToleranceQoS(),
        )
        results = network.establish_batch([request, request, request])
        network.teardown(results[0].connection_id)
        path = str(tmp_path / "mid.json")
        network.snapshot(path)
        network.establish_batch([request])  # after the snapshot: lost
        assert network.num_connections == 3

        restarted = AdmissionServer(smoke_spec(), metrics=MetricsRegistry())
        assert restarted.restore(path) == 2
        with serving(restarted) as client_sock:
            # Re-dial: the restarted server is a new peer.
            client.close()
            client._sock = client_sock
            assert network.reconnect()["connections"] == 2
            assert network.num_connections == 2
            network.establish_batch([request])
            assert network.num_connections == 3 == (
                restarted.network.num_connections
            )

    def test_evaluate_never_starts_a_process(self, served, monkeypatch):
        """The ``served`` fixture still passes ``workers=1`` (as the frozen
        e2e benchmark does): accepted, unused.  A client-chosen ``workers``
        on an ``evaluate`` request is not read either."""

        def refuse(*args, **kwargs):
            raise AssertionError("the evaluate op built a process pool")

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", refuse
        )
        monkeypatch.setattr("repro.parallel.ProcessPoolExecutor", refuse)
        client, server = served
        assert "workers" not in client.call("hello")
        request = {"src": 0, "dst": 5}
        client.call("establish", requests=[request, request])
        links = [[link.src, link.dst]
                 for link in server.network.topology.links()]
        assert len(links) == 64
        response = client.call(
            "evaluate", links=links, seed=0, workers=10**6
        )
        assert response["stats"]["scenarios"] == 64
        assert response["stats"]["fast_recovered"] > 0

    def test_snapshot_op_writes_restorable_file(self, served, tmp_path):
        client, server = served
        path = str(tmp_path / "snap.json")
        response = client.call("snapshot", path=path)
        assert response["path"] == path
        with open(path) as handle:
            assert json.load(handle)["schema"] == "repro.snapshot/1"

    def test_metrics_op_exports_serve_histograms(self, served):
        client, _ = served
        snapshot = client.call("metrics")["snapshot"]
        assert "serve.admission_latency" in snapshot["histograms"]
        assert "serve.recovery_delay" in snapshot["histograms"]
        assert snapshot["counters"]["serve.requests"] > 0

    def test_shutdown_stops_the_serve_loop(self, served):
        client, server = served
        client.call("shutdown")
        assert server._running is False


class TestRemoteChurn:
    def test_remote_churn_matches_local_byte_for_byte(self, served):
        client, server = served
        spec = smoke_spec()
        config = churn_config_from_spec(spec)

        local_network = BCPNetwork(spec.topology.build())
        local = ChurnEngine(
            local_network, config, metrics=MetricsRegistry()
        ).run()

        class CountingRemote(RemoteNetwork):
            teardown_calls = 0

            def teardown(self, *connection_ids):
                self.teardown_calls += 1
                super().teardown(*connection_ids)

        remote_network = CountingRemote(client)
        remote = ChurnEngine(
            remote_network, config, metrics=MetricsRegistry()
        ).run()

        assert remote.to_dict() == local.to_dict()
        assert remote.peak_connections > 0 < remote.final_connections
        # One round trip per admitted batch and per run of departures,
        # four per epoch (audit, load, spare, evaluate) and the two
        # handshakes (fixture, adapter); the live count rides on the
        # responses.
        assert remote.batches > 0 < remote.departures
        runs = remote_network.teardown_calls
        assert 0 < runs < remote.departures
        assert server.registry.counter("serve.teardowns").value == (
            remote.departures
        )
        assert server.registry.counter("serve.requests").value == (
            2 + remote.batches + runs + 4 * remote.epochs
        )
        # Admission latency was observed server-side for every arrival.
        histograms = server.registry.snapshot()["histograms"]
        assert (histograms["serve.admission_latency"]["count"]
                == remote.established)
        assert histograms["serve.recovery_delay"]["count"] == remote.epochs


class TestServeClientGuards:
    def test_call_before_connect_raises(self):
        client = ServeClient("127.0.0.1:1")
        with pytest.raises(ServeError, match="not connected"):
            client.call("ping")

    def test_correlation_mismatch_raises(self):
        a, b = socket.socketpair()
        client = PairClient(a)
        client._stream = MessageStream(a)
        responder = MessageStream(b)

        def answer_wrong_id():
            request = responder.recv()
            responder.send({"id": (request["id"] or 0) + 7, "ok": True})

        thread = threading.Thread(target=answer_wrong_id, daemon=True)
        thread.start()
        with pytest.raises(ServeError, match="correlation mismatch"):
            client.call("ping")
        thread.join(timeout=5.0)
        client.close()
        responder.close()


class TestServeCLI:
    def test_parser_accepts_serve_actions(self, tmp_path):
        from repro.cli import build_parser

        parser = build_parser()
        spec = tmp_path / "spec.json"  # an input path must name a file
        spec.write_text("{}")
        args = parser.parse_args(
            ["serve", "start", "--spec", str(spec), "--bind", "s.sock"]
        )
        assert args.command == "serve"
        assert args.action == "start"
        args = parser.parse_args(
            ["serve", "churn", "--connect", "s.sock", "--until", "5",
             "--slo", "serve.admission_latency.p99 <= 1"]
        )
        assert args.until == 5.0
        assert args.slo == ["serve.admission_latency.p99 <= 1"]

    def test_parser_rejects_unknown_action(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "resync"])
