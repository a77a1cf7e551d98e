"""Framing fuzz for the admission server: a rejected input changes nothing.

Each case writes raw bytes into one end of a ``socketpair`` and runs
:meth:`AdmissionServer.serve_connection` on the other end, on a loaded
4x4 network, until the peer's EOF.  After every rejected input the
network is byte-identical to before it (its ``repro.snapshot/1`` bytes,
the ledger's change cursor and both id counters), and ``serve.errors``
counted it.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.obs.registry import MetricsRegistry
from repro.scenario import ProtocolSpec, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.serve import AdmissionServer, snapshot_network
from repro.serve import protocol


def fuzz_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="serve/fuzz",
        topology=TopologySpec(family="torus", rows=4, cols=4, capacity=200.0),
        workload=WorkloadSpec(kind="churn"),
        protocol=ProtocolSpec(num_backups=1, mux_degree=3),
        seed=0,
    )


@pytest.fixture
def server() -> AdmissionServer:
    """A server whose network holds every ordered pair of the 4x4 torus."""
    server = AdmissionServer(fuzz_spec(), metrics=MetricsRegistry())
    pairs = [{"src": src, "dst": dst, "ft_qos": {"mux_degree": 3}}
             for src in range(16) for dst in range(16) if src != dst]
    response = server.handle_request(
        {"id": 0, "op": "establish", "requests": pairs}
    )
    assert response["ok"] and response["connections"] == 240
    server._running = True
    return server


def state(server: AdmissionServer) -> tuple:
    network = server.network
    return (
        json.dumps(snapshot_network(network), sort_keys=True),
        network.ledger.change_cursor,
        network.registry.next_id,
        network.engine.next_connection_id,
    )


def errors(server: AdmissionServer) -> int:
    return server.registry.counter("serve.errors").value


def exchange(server: AdmissionServer, data: bytes,
             close: bool = False) -> list[dict]:
    """Write ``data`` from the client end, then EOF it (``close``: drop
    the socket, so nothing can read a response); serve the server end
    to the end.  Returns the responses the client can read."""
    server_sock, client_sock = socket.socketpair()

    def feed() -> None:
        try:
            client_sock.sendall(data)
            if close:
                client_sock.close()
            else:
                client_sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server gave up reading first

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    received = bytearray()
    try:
        server.serve_connection(server_sock)
        # The server answers synchronously: every response is queued on
        # the client end by now.  Read them before the server end closes
        # (closing over unread input resets the pair).
        while not close:
            try:
                chunk = client_sock.recv(1 << 16, socket.MSG_DONTWAIT)
            except BlockingIOError:
                break
            if not chunk:
                break
            received.extend(chunk)
    finally:
        server_sock.close()
        feeder.join(timeout=5.0)
        client_sock.close()
    assert not feeder.is_alive()
    return [json.loads(line) for line in received.splitlines()]


def frame(message: dict) -> bytes:
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


class TestRejectedFramesChangeNothing:
    def test_truncated_frame_then_eof(self, server):
        before, seen = state(server), errors(server)
        whole = frame({"id": 1, "op": "teardown", "connection_ids": [0]})
        [response] = exchange(server, whole[: len(whole) // 2])
        assert response["ok"] is False
        assert "mid-message" in response["error"]
        assert state(server) == before
        assert errors(server) == seen + 1

    def test_frame_larger_than_the_cap(self, server, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 1024)
        before, seen = state(server), errors(server)
        pairs = [{"src": 0, "dst": 5}] * 8000  # ~160 KiB, one frame
        [response] = exchange(
            server, frame({"id": 1, "op": "establish", "requests": pairs})
        )
        assert response["ok"] is False
        assert "exceeds 1024 bytes" in response["error"]
        assert state(server) == before
        assert errors(server) == seen + 1

    @pytest.mark.parametrize("data", [
        b"\xff\xfe\x00\xc3(garbage\n",
        b"\xc3\x28\n",
        b"not json at all\n",
    ], ids=["bom-garbage", "bad-continuation", "text"])
    def test_undecodable_bytes(self, server, data):
        before, seen = state(server), errors(server)
        [response] = exchange(server, data)
        assert response == {"id": None, "ok": False,
                            "error": response["error"]}
        assert "undecodable" in response["error"]
        assert state(server) == before
        assert errors(server) == seen + 1

    @pytest.mark.parametrize("data", [b"[1, 2]\n", b"7\n", b'"teardown"\n',
                                      b"null\n"])
    def test_json_that_is_not_an_object(self, server, data):
        before, seen = state(server), errors(server)
        [response] = exchange(server, data)
        assert response["ok"] is False
        assert "must be a JSON object" in response["error"]
        assert state(server) == before
        assert errors(server) == seen + 1

    def test_unknown_op_keeps_the_connection(self, server):
        before, seen = state(server), errors(server)
        rejected, pong = exchange(
            server,
            frame({"id": 1, "op": "frobnicate"})
            + frame({"id": 2, "op": "ping"}),
        )
        assert rejected == {"id": 1, "ok": False,
                            "error": "unknown op 'frobnicate'"}
        assert pong == {"id": 2, "ok": True}
        assert state(server) == before
        assert errors(server) == seen + 1

    @pytest.mark.parametrize("request_", [
        {"op": "teardown"},
        {"op": "establish"},
        {"op": "establish", "requests": [{"src": 0, "dst": 5}, {"src": 1}]},
        {"op": "evaluate", "seed": 0},
        {"op": "snapshot"},
    ], ids=["teardown", "establish", "establish-item", "evaluate",
            "snapshot"])
    def test_missing_operand(self, server, request_):
        before, seen = state(server), errors(server)
        [response] = exchange(server, frame({"id": 9, **request_}))
        assert response["id"] == 9 and response["ok"] is False
        assert state(server) == before
        assert errors(server) == seen + 1

    def test_two_frames_in_one_segment(self, server):
        before, seen = state(server), errors(server)
        first, second = exchange(
            server,
            frame({"id": 1, "op": "teardown"})
            + frame({"id": 2, "op": "establish"}),
        )
        assert (first["id"], first["ok"]) == (1, False)
        assert (second["id"], second["ok"]) == (2, False)
        assert state(server) == before
        assert errors(server) == seen + 2

    def test_client_closes_mid_batch(self, server):
        before, seen = state(server), errors(server)
        pairs = [{"src": 0, "dst": 5}, {"src": 3, "dst": 12}]
        whole = frame({"id": 1, "op": "establish", "requests": pairs})
        # The error response has no reader; the server shrugs that off.
        exchange(server, whole[: whole.index(b"}, {") + 2], close=True)
        assert state(server) == before
        assert errors(server) == seen + 1


class TestWrongTypedOperandsChangeNothing:
    """Operands of the wrong JSON type never reach the network, although
    ``true`` is an ``int`` to Python and ``1.0`` finds connection 1 in a
    dict; a QoS count must be an ``int`` too."""

    @pytest.mark.parametrize("operands", [
        {"connection_id": True},  # the retired single-id form
        {"connection_ids": [True]},
        {"connection_ids": [1.0]},
        {"connection_ids": ["1"]},
        {"connection_ids": 1},
        {"connection_ids": []},
        {"connection_ids": [1, 1]},
        {"connection_ids": [1, 10**6]},
    ], ids=["single-true", "true", "float", "string", "bare-int", "empty",
            "repeated", "unknown-second"])
    def test_teardown(self, server, operands):
        before, seen = state(server), errors(server)
        [response] = exchange(
            server, frame({"id": 1, "op": "teardown", **operands})
        )
        assert response["ok"] is False
        assert state(server) == before
        assert errors(server) == seen + 1

    @pytest.mark.parametrize("operand", [
        {"delay_qos": {"slack_hops": 2.5}},
        {"ft_qos": {"mux_degree": 2.5}},
        {"ft_qos": {"mux_degree": True}},
        {"ft_qos": {"num_backups": 1.0}},
    ], ids=["slack-float", "mux-float", "mux-true", "backups-float"])
    def test_establish_item(self, server, operand):
        before, seen = state(server), errors(server)
        good = {"src": 0, "dst": 5, "ft_qos": {"mux_degree": 1}}
        [response] = exchange(server, frame({
            "id": 1, "op": "establish",
            "requests": [good, {"src": 3, "dst": 12, **operand}],
        }))
        assert response["ok"] is False
        assert "must be an int" in response["error"]
        assert state(server) == before
        assert errors(server) == seen + 1

    def test_int_and_true_are_different_operands(self, server):
        """A request that builds ``mux_degree: 1`` first must not hand the
        same spec to an item that says ``true``."""
        before = state(server)
        [response] = exchange(server, frame({
            "id": 1, "op": "establish",
            "requests": [{"src": 0, "dst": 5, "ft_qos": {"mux_degree": 1}},
                         {"src": 3, "dst": 12, "ft_qos": {"mux_degree": True}}],
        }))
        assert response["ok"] is False
        assert state(server) == before


class TestTeardownOperand:
    def test_several_ids_in_one_request(self, server):
        [response] = exchange(server, frame(
            {"id": 1, "op": "teardown", "connection_ids": [7, 3, 200]}
        ))
        assert response == {"id": 1, "ok": True, "connections": 237}
        live = {connection.connection_id
                for connection in server.network.connections()}
        assert live.isdisjoint({3, 7, 200}) and len(live) == 237
        assert server.registry.counter("serve.teardowns").value == 3
        assert server.network.audit_invariants() == []


class TestVanishingPeers:
    def test_a_peer_gone_before_its_answer_ends_only_its_connection(
        self, server
    ):
        """A complete request from a peer that closes at once is served;
        the answer has nowhere to go, and the server carries on."""
        exchange(server, frame({"id": 1, "op": "teardown",
                                "connection_ids": [0]}), close=True)
        assert server.network.num_connections == 239
        assert server._running
        [pong] = exchange(server, frame({"id": 2, "op": "ping"}))
        assert pong == {"id": 2, "ok": True}

    def test_a_frame_over_the_cap_in_one_segment(self, server, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 256)
        before, seen = state(server), errors(server)
        pairs = [{"src": 0, "dst": 5}] * 20  # ~400 bytes, with its newline
        [response] = exchange(
            server, frame({"id": 1, "op": "establish", "requests": pairs})
        )
        assert response["ok"] is False
        assert "exceeds 256 bytes" in response["error"]
        assert state(server) == before
        assert errors(server) == seen + 1

    def test_deeply_nested_json(self, server):
        before, seen = state(server), errors(server)
        [response] = exchange(server, b"[" * 100_000 + b"\n")
        assert response["ok"] is False
        assert "undecodable" in response["error"]
        assert state(server) == before
        assert errors(server) == seen + 1
