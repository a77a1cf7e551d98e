"""Line-delimited JSON request/response protocol (``repro.serve/2``).

One request per line, one response per line, strictly in order over one
connection:

* request — ``{"id": <int>, "op": <str>, ...operands}``
* success — ``{"id": <int>, "ok": true, ...results}``
* failure — ``{"id": <int>, "ok": false, "error": <str>}``

``id`` is a client-chosen correlation number echoed back verbatim.  The
payload is ``sort_keys`` JSON so a captured wire exchange is
deterministic for a deterministic workload.  Framing is a single ``\\n``;
JSON strings never contain raw newlines, so no escaping is needed.  A
frame longer than :data:`MAX_MESSAGE_BYTES`, or one that is not UTF-8
JSON holding an object, is refused; the server answers it with ``id``
``null`` and closes the connection.

The ops and their operands:

* ``hello`` — answers ``schema``, the server's ``spec`` and
  ``connections``;
* ``establish`` — ``requests``, a list of ``{"src", "dst", "traffic",
  "delay_qos", "ft_qos"}`` items.  A QoS field left out of an item means
  its dataclass default, and so does a QoS object left out (clients send
  only what differs).  Answers one ``results`` entry per item, in order;
* ``teardown`` — ``connection_ids``, a non-empty list of live ids, all
  checked before any is torn down;
* ``audit``, ``num_connections``, ``network_load``, ``spare_fraction``,
  ``metrics``, ``ping``, ``shutdown`` — no operands;
* ``evaluate`` — ``links`` (``[src, dst]`` pairs) and ``seed``;
* ``snapshot`` — ``path``, where the server writes a
  ``repro.snapshot/1`` file.

``hello``, ``establish`` and ``teardown`` responses carry ``connections``,
the server's live-connection count after the op, so a client tracking the
count spends no round trip (``num_connections``) on it.

Addresses are strings: ``host:port`` (last-colon split) selects TCP,
anything else is a filesystem path to a Unix domain socket.
"""

from __future__ import annotations

import json
import socket

#: Protocol schema tag, reported by the server's ``hello`` response.
SERVE_SCHEMA = "repro.serve/2"

#: Hard cap on one encoded message (newline excluded), as a guard against
#: a corrupt or hostile peer streaming a line into memory.  Generous: the
#: largest legitimate messages (snapshot paths, batched establishes,
#: metrics snapshots) are a few hundred KiB.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Pending connections a listener queues: the server serves one at a time.
LISTEN_BACKLOG = 8

# One encoder and one decoder per process; ``json.dumps`` would build a
# fresh encoder for every frame.  Same settings, so the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder()


class ProtocolError(Exception):
    """A malformed message or violated framing rule."""


def encode_message(message: dict) -> bytes:
    """One wire frame: deterministic JSON plus the newline terminator."""
    return _ENCODER.encode(message).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    try:
        message = _DECODER.decode(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"undecodable message: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


def parse_address(address: str) -> "tuple[str, int] | str":
    """``host:port`` → a TCP pair; anything else → a Unix socket path."""
    host, _, port = address.rpartition(":")
    if host and port.isdigit():
        return (host, int(port))
    return address


def create_listener(address: str) -> socket.socket:
    """Bind and listen on ``address`` (TCP pair or Unix socket path)."""
    parsed = parse_address(address)
    if isinstance(parsed, tuple):
        sock = socket.create_server(parsed)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(parsed)
    sock.listen(LISTEN_BACKLOG)
    return sock


def connect(address: str, timeout: "float | None" = None) -> socket.socket:
    """Connect to ``address``; raises ``OSError`` if nothing listens."""
    parsed = parse_address(address)
    if isinstance(parsed, tuple):
        return socket.create_connection(parsed, timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(parsed)
    return sock


class MessageStream:
    """Blocking message pump over one connected socket.

    Both peers use the same pump: :meth:`send` writes one frame,
    :meth:`recv` returns the next complete frame (``None`` on clean EOF).
    Partial lines are buffered across reads, and several frames arriving
    in one segment are handed out one at a time.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()
        self._eof = False

    def send(self, message: dict) -> None:
        self._sock.sendall(encode_message(message))

    def recv(self) -> "dict | None":
        while True:
            newline = self._buffer.find(b"\n")
            if newline > MAX_MESSAGE_BYTES or (
                newline < 0 and len(self._buffer) > MAX_MESSAGE_BYTES
            ):
                raise ProtocolError(
                    f"message exceeds {MAX_MESSAGE_BYTES} bytes"
                )
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return decode_message(line)
            if self._eof:
                if self._buffer:
                    raise ProtocolError("connection closed mid-message")
                return None
            segment = self._sock.recv(1 << 16)
            if not segment:
                self._eof = True
            else:
                self._buffer.extend(segment)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
