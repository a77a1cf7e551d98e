"""Always-on admission service: the library as a long-running server.

The batch CLI re-admits the world on every invocation; :mod:`repro.serve`
keeps one :class:`~repro.core.bcp.BCPNetwork` — its compiled flat views,
route caches, per-link multiplexing state, and reservation ledger — warm
across requests and exposes establish/teardown/audit/recovery-query
operations over a line-delimited JSON protocol (:mod:`repro.serve.protocol`)
on a Unix or TCP socket.

* :mod:`repro.serve.server` — the single-threaded
  :class:`~repro.serve.server.AdmissionServer`; recovery queries run
  in-process through :func:`repro.recovery.evaluate_scenarios`, and
  p50/p99 admission latency and recovery delay are tracked as
  ``serve.*`` histograms for :mod:`repro.obs` SLO gating.
* :mod:`repro.serve.client` — :class:`~repro.serve.client.ServeClient`
  (the RPC stream) and :class:`~repro.serve.client.RemoteNetwork`, a
  drop-in network for :class:`~repro.workload.churn.ChurnEngine`, which
  turns the existing churn engine into a remote load generator.
* :mod:`repro.serve.state` — the versioned snapshot codec
  (``repro.snapshot/1``): a restarted server restores the full ledger /
  registry / mux state byte-identically without re-admitting anything.

See the "Admission service" section of docs/architecture.md.
"""

from repro.serve.client import (
    RemoteConnection,
    RemoteNetwork,
    ServeClient,
    ServeError,
)
from repro.serve.protocol import SERVE_SCHEMA, MessageStream, ProtocolError
from repro.serve.server import AdmissionServer
from repro.serve.state import (
    SNAPSHOT_SCHEMA,
    load_snapshot,
    restore_network,
    snapshot_network,
    write_snapshot,
)

__all__ = [
    "SERVE_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "AdmissionServer",
    "MessageStream",
    "ProtocolError",
    "RemoteConnection",
    "RemoteNetwork",
    "ServeClient",
    "ServeError",
    "load_snapshot",
    "restore_network",
    "snapshot_network",
    "write_snapshot",
]
