#!/usr/bin/env python
"""CI gate: the admission service resumes byte-identically from a snapshot.

One driver process, two server lifecycles over Unix sockets:

* baseline — a ``repro serve start`` subprocess runs an entire remote
  churn workload uninterrupted;
* interrupted — an identical server is killed (SIGKILL, no cleanup)
  halfway through the same workload, restarted from the snapshot it
  wrote just before dying, and the *same client engine* reconnects and
  resumes.

The client's RNG streams and departure heap live in this driver and
never restart, so the resumed run must reproduce the baseline bit for
bit: the churn stats dicts and the servers' final ``repro.snapshot/1``
files are compared byte-wise.  Finally the restarted server's
``serve.*`` histograms are gated against admission-latency and
recovery-delay SLOs.

Usage: PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile

from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOEngine
from repro.scenario import (
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    churn_config_from_spec,
)
from repro.serve import RemoteNetwork, ServeClient
from repro.workload import ChurnEngine

DURATION = 20.0

SPEC = ScenarioSpec(
    name="serve/smoke",
    topology=TopologySpec(family="torus", rows=4, cols=4, capacity=160.0),
    workload=WorkloadSpec(
        kind="churn",
        arrival_rate=6.0,
        holding_time=4.0,
        duration=DURATION,
        bandwidth=4.0,
        batch_window=0.5,
        epoch_interval=5.0,
        eval_scenarios=2,
        pairs=16,
    ),
    protocol=ProtocolSpec(num_backups=1, mux_degree=2),
    seed=3,
)

# Generous for shared CI runners; a regression that serializes admission
# or recovery behind something slow still trips them.
SLOS = (
    "serve.admission_latency.p99 <= 0.25",
    "serve.recovery_delay.p99 <= 30",
)

CONNECT_RETRY = 30.0


def fail(what: str, *detail: object) -> None:
    print(f"DIVERGENCE in {what}:")
    for item in detail:
        print(f"  {item!r}")
    sys.exit(1)


class Server:
    """One `repro serve start` subprocess and its log file."""

    def __init__(
        self,
        bind: str,
        spec_path: str,
        log_path: str,
        restore: "str | None" = None,
    ) -> None:
        self.bind = bind
        self.log_path = log_path
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "start",
            "--spec",
            spec_path,
            "--bind",
            bind,
        ]
        if restore is not None:
            command += ["--restore", restore]
        self._log = open(log_path, "a")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT
        )

    def kill(self) -> None:
        """Simulated crash: SIGKILL, then clear the stale socket file the
        dead server never unlinked."""
        self.process.kill()
        self.process.wait()
        self._log.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.bind)

    def wait(self) -> None:
        code = self.process.wait(timeout=60)
        self._log.close()
        if code != 0:
            with open(self.log_path) as handle:
                sys.stdout.write(handle.read())
            fail(f"server on {self.bind} exited {code}")


def run_remote(workdir: str, spec_path: str, interrupt: bool) -> tuple[dict, bytes]:
    """Drive the churn workload against a fresh server; returns the
    client-side stats dict and the server's final snapshot bytes."""
    tag = "interrupted" if interrupt else "baseline"
    bind = os.path.join(workdir, f"{tag}.sock")
    log_path = os.path.join(workdir, f"{tag}.log")
    final_path = os.path.join(workdir, f"{tag}-final.json")
    server = Server(bind, spec_path, log_path)

    network = RemoteNetwork(ServeClient(bind), retry_window=CONNECT_RETRY)
    # The serve.* SLOs live in the *server's* registry — they gate its
    # metrics snapshot below, not the client engine's per-epoch checks.
    config = churn_config_from_spec(SPEC)
    engine = ChurnEngine(network, config, metrics=MetricsRegistry())

    if interrupt:
        engine.run(until=DURATION / 2)
        mid_path = os.path.join(workdir, "mid.json")
        network.snapshot(mid_path)
        server.kill()
        print(f"  killed server mid-run, restarting from {mid_path}")
        server = Server(bind, spec_path, log_path, restore=mid_path)
        network.reconnect(retry_window=CONNECT_RETRY)

    stats = engine.run()
    network.snapshot(final_path)
    metrics = network.metrics_snapshot()
    network.shutdown()
    network.client.close()
    server.wait()

    breaches = [
        f"{result.target.spec()} observed {result.observed!r}"
        for result in SLOEngine(SLOS).breaches(metrics)
    ]
    if breaches:
        fail(f"{tag} server SLOs", *breaches)
    histograms = metrics["histograms"]
    print(
        f"  {tag}: {stats.established} established, "
        f"{stats.epochs} epochs; server admission p99 "
        f"{histograms['serve.admission_latency']['p99']:.6f}s, "
        f"recovery p99 {histograms['serve.recovery_delay']['p99']:.6f}s "
        f"({len(SLOS)} SLOs met)"
    )
    if not stats.healthy:
        fail(f"{tag} run health", stats.audit_violations, stats.slo_breaches)
    with open(final_path, "rb") as handle:
        return stats.to_dict(), handle.read()


def main() -> None:
    print(f"Serve smoke: snapshot/restore byte-identity on {SPEC.topology.label}...")
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as workdir:
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(SPEC.to_dict(), handle)
        baseline, baseline_snapshot = run_remote(workdir, spec_path, interrupt=False)
        resumed, resumed_snapshot = run_remote(workdir, spec_path, interrupt=True)
    if baseline != resumed:
        fail("churn stats (baseline vs resumed)", baseline, resumed)
    if baseline_snapshot != resumed_snapshot:
        fail(
            "final server snapshots (baseline vs resumed)",
            len(baseline_snapshot),
            len(resumed_snapshot),
        )
    print(
        "OK: restarted server resumed byte-identically "
        f"({len(baseline_snapshot)} snapshot bytes compared)."
    )


if __name__ == "__main__":
    main()
