"""The four paper-scale workloads.

Every workload is closed-loop (the next operation starts when the
previous one returned), single-process, ``workers=1``.  ``setup`` builds
what the repetitions share and draws every seeded input; ``rep`` runs
one repetition, timing the regions that count through the clock and
checking the outputs outside them.  The program under test only ever
sees the generated inputs, never the seed's meaning.

README.md records why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import json
import random
import socket
import threading
from time import perf_counter

from repro.analysis.delay import (
    connection_delay_bound,
    required_rcc_frame_messages,
)
from repro.channels.qos import DelayQoS, FaultToleranceQoS
from repro.channels.traffic import TrafficSpec
from repro.core.bcp import BCPNetwork, EstablishmentError
from repro.experiments.setup import standard_failure_models
from repro.experiments.workloads import all_pairs
from repro.faults.enumerate import all_single_node_failures
from repro.faults.models import FailureScenario
from repro.network.generators import torus
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, get_registry
from repro.protocol.config import ProtocolConfig, RCCParams
from repro.protocol.invariants import InvariantAuditor
from repro.protocol.runtime import ProtocolSimulation
from repro.recovery.evaluator import RecoveryEvaluator
from repro.recovery.metrics import RecoveryStats
from repro.scenario import ProtocolSpec, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.scenario.runner import churn_config_from_spec
from repro.serve import AdmissionServer, MessageStream, ServeClient
from repro.serve import state as serve_state
from repro.serve.client import RemoteNetwork
from repro.workload import ChurnEngine

from harness import Outcome

ROWS = COLS = 8
CAPACITY = 200.0
TRAFFIC = TrafficSpec(bandwidth=1.0)
DELAY = DelayQoS()  # shortest + 2 hops
#: Establishments per timed segment of a build (4032 = 6 x 672).
BUILD_CHUNK = 672

#: EXPERIMENTS.md, Table 1(a) "measured" rows, as printed there.  The
#: double-node cells are a 200-scenario sample drawn with seed 0.
TABLE1A = {
    3: {"spare": "19.45%", "1 link failure": "100.00%",
        "1 node failure": "99.86%", "2 node failures": "92.03%"},
    6: {"spare": "7.92%", "1 link failure": "76.76%",
        "1 node failure": "65.14%", "2 node failures": "57.41%"},
}
SEEDED_CELL = "2 node failures"
PINNED_SEED = 0


def shown(fraction: float) -> str:
    """A fraction at EXPERIMENTS.md's printed precision."""
    return f"{100.0 * fraction:.2f}%"


def build_network(clock, mux_degree: int,
                  limit: "int | None" = None) -> tuple[BCPNetwork, int, list]:
    """A fresh 8x8 torus carrying the paper's 4032 D-connections (one
    backup each, shortest+2; the first ``limit`` of them if given):
    ``(network, rejected, timed segments)``.  Every ``establish`` call
    is one admission sample of its segment."""
    ft_qos = FaultToleranceQoS(num_backups=1, mux_degree=mux_degree)
    rejected = 0
    segments = []
    network = None
    pairs: list = []
    start = 0
    while network is None or start < len(pairs):
        with clock.timed("build") as segment:
            if network is None:
                network = BCPNetwork(torus(ROWS, COLS, CAPACITY))
                pairs = all_pairs(network.topology)[:limit]
            ops = segment.ops
            for src, dst in pairs[start:start + BUILD_CHUNK]:
                began = perf_counter()
                try:
                    network.establish(src, dst, TRAFFIC, DELAY, ft_qos)
                except EstablishmentError:
                    rejected += 1
                ops.append(perf_counter() - began)
        segments.append(segment)
        start += BUILD_CHUNK
    return network, rejected, segments


def warm_build(clock) -> None:
    """Warm-up of the establishment path: one segment's worth of the
    build and its teardown, so that no timed build is the process's
    first (imports settle, the component arena and numpy paths exist)."""
    network, _, _ = build_network(clock, 3, limit=BUILD_CHUNK)
    for connection in network.connections():
        network.teardown(connection)


def check_loaded(network: BCPNetwork, mux_degree: int, rejected: int,
                 problems: list) -> None:
    """Output checks on a freshly built network."""
    for violation in network.audit_invariants():
        problems.append(f"mux={mux_degree} after build: {violation}")
    if rejected:
        problems.append(f"mux={mux_degree}: {rejected} establishments rejected")
    spare = shown(network.spare_fraction())
    if spare != TABLE1A[mux_degree]["spare"]:
        problems.append(
            f"mux={mux_degree} spare {spare} != Table 1a "
            f"{TABLE1A[mux_degree]['spare']}"
        )


def route_cache_counts() -> tuple[int, int]:
    registry = get_registry()
    return (registry.counter("route_cache.hits").value,
            registry.counter("route_cache.misses").value)


def hit_ratio(before: tuple, after: tuple) -> float:
    hits = after[0] - before[0]
    lookups = hits + after[1] - before[1]
    return hits / lookups if lookups else 0.0


class Workload:
    """What :mod:`harness` and ``run.py`` drive: ``setup(clock, seed)``
    once, then ``rep(clock) -> Outcome`` per repetition."""

    #: The name BENCHMARK.json lists the workload under.
    name = ""
    #: Segment lists of the network builds done in set-up, for workloads
    #: whose repetitions admit nothing (their admission latency).
    setup_builds: tuple = ()


class PaperBuild(Workload):
    """Establish all 4032 ordered pairs on a fresh network, tear all down."""

    name = "paper-build"

    def setup(self, clock, seed: int) -> None:
        # The input is the paper's fixed all-pairs order; no part of it is
        # drawn, so the seed selects nothing here.
        self.node_failures = None
        warm_build(clock)

    def rep(self, clock) -> Outcome:
        problems: list = []
        cache = route_cache_counts()
        network, rejected, _ = build_network(clock, 3)
        ratio = hit_ratio(cache, route_cache_counts())
        check_loaded(network, 3, rejected, problems)
        spare = network.spare_fraction()
        load = network.network_load()
        if self.node_failures is None:
            self.node_failures = all_single_node_failures(network.topology)
        recovery = RecoveryEvaluator(
            network, metrics=NULL_REGISTRY
        ).evaluate_many(self.node_failures)
        if shown(recovery.r_fast) != TABLE1A[3]["1 node failure"]:
            problems.append(
                f"built network recovers {shown(recovery.r_fast)} of single "
                f"node failures, Table 1a says {TABLE1A[3]['1 node failure']}"
            )
        connections = network.connections()
        torn = 0
        with clock.timed("teardown"):
            for connection in connections:
                network.teardown(connection)
                torn += 1
        for violation in network.audit_invariants():
            problems.append(f"after teardown: {violation}")
        if (network.num_connections or network.network_load() != 0.0
                or network.spare_fraction() != 0.0):
            problems.append(
                f"teardown left {network.num_connections} connections, load "
                f"{network.network_load()!r}, spare {network.spare_fraction()!r}"
            )
        requested = len(connections) + rejected
        return Outcome(
            attempted=requested + torn,
            failed=rejected,
            problems=problems,
            stats={"r_fast": recovery.r_fast, "spare_frac": spare,
                   "admitted_frac": len(connections) / requested},
            signature=(rejected, spare, load, recovery.fast_recovered,
                       recovery.failed_primaries),
            counters={"establishment.rejected": rejected,
                      "routing.cache_hit_ratio": ratio},
        )


class Table1Eval(Workload):
    """Table 1(a)'s three failure models against two pre-built networks."""

    name = "table1-eval"

    #: Scenarios per timed segment.
    CHUNK = 128

    def setup(self, clock, seed: int) -> None:
        self.seed = seed
        self.networks = {}
        self.setup_builds = []
        problems: list = []
        warm_build(clock)
        for mux_degree in (3, 6):
            network, rejected, segments = build_network(clock, mux_degree)
            check_loaded(network, mux_degree, rejected, problems)
            self.networks[mux_degree] = network
            self.setup_builds.append(segments)
        if problems:
            raise AssertionError("; ".join(problems))
        topology = self.networks[3].topology
        self.models = standard_failure_models(topology, 200, seed)
        for network in self.networks.values():  # warm-up
            evaluator = RecoveryEvaluator(network, metrics=NULL_REGISTRY)
            for scenarios in self.models.values():
                evaluator.evaluate_many(scenarios[:16])

    def rep(self, clock, registry=NULL_REGISTRY) -> Outcome:
        problems: list = []
        pooled = RecoveryStats()
        cells = []
        model_seconds = dict.fromkeys(self.models, 0.0)
        for mux_degree, network in self.networks.items():
            evaluator = None
            for model, scenarios in self.models.items():
                stats = RecoveryStats()
                for start in range(0, len(scenarios), self.CHUNK):
                    with clock.timed(model) as segment:
                        if evaluator is None:
                            evaluator = RecoveryEvaluator(
                                network, metrics=registry
                            )
                        stats = stats.merge(evaluator.evaluate_many(
                            scenarios[start:start + self.CHUNK]
                        ))
                    model_seconds[model] += segment.seconds
                pinned = model != SEEDED_CELL or self.seed == PINNED_SEED
                if pinned and shown(stats.r_fast) != TABLE1A[mux_degree][model]:
                    problems.append(
                        f"mux={mux_degree} {model}: {shown(stats.r_fast)} != "
                        f"Table 1a {TABLE1A[mux_degree][model]}"
                    )
                cells.append((mux_degree, model, stats.failed_primaries,
                              stats.fast_recovered, stats.mux_failures))
                pooled = pooled.merge(stats)
        return Outcome(
            attempted=pooled.scenarios,
            problems=problems,
            stats={"r_fast": pooled.r_fast,
                   "spare_frac": self.networks[3].spare_fraction(),
                   "admitted_frac": 1.0},
            signature=tuple(cells),
            counters={
                "evaluator.activations": pooled.fast_recovered,
                "evaluator.mux_failures": pooled.mux_failures,
                "evaluator.link_s": model_seconds["1 link failure"],
                "evaluator.node_s": model_seconds["1 node failure"],
                "evaluator.node2_s": model_seconds["2 node failures"],
            },
        )

    def obs_rep(self, clock) -> Outcome:
        """The same repetition recording into a live metrics registry."""
        return self.rep(clock, MetricsRegistry())


class _PairClient(ServeClient):
    """A ServeClient speaking over one end of a socketpair."""

    def __init__(self, sock) -> None:
        super().__init__("socketpair")
        self._sock = sock

    def connect(self, retry_window: float = 0.0) -> dict:
        if self._stream is None:
            self._stream = MessageStream(self._sock)
        return self.call("hello")


class _CountingSocket:
    """Counts the bytes crossing the client's end (traced runs)."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.bytes = 0

    def sendall(self, data) -> None:
        self.bytes += len(data)
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        self.bytes += len(data)
        return data

    def close(self) -> None:
        self._sock.close()


class _TimedRemoteNetwork(RemoteNetwork):
    """Times each ``establish`` round trip as the client observes it."""

    ops: list = []

    def establish_batch(self, requests) -> list:
        began = perf_counter()
        results = super().establish_batch(requests)
        self.ops.append(perf_counter() - began)
        return results


class ChurnServe(Workload):
    """A churn run driven through the admission service's wire protocol."""

    name = "churn-serve"

    #: Simulated seconds of churn per timed segment (duration 100).
    SLICE = 10.0

    def setup(self, clock, seed: int) -> None:
        self.spec = ScenarioSpec(
            name="e2e/churn-serve",
            topology=TopologySpec(family="torus", rows=ROWS, cols=COLS,
                                  capacity=CAPACITY),
            workload=WorkloadSpec(
                kind="churn", arrival_rate=50.0, holding_time=10.0,
                duration=100.0, bandwidth=1.0, batch_window=0.05,
                epoch_interval=10.0, eval_scenarios=16, pairs=0,
            ),
            protocol=ProtocolSpec(num_backups=1, mux_degree=3),
            seed=seed,
        )
        self.config = churn_config_from_spec(self.spec)
        # The reference the served run must reproduce byte for byte.
        local = ChurnEngine(
            BCPNetwork(self.spec.topology.build()), self.config,
            metrics=MetricsRegistry(),
        )
        self.reference = local.run().to_dict()
        self.rep(clock, horizon=self.SLICE)  # warm-up of the served path

    def rep(self, clock, horizon: "float | None" = None) -> Outcome:
        """One served churn run (the first ``horizon`` simulated seconds
        of it when warming up, which skips the reference comparison)."""
        problems: list = []
        duration = horizon or self.config.duration
        server_sock, client_sock = socket.socketpair()
        server = AdmissionServer(self.spec, workers=1,
                                 metrics=MetricsRegistry())
        server._running = True
        thread = threading.Thread(
            target=server.serve_connection, args=(server_sock,), daemon=True
        )
        thread.start()
        counting = _CountingSocket(client_sock) if clock.tracing else None
        client = _PairClient(counting or client_sock)
        try:
            remote = _TimedRemoteNetwork(client)
            registry = MetricsRegistry()
            engine = ChurnEngine(remote, self.config, metrics=registry)
            cache = route_cache_counts()
            until = 0.0
            while until < duration:
                until += self.SLICE
                with clock.timed("churn") as segment:
                    remote.ops = segment.ops
                    stats = engine.run(until=until)
            ratio = hit_ratio(cache, route_cache_counts())
            with clock.timed("state"):
                snapshot = serve_state.snapshot_network(server.network)
                restored = BCPNetwork(self.spec.topology.build())
                serve_state.restore_network(restored, snapshot)
                again = serve_state.snapshot_network(restored)
            encoded = json.dumps(snapshot, sort_keys=True)
            if json.dumps(again, sort_keys=True) != encoded:
                problems.append("snapshot -> restore -> snapshot differs")
        finally:
            client.close()
            thread.join(timeout=10.0)
            server_sock.close()
        if thread.is_alive():
            problems.append("server thread did not stop")
        result = stats.to_dict()
        if horizon is None and result != self.reference:
            problems.append("served churn stats differ from the local run")
        problems.extend(stats.audit_violations)
        counters = server.registry.snapshot()["counters"]
        spare = [value for _, value in
                 registry.series("churn.spare_fraction").points()]
        return Outcome(
            attempted=counters["serve.requests"],
            failed=(counters.get("serve.errors", 0) + stats.blocked
                    + len(stats.audit_violations)),
            problems=problems,
            stats={"r_fast": stats.recovery.r_fast,
                   "spare_frac": sum(spare) / len(spare),
                   "admitted_frac": stats.established / stats.arrivals},
            signature=(json.dumps(result, sort_keys=True), len(encoded),
                       counters["serve.requests"]),
            counters={
                "establishment.rejected": stats.blocked,
                "routing.cache_hit_ratio": ratio,
                "evaluator.activations": stats.recovery.fast_recovered,
                "evaluator.mux_failures": stats.recovery.mux_failures,
                "churn.events": (stats.arrivals + stats.departures
                                 + stats.epochs),
                "churn.batches": stats.batches,
                "codec.bytes": counting.bytes if counting else 0,
                "state.snapshot_bytes": len(encoded),
            },
        )


def _middle_half(components: list, load) -> list:
    """The half of ``components`` whose ``load`` (channels crossing
    them) is nearest the median: seeds then differ in which components
    fail, not in how much traffic a failure hits (which alone moved
    ``wall_s`` by 13 % between seeds)."""
    ranked = sorted(components, key=load)  # stable: ties keep their order
    quarter = len(ranked) // 4
    return ranked[quarter:len(ranked) - quarter]


class ProtocolRecovery(Workload):
    """Seeded failures replayed through the event-level BCP protocol."""

    name = "protocol-recovery"

    FAILURE_AT = 1.0
    HORIZON = 500.0

    def setup(self, clock, seed: int) -> None:
        self.seed = seed
        warm_build(clock)
        self.network, rejected, segments = build_network(clock, 3)
        self.setup_builds = [segments]
        problems: list = []
        check_loaded(self.network, 3, rejected, problems)
        if problems:
            raise AssertionError("; ".join(problems))
        topology = self.network.topology
        registry = self.network.registry
        rng = random.Random(seed)
        nodes = rng.sample(_middle_half(
            sorted(topology.nodes()),
            lambda node: len(registry.on_component(node))), 2)
        links = rng.sample(_middle_half(
            list(topology.links()), registry.channel_count_on_link), 4)
        self.scenarios = (
            [FailureScenario.of_nodes([node]) for node in nodes]
            + [FailureScenario.of_links([link]) for link in links]
        )
        # Section 5.2: the RCC frame must carry the worst burst, or the
        # per-hop delay bound D_max (and with it Γ) does not hold.
        self.config = ProtocolConfig(rcc=RCCParams(
            max_messages_per_frame=required_rcc_frame_messages(self.network)
        ))
        self.rep(clock, self.scenarios[:1])  # warm-up

    def rep(self, clock, scenarios=None) -> Outcome:
        problems: list = []
        scenarios = scenarios or self.scenarios
        d_max = self.config.rcc.max_delay
        failed_primaries = recovered = broken = 0
        events = draws_failed = 0
        worst = 0.0
        totals: dict = {}
        signature = []
        for scenario in scenarios:
            with clock.timed("simulation"):
                simulation = ProtocolSimulation(
                    self.network, self.config, seed=self.seed,
                    metrics=NULL_REGISTRY,
                )
                auditor = InvariantAuditor(simulation)
                auditor.attach()
                simulation.inject_scenario(scenario, self.FAILURE_AT)
                simulation.run(until=self.HORIZON)
                rcc = simulation.rcc_totals()
            auditor.check_quiescent(drained=simulation.engine.pending == 0)
            late = 0
            hit = fast = 0
            for record in simulation.metrics.recoveries.values():
                if record.failed_at is not None and not record.endpoint_failed:
                    hit += 1
                    fast += record.recovered
                disruption = record.service_disruption
                if disruption is None:
                    continue
                worst = max(worst, disruption)
                bound = connection_delay_bound(
                    self.network.connection(record.connection_id), d_max
                )
                late += disruption > bound + 1e-9
            if late or auditor.violations:
                broken += 1
                problems.append(
                    f"{scenario.name}: {late} disruptions over the bound, "
                    f"{len(auditor.violations)} invariant violations"
                )
            failed_primaries += hit
            recovered += fast
            events += simulation.engine.events_processed
            draws_failed += simulation.metrics.mux_failures
            for key, value in rcc.items():
                totals[key] = totals.get(key, 0) + value
            signature.append((scenario.name, hit, fast,
                              simulation.engine.events_processed,
                              tuple(sorted(rcc.items()))))
        return Outcome(
            attempted=len(scenarios),
            failed=broken,
            problems=problems,
            stats={"r_fast": recovered / failed_primaries,
                   "spare_frac": self.network.spare_fraction(),
                   "admitted_frac": 1.0},
            signature=tuple(signature) + (worst,),
            counters={
                "engine.events": events,
                "rcc.retransmissions": totals["retransmissions"],
                "runtime.draws_failed": draws_failed,
                "runtime.recovery_delay_max": worst,
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (PaperBuild, Table1Eval, ChurnServe, ProtocolRecovery)
}
