"""Seeded churn engine: Poisson arrivals, exponential holding times.

The engine drives a long-lived :class:`~repro.core.bcp.BCPNetwork`
through establish → hold → teardown cycles on a simulated clock:

* **arrivals** form a Poisson process (rate ``arrival_rate``); each
  arrival requests a D-connection between a seeded node pair;
* arrivals landing within ``batch_window`` of each other — without a
  departure or epoch boundary in between — are admitted as one **batch**
  through :meth:`~repro.core.bcp.BCPNetwork.establish_batch`, in arrival
  order (one call, so one round trip for a served network);
* each admitted connection **holds** for an exponential time (mean
  ``holding_time``) and is then torn down through the incremental bulk
  path (only the links its channels crossed are touched); the
  departures due before the next arrival or epoch boundary are one
  :meth:`~repro.core.bcp.BCPNetwork.teardown` call (one round trip for
  a served network);
* at every **epoch boundary** (``epoch_interval``) the engine audits the
  reservation ledger, cross-checks the multiplexing engine's required
  pools against the ledger's mirrored spare pools, samples the blocking /
  load / spare time series, and — optionally — evaluates a deterministic
  sample of single-link failure scenarios against the live network
  (the evaluate-under-churn snapshot).

Determinism: four independent RNG streams (arrival gaps, node pairs,
holding times, per-epoch evaluation) are derived from one seed via
:func:`~repro.util.rng.spawn_rngs`, every simulated quantity (including
the recorded establishment latency, :data:`PER_HOP_LATENCY` x channel hops)
is computed from seeded state, and per-epoch scenario evaluation folds
only its *counters* into the session registry (its wall-clock timers
stay in a private registry).  Metrics and stats exports are therefore
byte-identical run to run, local or served.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.channels.qos import DelayQoS, FaultToleranceQoS
from repro.channels.traffic import TrafficSpec
from repro.core.bcp import BCPNetwork, BatchRequest, EstablishmentError
from repro.faults.models import FailureScenario
from repro.obs.registry import (
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    get_registry,
)
from repro.obs.slo import SLOEngine
from repro.recovery import RecoveryStats, evaluate_scenarios
from repro.util.rng import spawn_rngs
from repro.util.validation import check_non_negative, check_positive

#: Every churn arrival asks for this delay QoS: a path at most this many
#: hops longer than the shortest possible one.
SLACK_HOPS = 2

#: Recorded establishment latency per channel hop.
PER_HOP_LATENCY = 0.001


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of one churn run.

    ``pairs`` bounds the node-pair pool: arrivals draw from a pre-sampled
    pool of that many ordered pairs (with repetition), so the same pairs
    contend for the same links; ``0`` draws a fresh pair per arrival.
    ``eval_scenarios`` enables the per-epoch recovery evaluation with a
    deterministic sample of that many single-link failures.
    """

    arrival_rate: float = 50.0
    holding_time: float = 10.0
    duration: float = 100.0
    seed: int = 0
    bandwidth: float = 1.0
    num_backups: int = 1
    mux_degree: int = 1
    batch_window: float = 0.05
    epoch_interval: float = 10.0
    eval_scenarios: int = 0
    pairs: int = 0
    #: Declarative SLO target specs (see :mod:`repro.obs.slo`), evaluated
    #: against the engine's registry snapshot at every epoch boundary,
    #: e.g. ``("churn.establish_latency.p99 <= 0.02",)``.  Breaches are
    #: recorded in :attr:`ChurnStats.slo_breaches`; empty disables.
    slos: tuple = ()

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate, "arrival_rate")
        check_positive(self.holding_time, "holding_time")
        check_positive(self.duration, "duration")
        check_positive(self.bandwidth, "bandwidth")
        check_positive(self.epoch_interval, "epoch_interval")
        check_non_negative(self.batch_window, "batch_window")
        if self.num_backups < 0:
            raise ValueError(f"num_backups must be >= 0, got {self.num_backups}")
        if self.mux_degree < 0:
            raise ValueError(f"mux_degree must be >= 0, got {self.mux_degree}")
        if self.eval_scenarios < 0:
            raise ValueError(
                f"eval_scenarios must be >= 0, got {self.eval_scenarios}"
            )
        if self.pairs < 0:
            raise ValueError(f"pairs must be >= 0, got {self.pairs}")


@dataclass
class ChurnStats:
    """Aggregated outcome of one churn run (deterministic for a seed)."""

    arrivals: int = 0
    established: int = 0
    blocked: int = 0
    departures: int = 0
    batches: int = 0
    epochs: int = 0
    peak_connections: int = 0
    final_connections: int = 0
    #: Human-readable invariant violations found at epoch boundaries
    #: (ledger audit findings and mux-vs-ledger spare mismatches).
    audit_violations: list[str] = field(default_factory=list)
    #: SLO breaches found at epoch boundaries (one entry per breached
    #: target per epoch, stamped with the epoch time).
    slo_breaches: list[str] = field(default_factory=list)
    #: Merged per-epoch recovery evaluation (empty when disabled).
    recovery: RecoveryStats = field(default_factory=RecoveryStats)

    @property
    def blocking_probability(self) -> float:
        """Fraction of arrivals the network could not admit."""
        if self.arrivals == 0:
            return 0.0
        return self.blocked / self.arrivals

    @property
    def clean(self) -> bool:
        """Whether every epoch-boundary invariant check passed.

        Invariants only — breached SLOs do not make a run unclean.  Gate
        on :attr:`healthy` when SLO compliance matters too; gating on
        ``clean`` alone silently waves breached SLOs through (the bug
        this split fixed).
        """
        return not self.audit_violations

    @property
    def healthy(self) -> bool:
        """Whether the run was :attr:`clean` *and* met every SLO target."""
        return self.clean and not self.slo_breaches

    def to_dict(self) -> dict:
        """Deterministic JSON-ready summary (sorted, seeded values only)."""
        return {
            "arrivals": self.arrivals,
            "established": self.established,
            "blocked": self.blocked,
            "blocking_probability": self.blocking_probability,
            "departures": self.departures,
            "batches": self.batches,
            "epochs": self.epochs,
            "peak_connections": self.peak_connections,
            "final_connections": self.final_connections,
            "audit_violations": list(self.audit_violations),
            "slo_breaches": list(self.slo_breaches),
            "recovery": {
                "scenarios": self.recovery.scenarios,
                "failed_primaries": self.recovery.failed_primaries,
                "fast_recovered": self.recovery.fast_recovered,
                "mux_failures": self.recovery.mux_failures,
                "channels_lost": self.recovery.channels_lost,
                "r_fast": self.recovery.r_fast,
            },
        }


class ChurnEngine:
    """Drives one network through one seeded churn run."""

    def __init__(
        self,
        network: BCPNetwork,
        config: ChurnConfig,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.network = network
        self.config = config
        self.registry = metrics if metrics is not None else get_registry()
        (
            self._arrival_rng,
            self._pair_rng,
            self._holding_rng,
            self._eval_rng,
        ) = spawn_rngs(config.seed, 4)
        self._c_arrivals = self.registry.counter("churn.arrivals")
        self._c_established = self.registry.counter("churn.established")
        self._c_blocked = self.registry.counter("churn.blocked")
        self._c_departures = self.registry.counter("churn.departures")
        self._c_batches = self.registry.counter("churn.batches")
        self._c_violations = self.registry.counter("churn.audit_violations")
        self._h_latency = self.registry.histogram("churn.establish_latency")
        self._h_batch = self.registry.histogram("churn.batch_size")
        self._s_blocking = self.registry.series("churn.blocking")
        self._s_load = self.registry.series("churn.network_load")
        self._s_spare = self.registry.series("churn.spare_fraction")
        self._s_live = self.registry.series("churn.connections")
        # Parsing here fails fast on malformed specs, before any churn
        # state exists.
        self._slo_engine = SLOEngine(config.slos) if config.slos else None
        self._c_slo_breaches = self.registry.counter("churn.slo_breaches")
        nodes = sorted(network.topology.nodes())
        if len(nodes) < 2:
            raise ValueError("churn needs a topology with at least two nodes")
        self._nodes = nodes
        self._pool = [self._draw_pair() for _ in range(config.pairs)]
        self._delay_qos = DelayQoS(slack_hops=SLACK_HOPS)
        self._ft_qos = FaultToleranceQoS(
            num_backups=config.num_backups, mux_degree=config.mux_degree
        )
        self._traffic = TrafficSpec(bandwidth=config.bandwidth)
        # topology.links() is insertion-ordered and identical for any
        # builder seed, so the scenario sample below is deterministic.
        self._eval_links = list(network.topology.links())
        self.stats = ChurnStats()
        #: Departure heap entries: (time, sequence, connection_id).
        self._departures: list[tuple[float, int, int]] = []
        self._departure_seq = 0
        # Resumable-run loop state (see :meth:`run`): the pending arrival
        # and epoch-boundary times live on the instance so a paused run
        # continues exactly where it stopped.
        self._started = False
        self._next_arrival: "float | None" = None
        self._next_epoch: "float | None" = None

    # ------------------------------------------------------------------
    # seeded draws
    # ------------------------------------------------------------------
    def _draw_pair(self) -> tuple:
        src = self._pair_rng.choice(self._nodes)
        dst = self._pair_rng.choice(self._nodes)
        while dst == src:
            dst = self._pair_rng.choice(self._nodes)
        return (src, dst)

    def _next_pair(self) -> tuple:
        if self._pool:
            return self._pool[self._pair_rng.randrange(len(self._pool))]
        return self._draw_pair()

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(self, until: "float | None" = None) -> ChurnStats:
        """Run the churn process, optionally pausing at ``until``.

        Events are processed in simulated-time order with a fixed
        tie-break — epoch boundary, then departure, then arrival — so the
        trajectory is a pure function of the configuration.

        With ``until`` the loop stops *before* the first event later
        than it and returns the interim stats; a later ``run()`` call
        continues from exactly that point.  Pausing draws no RNG values
        and reorders no events, so a paused-and-resumed run is
        byte-identical to an uninterrupted one — this is how the serve
        snapshot/restore smoke drives a mid-run server restart.
        """
        config = self.config
        duration = config.duration
        if not self._started:
            self._started = True
            first_arrival = self._arrival_rng.expovariate(config.arrival_rate)
            self._next_arrival = (
                first_arrival if first_arrival <= duration else None
            )
            self._next_epoch = min(config.epoch_interval, duration)
        horizon = duration if until is None else min(until, duration)
        while True:
            arrival_at = self._next_arrival
            depart_at = self._departures[0][0] if self._departures else None
            next_epoch = self._next_epoch
            candidates = [
                value
                for value in (arrival_at, depart_at, next_epoch)
                if value is not None and value <= duration
            ]
            if not candidates:
                break
            now = min(candidates)
            if now > horizon:
                # Paused between events; resume with another run() call.
                return self.stats
            if next_epoch is not None and next_epoch <= now:
                self._run_epoch(next_epoch)
                boundary = next_epoch + config.epoch_interval
                if next_epoch >= duration:
                    self._next_epoch = None
                else:
                    self._next_epoch = min(boundary, duration)
                continue
            if depart_at is not None and depart_at <= now:
                self._process_departures(horizon, arrival_at, next_epoch)
                continue
            self._next_arrival = self._process_arrivals(
                arrival_at, depart_at, next_epoch
            )
        if self._next_epoch is not None:  # pragma: no cover - loop closes epochs
            self._run_epoch(self._next_epoch)
            self._next_epoch = None
        self.stats.final_connections = self.network.num_connections
        return self.stats

    # ------------------------------------------------------------------
    def _process_arrivals(
        self,
        first_at: float,
        depart_at: "float | None",
        next_epoch: "float | None",
    ) -> "float | None":
        """Admit one arrival batch; returns the next arrival time.

        The batch collects consecutive arrivals within ``batch_window``
        of the first, stopping early if the next arrival would cross a
        departure or an epoch boundary (those events must see the network
        state their timestamps imply).
        """
        config = self.config
        deadline = first_at + config.batch_window
        batch: list[tuple[float, tuple, float]] = []
        at = first_at
        while True:
            pair = self._next_pair()
            holding = self._holding_rng.expovariate(1.0 / config.holding_time)
            batch.append((at, pair, holding))
            upcoming = at + self._arrival_rng.expovariate(config.arrival_rate)
            if upcoming > config.duration:
                upcoming = None
                break
            if upcoming > deadline:
                break
            if depart_at is not None and upcoming >= depart_at:
                break
            if next_epoch is not None and upcoming >= next_epoch:
                break
            at = upcoming

        requests = [
            BatchRequest(
                src=pair[0],
                dst=pair[1],
                traffic=self._traffic,
                delay_qos=self._delay_qos,
                ft_qos=self._ft_qos,
            )
            for _, pair, _ in batch
        ]
        results = self.network.establish_batch(requests)
        self.stats.arrivals += len(batch)
        self.stats.batches += 1
        self._c_arrivals.inc(len(batch))
        self._c_batches.inc()
        self._h_batch.record(float(len(batch)))
        for (arrived_at, _, holding), result in zip(batch, results):
            if not isinstance(result, EstablishmentError):
                self.stats.established += 1
                self._c_established.inc()
                self._h_latency.record(
                    PER_HOP_LATENCY * result.total_hops
                )
                self._departure_seq += 1
                heapq.heappush(
                    self._departures,
                    (
                        arrived_at + holding,
                        self._departure_seq,
                        result.connection_id,
                    ),
                )
            else:
                self.stats.blocked += 1
                self._c_blocked.inc()
        live = self.network.num_connections
        if live > self.stats.peak_connections:
            self.stats.peak_connections = live
        return upcoming

    def _process_departures(
        self,
        horizon: float,
        arrival_at: "float | None",
        next_epoch: "float | None",
    ) -> None:
        """Tear down the run of departures due next, in one call.

        The run is every departure the loop would process back to back:
        due no later than ``horizon`` (the pause or the end of the run),
        strictly before the next epoch boundary, and no later than the
        next arrival (a departure wins a tie with an arrival, an epoch a
        tie with a departure).  The connections go in heap order, as one
        teardown per departure would take them.
        """
        departures = self._departures
        ids = []
        while departures:
            at = departures[0][0]
            if (
                at > horizon
                or (next_epoch is not None and at >= next_epoch)
                or (arrival_at is not None and at > arrival_at)
            ):
                break
            ids.append(heapq.heappop(departures)[2])
        self.network.teardown(*ids)
        self.stats.departures += len(ids)
        self._c_departures.inc(len(ids))

    # ------------------------------------------------------------------
    # epoch boundaries
    # ------------------------------------------------------------------
    def _run_epoch(self, at: float) -> None:
        self.stats.epochs += 1
        violations = self._check_invariants()
        if violations:
            self.stats.audit_violations.extend(violations)
            self._c_violations.inc(len(violations))
        self._s_blocking.append(at, self.stats.blocking_probability)
        self._s_load.append(at, self.network.network_load())
        self._s_spare.append(at, self.network.spare_fraction())
        self._s_live.append(at, float(self.network.num_connections))
        if self._slo_engine is not None:
            for breach in self._slo_engine.breaches(self.registry.snapshot()):
                note = f" ({breach.detail})" if breach.detail else ""
                self.stats.slo_breaches.append(
                    f"epoch {at:g}: {breach.target.spec()} "
                    f"observed {breach.observed!r}{note}"
                )
                self._c_slo_breaches.inc()
        if self.config.eval_scenarios > 0:
            self._evaluate_epoch()

    def _check_invariants(self) -> list[str]:
        """Ledger audit plus the mux-vs-ledger spare consistency check.

        Delegated to :meth:`~repro.core.bcp.BCPNetwork.audit_invariants`
        so a remote network adapter (:mod:`repro.serve`) runs the same
        audit server-side in one round trip per epoch.
        """
        return self.network.audit_invariants()

    def _evaluate_epoch(self) -> None:
        """Evaluate a seeded single-link failure sample against the live
        network (the evaluate-under-churn snapshot).

        The evaluation runs under a private registry; only its *counters*
        — which are deterministic — are folded into the engine's registry.
        Its wall-clock scenario timer never reaches the session snapshot,
        keeping ``--metrics-out`` byte-identical run to run.

        A network exposing ``evaluate_failures`` (the remote adapter)
        runs the sweep on its side — the link sample and epoch seed are
        still drawn here, from the same RNG stream, so a remote run's
        recovery stats match a local run's bit for bit.
        """
        count = min(self.config.eval_scenarios, len(self._eval_links))
        links = self._eval_rng.sample(self._eval_links, count)
        epoch_seed = self._eval_rng.getrandbits(64)
        remote = getattr(self.network, "evaluate_failures", None)
        if remote is not None:
            stats, counters = remote(links, epoch_seed)
        else:
            scenarios = [FailureScenario.of_links([link]) for link in links]
            private = MetricsRegistry()
            stats = evaluate_scenarios(
                self.network,
                scenarios,
                seed=epoch_seed,
                metrics=private,
            )
            counters = private.snapshot()["counters"]
        self.stats.recovery = self.stats.recovery.merge(stats)
        self.registry.absorb(
            {
                "schema": SNAPSHOT_SCHEMA,
                "counters": counters,
                "gauges": {},
                "histograms": {},
                "series": {},
            }
        )
