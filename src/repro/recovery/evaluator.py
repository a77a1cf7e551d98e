"""Scenario-based recovery evaluation.

For each failure scenario the evaluator replays the *outcome* of the BCP
recovery procedure in the steady state:

1. the scenario's failed components disable every channel whose path
   touches them;
2. connections whose end-nodes crashed are excluded (Section 7.2);
3. every other connection with a failed primary attempts activation, in
   **priority order** — ascending multiplexing degree, the paper's
   priority-based activation (Section 4.3: backups with smaller ν are
   higher priority and draw spare first);
4. a connection tries its backups in serial order (Section 4.2); a backup
   activates iff its path is fully healthy and every link of it can supply
   the channel's bandwidth from the remaining spare pool; draws persist
   within the scenario, so later activations can suffer *multiplexing
   failures* (Section 3.3).

The evaluation works on a scratch copy of the spare pools, so a network
can be evaluated against thousands of scenarios without re-establishment.
An optional uniform spare override implements the brute-force baseline of
Section 7.4.

A scenario costs time proportional to what it hits, not to the network,
and is a merge of lookups in the network's
:class:`~repro.core.plan.NetworkPlan`: the union of
``primaries_on(component)`` over the components the scenario names is the
work list (a node's list holds every primary on its links),
``record(position)`` describes each connection on it, a backup is dead
iff ``mask & failed`` on integers, and both passes of a draw run inline on
the flat scenario-local pools.  ``ActivationOrder.PRIORITY`` sorts only
when ``connections()`` order is not already priority order (on every
paper network it is).  A draw records only what a tally needs (see
``_BY_CODE``); the per-connection dicts are built when first read.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter
from typing import NamedTuple

from repro.core.bcp import BCPNetwork
from repro.core.plan import ConnectionRecord, NetworkPlan, network_plan
from repro.faults.models import FailureScenario
from repro.network.components import LinkId
from repro.obs.registry import MetricsRegistry, get_registry, get_trace_sink
from repro.recovery.metrics import RecoveryStats
from repro.util.rng import make_rng
from repro.util.validation import check_non_negative

# Activation-order sort keys over the contending records.
_by_priority = attrgetter("mux_degree", "connection_id")
_connection_id_of = attrgetter("connection_id")


class ActivationOrder(enum.Enum):
    """Order in which contending connections draw spare resources."""

    #: Ascending multiplexing degree (paper's priority-based activation).
    PRIORITY = "priority"
    #: Establishment order (connection id) — no prioritisation.
    CONNECTION_ID = "connection_id"
    #: Uniformly random — models unsynchronised activation races.
    RANDOM = "random"


class ConnectionOutcome(enum.Enum):
    """Per-connection result within one scenario."""

    FAST_RECOVERED = "fast_recovered"
    MUX_FAILURE = "mux_failure"
    CHANNELS_LOST = "channels_lost"
    EXCLUDED = "excluded"
    UNAFFECTED = "unaffected"


# Bound once: attribute access on an Enum class is too slow for a loop
# that runs once per contending connection.
_FAST_RECOVERED = ConnectionOutcome.FAST_RECOVERED
_MUX_FAILURE = ConnectionOutcome.MUX_FAILURE
_CHANNELS_LOST = ConnectionOutcome.CHANNELS_LOST
_EXCLUDED = ConnectionOutcome.EXCLUDED
#: A contender's outcome by its draw code: the serial drawn (FAST_RECOVERED
#: for any code not here), 0 channels lost, -1 a multiplexing failure.
_BY_CODE = {0: _CHANNELS_LOST, -1: _MUX_FAILURE}


class OutcomeTally(NamedTuple):
    """How many connections of one scenario ended in each outcome."""

    fast_recovered: int = 0
    mux_failures: int = 0
    channels_lost: int = 0
    excluded: int = 0

    @property
    def failed_primaries(self) -> int:
        return self.fast_recovered + self.mux_failures + self.channels_lost


@dataclass
class ScenarioResult:
    """Outcome of one failure scenario.  A drawn one builds ``outcomes``
    and ``activated_serial`` from its draw's record when first read."""

    scenario: FailureScenario
    outcomes: dict[int, ConnectionOutcome] = field(default_factory=dict)
    #: connection id -> serial of the backup that took over.
    activated_serial: dict[int, int] = field(default_factory=dict)
    #: The evaluator's own count of ``outcomes``, kept as it classifies so
    #: that aggregation never re-walks the dict; ``None`` on a hand-built
    #: result.
    _tally: "OutcomeTally | None" = field(
        default=None, repr=False, compare=False
    )

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: a drawn
        # result's two dicts, built once from its record.
        if name not in ("outcomes", "activated_serial") or "_record" not in vars(self):
            raise AttributeError(name)
        excluded, contenders, codes = vars(self).pop("_record")
        outcomes = self.outcomes = dict.fromkeys(
            [record.connection_id for record in excluded], _EXCLUDED
        )
        activated = self.activated_serial = {}
        for record, code in zip(contenders, codes):
            outcomes[record.connection_id] = _BY_CODE.get(code, _FAST_RECOVERED)
            if code > 0:
                activated[record.connection_id] = code
        return getattr(self, name)

    def tally(self) -> OutcomeTally:
        """Every outcome count at once."""
        if self._tally is not None:
            return self._tally
        return OutcomeTally(
            self.count(ConnectionOutcome.FAST_RECOVERED),
            self.count(ConnectionOutcome.MUX_FAILURE),
            self.count(ConnectionOutcome.CHANNELS_LOST),
            self.count(ConnectionOutcome.EXCLUDED),
        )

    def count(self, outcome: ConnectionOutcome) -> int:
        """Number of connections with the given outcome."""
        return sum(1 for value in self.outcomes.values() if value is outcome)

    @property
    def failed_primaries(self) -> int:
        """Connections whose primary failed and whose endpoints survived."""
        return self.tally().failed_primaries

    @property
    def r_fast(self) -> float | None:
        tally = self.tally()
        if tally.failed_primaries == 0:
            return None
        return tally.fast_recovered / tally.failed_primaries


class RecoveryEvaluator:
    """Evaluates failure scenarios against a loaded BCP network.

    Parameters
    ----------
    network:
        The loaded :class:`~repro.core.bcp.BCPNetwork` (not mutated).
    order:
        Activation order among contending connections.
    spare_override:
        Per-link spare pools replacing the network's own — either a mapping
        (missing links get 0) or a single float applied to every link.
        This is how the brute-force baseline of Section 7.4 is evaluated.
    free_capacity_fallback:
        If ``True``, an activation short on spare may draw the shortfall
        from the link's *free* (unreserved) capacity.  The paper draws from
        spare only; the fallback is an ablation knob.
    seed:
        RNG seed for ``ActivationOrder.RANDOM``.
    metrics:
        Registry receiving per-scenario timing (``evaluator.scenario_s``)
        and outcome counters (``evaluator.*``); defaults to the session
        registry.  Pass :data:`~repro.obs.NULL_REGISTRY` to de-instrument
        a hot sweep.
    """

    def __init__(
        self,
        network: BCPNetwork,
        order: ActivationOrder = ActivationOrder.PRIORITY,
        spare_override: "Mapping[LinkId, float] | float | None" = None,
        free_capacity_fallback: bool = False,
        seed: "int | None" = 0,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.network = network
        self.order = order
        self.free_capacity_fallback = free_capacity_fallback
        self._rng = make_rng(seed)
        obs = metrics if metrics is not None else get_registry()
        self._timed = obs.enabled
        self._t_scenario = obs.timer("evaluator.scenario_s")
        self._c_scenarios = obs.counter("evaluator.scenarios")
        self._c_fast = obs.counter("evaluator.fast_recovered")
        self._c_mux = obs.counter("evaluator.mux_failures")
        self._c_lost = obs.counter("evaluator.channels_lost")
        self._c_excluded = obs.counter("evaluator.excluded")
        self._base_spares = self._resolve_spares(spare_override)
        # Free capacity per link, fixed at construction — only needed (and
        # only paid for) in fallback mode.
        self._base_free = (
            {link: network.ledger.free(link) for link in network.topology.links()}
            if free_capacity_fallback
            else {}
        )
        # The plan the flat pools below are laid out for; see _current_plan.
        self._plan: "NetworkPlan | None" = None
        self._spare_pool: list[float] = []
        self._free_pool: list[float] = []

    def _resolve_spares(
        self, override: "Mapping[LinkId, float] | float | None"
    ) -> dict[LinkId, float]:
        topology = self.network.topology
        if override is None:
            return self.network.ledger.snapshot_spares()
        if isinstance(override, (int, float)):
            check_non_negative(override, "spare_override")
            # A uniform pool cannot exceed what the link can actually hold.
            return {
                link: min(
                    float(override),
                    topology.capacity(link)
                    - self.network.ledger.primary_reserved(link),
                )
                for link in topology.links()
            }
        for link, amount in override.items():
            if not (isinstance(link, LinkId) and link in topology):
                raise ValueError(
                    f"spare_override names {link!r}, which is not a link "
                    f"of {topology.name}"
                )
            check_non_negative(amount, f"spare_override for link {link}")
        return {link: float(override.get(link, 0.0)) for link in topology.links()}

    def _current_plan(self) -> NetworkPlan:
        """The network's plan, with this evaluator's flat base pools laid
        out in its link order.

        Connections are read live (the plan recompiles when the ledger
        moved); the pool *amounts* stay the construction snapshot.
        """
        plan = network_plan(self.network)
        if plan is not self._plan:
            self._plan = plan
            spares, free = self._base_spares, self._base_free
            # The trailing empty slot is the one off-topology hops share.
            self._spare_pool = [*(spares.get(link, 0.0) for link in plan.links), 0.0]
            self._free_pool = [*(free.get(link, 0.0) for link in plan.links), 0.0]
        return plan

    # ------------------------------------------------------------------
    def evaluate(self, scenario: FailureScenario) -> ScenarioResult:
        """Replay one scenario; the network itself is untouched.

        Raises ``ValueError`` for a scenario naming a node or link the
        topology does not have.
        """
        if not self._timed:
            return self._evaluate(scenario)
        start = perf_counter()
        result = self._evaluate(scenario)
        self._t_scenario.record(perf_counter() - start)
        ordinal = self._c_scenarios.value
        self._c_scenarios.inc()
        fast, mux, lost, excluded = result.tally()
        self._c_fast.inc(fast)
        self._c_mux.inc(mux)
        self._c_lost.inc(lost)
        self._c_excluded.inc(excluded)
        sink = get_trace_sink()
        if sink is not None:
            # The evaluator has no simulation clock; the time field is
            # the scenario's ordinal in the registry it records into (the
            # running ``evaluator.scenarios`` count).
            sink.point("scenario", "evaluator", float(ordinal),
                       scenario=str(scenario), fast=fast, mux=mux, lost=lost)
        return result

    def _evaluate(self, scenario: FailureScenario) -> ScenarioResult:
        topology = self.network.topology
        named = (*scenario.failed_nodes, *scenario.failed_links)
        for component in named:
            if component not in topology:
                raise ValueError(
                    f"scenario {scenario} fails {component!r}, which is not "
                    f"a component of {topology.name}"
                )
        plan = self._current_plan()

        # The connections whose primary the scenario crosses, in
        # connections() order.  A node's list already holds every primary
        # on its links.  A failed backup alone does not disrupt service; it
        # is handled by resource reconfiguration, not here.
        if len(named) == 1:
            hit = plan.primaries_on(named[0])
        else:
            hit = sorted(set().union(*map(plan.primaries_on, named)))
        failed_nodes = scenario.failed_nodes
        excluded: list[ConnectionRecord] = []
        contenders: list[ConnectionRecord] = []
        for record in map(plan.record, hit):
            if record.source in failed_nodes or record.destination in failed_nodes:
                # Unrecoverable by any protocol; excluded (Section 7.2).
                excluded.append(record)
            else:
                contenders.append(record)
        if self.order is ActivationOrder.RANDOM:
            self._rng.shuffle(contenders)
        elif self.order is ActivationOrder.CONNECTION_ID:
            contenders.sort(key=_connection_id_of)
        elif not plan.priority_ordered:
            contenders.sort(key=_by_priority)

        # Every record above is compiled, so every component a backup of
        # theirs crosses has its bit by now.
        failed = plan.space.known(scenario.components(topology))
        # Scenario-local remaining amounts; draws persist within the
        # scenario.
        pools = self._spare_pool.copy()
        fallback = self.free_capacity_fallback
        free = self._free_pool.copy() if fallback else None
        codes: list[int] = []
        code_of = codes.append
        for record in contenders:
            bandwidth = record.bandwidth
            code = 0
            for serial, mask, links in record.backups:
                if mask & failed:
                    continue
                # Atomically draw ``bandwidth`` on every link: check all,
                # then take all.  In fallback mode a link short on spare
                # covers the shortfall from its free capacity.
                for link in links:
                    available = pools[link]
                    if available + 1e-9 < bandwidth and (
                        not fallback
                        or free[link] + 1e-9 < bandwidth - available
                    ):
                        code = -1
                        break
                else:
                    if fallback:
                        # The shortfall comes out of free capacity.
                        for link in links:
                            if (short := pools[link] - bandwidth) < -1e-9:
                                free[link] += short
                    for link in links:
                        remaining = pools[link] - bandwidth
                        # max(0.0, remaining) without the call: absorbs
                        # float round-off.
                        pools[link] = remaining if remaining > 0.0 else 0.0
                    code = serial
                    break
            code_of(code)
        # Not __init__: a drawn result holds its record, not the dicts.
        result = ScenarioResult.__new__(ScenarioResult)
        result.scenario, result._record = scenario, (excluded, contenders, codes)
        lost, mux = codes.count(0), codes.count(-1)
        result._tally = OutcomeTally(len(codes) - lost - mux, mux, lost, len(excluded))
        return result

    def evaluate_many(self, scenarios: Iterable[FailureScenario]) -> RecoveryStats:
        """Aggregate :class:`RecoveryStats` over a scenario set."""
        stats = RecoveryStats()
        for scenario in scenarios:
            tally = self.evaluate(scenario).tally()
            stats.add_scenario(
                failed_primaries=tally.failed_primaries,
                fast_recovered=tally.fast_recovered,
                mux_failures=tally.mux_failures,
                channels_lost=tally.channels_lost,
                excluded_connections=tally.excluded,
            )
        return stats


def evaluate_scenarios(
    network: BCPNetwork,
    scenarios: Iterable[FailureScenario],
    *,
    order: ActivationOrder = ActivationOrder.PRIORITY,
    free_capacity_fallback: bool = False,
    seed: "int | None" = 0,
    metrics: "MetricsRegistry | None" = None,
) -> RecoveryStats:
    """Evaluate a scenario stream against ``network`` as it is now.

    One :class:`RecoveryEvaluator` built from the keyword arguments, one
    :meth:`~RecoveryEvaluator.evaluate_many` — the call for consumers that
    evaluate a network that keeps changing (churn epochs, serve
    ``evaluate`` requests) and so never keep an evaluator.
    """
    return RecoveryEvaluator(
        network,
        order=order,
        free_capacity_fallback=free_capacity_fallback,
        seed=seed,
        metrics=metrics,
    ).evaluate_many(scenarios)
