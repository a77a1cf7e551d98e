"""The churn engine's batched loops against their one-at-a-time oracles.

Both engines drive a recording network through the same seeded churn
run.  They must agree on the stats, the registry counters, the final
``repro.snapshot/1`` bytes and the flattened sequence of network
operations (a teardown of several ids counts as that many teardowns, in
order).  The cases that could tell the two apart: a ``run(until=...)``
pause that splits a run of departures, a departure tied with an arrival,
and a departure tied with an epoch boundary.

The batch of arrivals is held the same way: a network that admits it as
one ``establish`` per request ends a churn run with the same stats and
snapshot bytes as the plain one.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest

from repro.core.bcp import BCPNetwork
from repro.core.establishment import EstablishmentError
from repro.network import torus
from repro.obs.registry import MetricsRegistry
from repro.serve import snapshot_network
from repro.workload import ChurnConfig, ChurnEngine

from tests.churn_oracle import OneTeardownPerDeparture


class RecordingNetwork(BCPNetwork):
    """A network that logs every operation the churn engine asks of it."""

    def __init__(self, topology) -> None:
        super().__init__(topology)
        self.operations: list[tuple] = []
        self.teardown_calls = 0

    def establish_batch(self, requests):
        pairs = tuple((request.src, request.dst) for request in requests)
        self.operations.append(("establish", pairs))
        return super().establish_batch(requests)

    def teardown(self, *connections) -> None:
        self.teardown_calls += 1
        self.operations.extend(("teardown", connection)
                               for connection in connections)
        super().teardown(*connections)

    def audit_invariants(self) -> list[str]:
        self.operations.append(("audit",))
        return super().audit_invariants()

    def network_load(self) -> float:
        self.operations.append(("network_load",))
        return super().network_load()

    def spare_fraction(self) -> float:
        self.operations.append(("spare_fraction",))
        return super().spare_fraction()


class FixedDraws:
    """Stands in for an RNG stream: ``expovariate`` cycles through fixed
    values (multiples of 1/4, so every sum of them is exact)."""

    def __init__(self, *values: float) -> None:
        self._values = itertools.cycle(values)

    def expovariate(self, rate: float) -> float:
        return next(self._values)


def churn(engine_class, rows: int, config: ChurnConfig, pause=None,
          draws=None) -> tuple:
    network = RecordingNetwork(torus(rows, rows, capacity=200.0))
    registry = MetricsRegistry()
    engine = engine_class(network, config, metrics=registry)
    if draws is not None:
        engine._arrival_rng, engine._holding_rng = draws()
    paused = None
    if pause is not None:
        paused = (engine.run(until=pause).to_dict(),
                  json.dumps(snapshot_network(network), sort_keys=True))
    stats = engine.run()
    outcome = (
        paused,
        stats.to_dict(),
        registry.snapshot()["counters"],
        json.dumps(snapshot_network(network), sort_keys=True),
        network.operations,
    )
    return outcome, network.teardown_calls


def assert_same_run(rows: int, config: ChurnConfig, pause=None,
                    draws=None) -> None:
    batched, calls = churn(ChurnEngine, rows, config, pause, draws)
    oracle, oracle_calls = churn(OneTeardownPerDeparture, rows, config,
                                 pause, draws)
    paused, stats, counters, snapshot, operations = batched
    assert paused == oracle[0]
    assert stats == oracle[1]
    assert counters == oracle[2]
    assert snapshot == oracle[3]
    assert operations == oracle[4]
    assert oracle_calls == stats["departures"] > calls > 0


def pause_inside_a_run(rows: int, config: ChurnConfig) -> float:
    """A pause time between two departures the loop takes back to back:
    both due before the next arrival and the next epoch boundary."""
    probe = ChurnEngine(BCPNetwork(torus(rows, rows, capacity=200.0)),
                        config, metrics=MetricsRegistry())
    at = 0.0
    while at < config.duration:
        at += 0.25
        probe.run(until=at)
        pending = [entry[0] for entry in sorted(probe._departures)[:2]]
        barrier = min(probe._next_arrival or math.inf,
                      probe._next_epoch or math.inf)
        if len(pending) == 2 and pending[0] < pending[1] < barrier:
            return (pending[0] + pending[1]) / 2
    raise AssertionError("no run of two departures to pause inside")


def random_config(rows: int, seed: int) -> ChurnConfig:
    return ChurnConfig(
        arrival_rate=20.0 * rows / 4, holding_time=5.0, duration=25.0,
        seed=seed, mux_degree=3, epoch_interval=10.0, eval_scenarios=4,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rows", [4, 8])
def test_a_pause_inside_a_run_of_departures(rows, seed):
    config = random_config(rows, seed)
    pause = pause_inside_a_run(rows, config)
    assert_same_run(rows, config, pause=pause)


def tied_draws() -> tuple:
    """Arrivals every second; holding times whose departures land on
    arrival instants, two on one instant, and on epoch boundaries right
    after another departure (4.25 then 5.0, 9.25 then 10.0)."""
    return FixedDraws(1.0), FixedDraws(0.25, 0.25, 1.25, 1.0, 1.25)


TIED = ChurnConfig(duration=12.0, epoch_interval=2.5, batch_window=0.05,
                   mux_degree=3, eval_scenarios=2)


def tied_schedule() -> tuple[list[float], list[float]]:
    arrivals, holdings = tied_draws()
    at, arrival_times, departure_times = 0.0, [], []
    while True:
        at += arrivals.expovariate(1.0)
        if at > TIED.duration:
            return arrival_times, departure_times
        arrival_times.append(at)
        departure_times.append(at + holdings.expovariate(1.0))


@pytest.mark.parametrize("rows", [4, 8])
def test_departures_tied_with_arrivals_and_epochs(rows):
    arrivals, departures = tied_schedule()
    assert {5.0, 10.0} <= set(departures) & set(arrivals)
    # The epochs at 5 and 10 each fall inside a run of departures.
    assert {4.25, 9.25} <= set(departures)
    assert 5.0 % TIED.epoch_interval == 10.0 % TIED.epoch_interval == 0
    assert len(set(departures)) < len(departures)
    assert_same_run(rows, TIED, draws=tied_draws)


@pytest.mark.parametrize("rows", [4, 8])
def test_a_pause_on_a_tied_instant(rows):
    assert_same_run(rows, TIED, pause=5.0, draws=tied_draws)


class OneEstablishPerRequest(BCPNetwork):
    """A network that admits a batch as one ``establish`` per request."""

    def establish_batch(self, requests):
        results = []
        for request in requests:
            try:
                results.append(self.establish(
                    request.src, request.dst, request.traffic,
                    request.delay_qos, request.ft_qos,
                ))
            except EstablishmentError as error:
                results.append(error)
        return results


@pytest.mark.parametrize("seed", [0, 1])
def test_a_batch_is_its_requests_in_order(seed):
    """``repro churn``'s workload: 64 pairs on the 8x8 torus, so one
    batch often holds the same pair more than once."""
    config = ChurnConfig(seed=seed, mux_degree=3, pairs=64)
    runs = []
    for network_class in (BCPNetwork, OneEstablishPerRequest):
        network = network_class(torus(8, 8))
        stats = ChurnEngine(network, config, metrics=MetricsRegistry()).run()
        runs.append((stats.to_dict(),
                     json.dumps(snapshot_network(network), sort_keys=True)))
    assert runs[0] == runs[1]
    assert runs[0][0]["batches"] < runs[0][0]["arrivals"]
