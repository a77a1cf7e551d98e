"""Differential tests: the tuple-calendar event engine against the
dataclass-heap oracle (``tests/engine_oracle.py``), step for step, plus
the deterministic count gate on what draining the calendar costs."""

from __future__ import annotations

import functools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from repro.network.components import LinkId
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.protocol import ProtocolSimulation
from repro.sim import EventEngine, SimulationError, TraceLog
from tests import engine_oracle

#: Few distinct values, so same-time ties are the rule, not the exception.
DELAYS = (0.0, 0.5, 1.0, 1.0, 2.5)
#: Absolute times; as the clock advances more and more of them are past.
GRID = tuple(0.5 * step for step in range(40))
BAD = (-1.0, float("nan"), float("inf"), -float("inf"))


class Boom(Exception):
    """What a scripted callback raises."""


class Tick:
    """A callable with no ``__qualname__``: its category is its type."""

    def __init__(self, walk: "Walk", ident: int, script: tuple) -> None:
        self.fire = functools.partial(walk.fire, ident, script)

    def __call__(self) -> None:
        self.fire()


def random_script(rng: random.Random, depth: int) -> tuple:
    """What an event does when it fires: nested schedules, cancels of
    arbitrary events or of itself, and raising."""
    ops = []
    for _ in range(rng.randrange(3) if depth else 0):
        roll = rng.random()
        if roll < 0.45:
            ops.append(("schedule", rng.choice(DELAYS),
                        random_script(rng, depth - 1), rng.randrange(4)))
        elif roll < 0.6:
            ops.append(("schedule_at", rng.choice(GRID),
                        random_script(rng, depth - 1), rng.randrange(4)))
        elif roll < 0.8:
            ops.append(("cancel", rng.randrange(1000)))
        elif roll < 0.9:
            ops.append(("cancel_self",))
        else:
            ops.append(("raise",))
    return tuple(ops)


def random_program(rng: random.Random, length: int) -> list[tuple]:
    program = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.4:
            program.append(("schedule", rng.choice(DELAYS),
                            random_script(rng, 3), rng.randrange(4)))
        elif roll < 0.5:
            program.append(("schedule_at", rng.choice(GRID),
                            random_script(rng, 3), rng.randrange(4)))
        elif roll < 0.55:
            program.append((rng.choice(("schedule", "schedule_at")),
                            rng.choice(BAD), (), 0))
        elif roll < 0.7:
            program.append(("cancel", rng.randrange(1000)))
        elif roll < 0.82:
            program.append(("step",))
        else:
            program.append((
                "run",
                rng.choice((None, None, *GRID)),
                rng.choice((None, None, 0, 1, 2, 5)),
            ))
    program.append(("drain",))
    return program


class Walk:
    """Interprets one program against one engine, logging everything an
    observer can see; two walks of one program must log the same."""

    def __init__(self, engine_class, registry) -> None:
        self.engine = engine_class(metrics=registry)
        self.handles: list = []  # index = event id
        self.log: list[tuple] = []
        self.fired: set[int] = set()
        self.cancelled: set[int] = set()
        self.reached: Counter = Counter()

    def fire(self, ident: int, script: tuple) -> None:
        engine = self.engine
        self.fired.add(ident)
        self.log.append(("fired", ident, engine.now, engine.pending,
                         engine.events_processed))
        for op in script:
            self.apply(op, running=ident)

    def schedule(self, kind: str, when: float, script: tuple, style: int):
        ident = len(self.handles)
        if style == 0:    # bound method, arguments through the engine
            call = (self.fire, ident, script)
        elif style == 1:  # closure, no arguments
            call = (lambda: self.fire(ident, script),)
        elif style == 2:  # callable object without __qualname__
            call = (Tick(self, ident, script),)
        else:             # partial: no __qualname__ either, one argument
            call = (functools.partial(self.fire, ident), script)
        try:
            handle = getattr(self.engine, kind)(when, *call)
        except SimulationError:
            self.log.append(("rejected", kind, repr(when)))
            self.reached["rejected"] += 1
            return
        self.handles.append(handle)
        self.log.append(("scheduled", ident, handle.time))

    def cancel(self, ident: int, running: "int | None") -> None:
        state = ("fired" if ident in self.fired else
                 "cancelled" if ident in self.cancelled else "pending")
        where = "top" if running is None else "callback"
        self.reached["cancel", state, where] += 1
        self.reached["cancel-running"] += ident == running
        if state == "pending":
            self.cancelled.add(ident)
        self.handles[ident].cancel()

    def apply(self, op: tuple, running: "int | None" = None) -> None:
        name = op[0]
        if name in ("schedule", "schedule_at"):
            self.schedule(*op)
        elif name == "cancel":
            if self.handles:
                self.cancel(op[1] % len(self.handles), running)
        elif name == "cancel_self":
            self.cancel(running, running)
        elif name == "raise":
            self.reached["raise"] += 1
            raise Boom(running)
        elif name == "step":
            self.log.append(("step", self.guarded(self.engine.step)))
        elif name == "drain":  # a raising callback ends a run early
            while self.engine.pending:
                self.log.append(("run", self.guarded(self.engine.run)))
        else:
            _, until, max_events = op
            self.reached["run", until is not None, max_events is not None] += 1
            self.log.append(("run", self.guarded(functools.partial(
                self.engine.run, until=until, max_events=max_events))))

    def guarded(self, call):
        try:
            return call()
        except Boom as boom:
            return ("raised", boom.args[0])

    def observe(self) -> None:
        engine = self.engine
        self.log.append(("state", engine.now, engine.pending,
                         engine.events_processed,
                         tuple(handle.time for handle in self.handles)))


def engine_metrics(registry: MetricsRegistry) -> dict:
    snapshot = registry.snapshot()
    return {
        "counters": {name: value
                     for name, value in snapshot["counters"].items()
                     if name.startswith("engine.")},
        "heap_depth": snapshot["gauges"]["engine.heap_depth"],
        "callbacks": {name: summary["count"]
                      for name, summary in snapshot["histograms"].items()
                      if name.startswith("engine.callback_s.")},
    }


def walk_both(program: list[tuple], live: bool) -> Walk:
    """Run ``program`` on both engines in lock step; returns the product
    walk (for its coverage counters)."""
    registries = [MetricsRegistry() if live else NULL_REGISTRY
                  for _ in range(2)]
    product = Walk(EventEngine, registries[0])
    oracle = Walk(engine_oracle.EventEngine, registries[1])
    for position, op in enumerate(program):
        for walk in (product, oracle):
            walk.apply(op)
            walk.observe()
        assert product.log == oracle.log, (position, op)
        # The oracle's ``active`` stays true after the event fired (the
        # bug this engine fixes), so the product's is held to the model.
        for ident, handle in enumerate(product.handles):
            assert handle.active == (ident not in product.fired
                                     and ident not in product.cancelled)
    assert product.engine.pending == 0
    if live:
        assert engine_metrics(registries[0]) == engine_metrics(registries[1])
    return product


@pytest.mark.parametrize("live", [False, True],
                         ids=["null-registry", "live-registry"])
def test_seeded_walks_match_the_oracle(live):
    reached: Counter = Counter()
    fired = 0
    for seed in range(300):
        rng = random.Random(seed)
        product = walk_both(random_program(rng, 50), live)
        reached += product.reached
        fired += len(product.fired)
    # The sweep must actually reach every situation it is here for.
    for state in ("pending", "fired", "cancelled"):
        for where in ("top", "callback"):
            assert reached["cancel", state, where], (state, where)
    assert reached["cancel-running"] and reached["raise"]
    assert reached["rejected"]
    for bounded in (False, True):
        for capped in (False, True):
            assert reached["run", bounded, capped], (bounded, capped)
    assert fired > 5000


class SteppedWalk(Walk):
    """A walk that fires through repeated ``step()`` where the program
    says ``run``: ``run``'s untimed branch fires inline, ``step`` and the
    timed ``run`` through ``_fire``, and all of them must agree."""

    def apply(self, op: tuple, running: "int | None" = None) -> None:
        if op[0] == "drain":
            while self.engine.pending:
                self.log.append(("run", self.guarded(self.steps)))
        elif op[0] == "run":
            _, until, max_events = op
            assert until is None, "step() cannot stop at a horizon"
            self.log.append(("run", self.guarded(
                functools.partial(self.steps, max_events))))
        else:
            super().apply(op, running)

    def steps(self, max_events: "int | None" = None) -> float:
        fired = 0
        while (max_events is None or fired < max_events) \
                and self.engine.step():
            fired += 1
        return self.engine.now


@pytest.mark.parametrize("seed", range(60))
def test_run_and_step_fire_alike_under_either_registry(seed):
    """One unbounded-horizon program four ways: ``run`` and repeated
    ``step()``, each under ``NULL_REGISTRY`` and a live registry.  Firing
    order, clock, events processed and pending must read the same."""
    rng = random.Random(seed)
    program = [("run", None, op[2]) if op[0] == "run" else op
               for op in random_program(rng, 50)]
    logs, counters = [], []
    for walk_class in (Walk, SteppedWalk):
        for live in (False, True):
            registry = MetricsRegistry() if live else NULL_REGISTRY
            walk = walk_class(EventEngine, registry)
            for op in program:
                walk.apply(op)
                walk.observe()
            assert walk.engine.pending == 0
            logs.append(walk.log)
            if live:
                metrics = engine_metrics(registry)
                del metrics["heap_depth"]  # ``run`` leaves tombstones be
                counters.append(metrics)
    assert all(log == logs[0] for log in logs[1:])
    assert counters[0] == counters[1]
    assert any(entry[0] == "fired" for entry in logs[0])


def test_same_time_ties_fire_in_schedule_order_across_pushes_and_pops():
    # A heap this deep reorders freely unless the tie-break holds.
    program = [("schedule_at", 5.0, (("schedule", 0.0, (), 0),), index % 4)
               for index in range(300)]
    program += [("cancel", index) for index in range(0, 300, 7)]
    program += [("run", 5.0, 50), ("drain",)]
    product = walk_both(program, live=True)
    order = [entry[1] for entry in product.log if entry[0] == "fired"]
    assert order == sorted(order)


def test_clock_overflow_is_rejected_by_both():
    for engine_class in (EventEngine, engine_oracle.EventEngine):
        engine = engine_class(metrics=NULL_REGISTRY)
        engine.schedule(1.7e308, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(1.7e308, lambda: None)  # now + delay == inf
        assert engine.pending == 0


def test_protocol_simulation_is_identical_on_the_oracle_engine(
        loaded_torus4, monkeypatch):
    """The product runtime over the product engine and over the oracle
    engine: node + link failure, both repaired."""
    schedule = [(1.0, "fail", 5), (4.0, "fail", LinkId(0, 1)),
                (20.0, "repair", 5), (60.0, "repair", LinkId(0, 1))]

    def simulate():
        registry = MetricsRegistry()
        simulation = ProtocolSimulation(
            loaded_torus4, seed=0, trace=TraceLog(), metrics=registry)
        for time, action, component in schedule:
            getattr(simulation, action)(component, at=time)
        simulation.run(until=400.0)
        return simulation, registry.snapshot()

    product, product_metrics = simulate()
    monkeypatch.setattr("repro.protocol.runtime.EventEngine",
                        engine_oracle.EventEngine)
    oracle, oracle_metrics = simulate()
    assert type(product.engine) is EventEngine
    assert type(oracle.engine) is engine_oracle.EventEngine
    assert product.trace.rows == oracle.trace.rows
    assert len(product.trace) > 100
    assert product.engine.events_processed == oracle.engine.events_processed
    assert product.engine.events_processed > 1000
    assert product.engine.now == oracle.engine.now
    assert product.engine.pending == oracle.engine.pending
    assert product.rcc_totals() == oracle.rcc_totals()
    assert product.metrics.recoveries == oracle.metrics.recoveries
    assert product_metrics["counters"] == oracle_metrics["counters"]
    assert product_metrics["gauges"] == oracle_metrics["gauges"]


# ----------------------------------------------------------------------
# The count gate: what draining the calendar costs, in Python-level calls
# ----------------------------------------------------------------------
def _noop(*args) -> None:
    pass


def drain_calls(events: int) -> Counter:
    """Python-level calls, by function name, made while draining
    ``events`` pre-scheduled events (half of them carrying arguments)."""
    engine = EventEngine(metrics=NULL_REGISTRY)
    rng = random.Random(events)
    for index in range(events):
        engine.schedule(rng.random() * 100.0, _noop, *((index,) * (index % 2)))
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    try:
        engine.run()
    finally:
        sys.setprofile(None)
    assert engine.events_processed == events
    return calls


def test_draining_costs_a_constant_number_of_python_calls_per_event():
    fixed = sum(drain_calls(0).values())
    rates = []
    for events in (100, 10_000):
        calls = drain_calls(events)
        # Ordering is the C tuple comparison: no Python ``__lt__`` at all.
        assert calls["__lt__"] == 0
        assert calls["_noop"] == events
        rates.append(Fraction(sum(calls.values()) - fixed, events))
    # The callback itself and no engine frame (``run`` fires in its own
    # under a null registry), however deep the heap is.
    assert rates[0] == rates[1] == 1
