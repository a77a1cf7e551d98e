"""Tests for the discrete-event kernel."""

from __future__ import annotations

import math

import pytest

from repro.protocol import ProtocolConfig, RCCParams
from repro.sim import EventEngine, SimulationError


class TestEventEngine:
    def test_clock_starts_at_zero(self):
        assert EventEngine().now == 0.0

    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_same_time_events_fire_in_schedule_order(self):
        engine = EventEngine()
        fired = []
        for label in "abcde":
            engine.schedule(1.0, lambda l=label: fired.append(l))
        engine.run()
        assert fired == list("abcde")

    def test_args_are_passed(self):
        engine = EventEngine()
        seen = []
        engine.schedule(1.0, seen.append, 42)
        engine.run()
        assert seen == [42]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventEngine().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        engine = EventEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_cancellation(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append("x"))
        assert handle.active
        handle.cancel()
        assert not handle.active
        engine.run()
        assert fired == []

    def test_events_scheduled_during_run(self):
        engine = EventEngine()
        fired = []

        def chain():
            fired.append(engine.now)
            if len(fired) < 3:
                engine.schedule(1.0, chain)

        engine.schedule(1.0, chain)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_stops_clock_exactly(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        assert engine.run(until=5.0) == 5.0
        assert fired == [1]
        # The later event is still pending and fires on the next run.
        engine.run()
        assert fired == [1, 10]

    def test_run_until_composes(self):
        engine = EventEngine()
        engine.run(until=2.0)
        assert engine.now == 2.0
        engine.run(until=1.0)  # never goes backwards
        assert engine.now == 2.0

    def test_max_events(self):
        engine = EventEngine()
        fired = []
        for _ in range(5):
            engine.schedule(1.0, lambda: fired.append(1))
        engine.run(max_events=2)
        assert len(fired) == 2

    def test_step(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        assert engine.step()
        assert not engine.step()

    def test_counters(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        handle = engine.schedule(2.0, lambda: None)
        handle.cancel()
        assert engine.pending == 1
        engine.run()
        assert engine.events_processed == 1

    def test_pending_tracks_schedule_fire_cancel(self):
        engine = EventEngine()
        assert engine.pending == 0
        handles = [engine.schedule(float(i + 1), lambda: None)
                   for i in range(3)]
        assert engine.pending == 3
        engine.step()
        assert engine.pending == 2
        handles[1].cancel()
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0

    def test_heap_depth_gauge_tracks_pops(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        engine = EventEngine(metrics=registry)
        gauge = registry.gauge("engine.heap_depth")
        engine.schedule(1.0, lambda: None)
        handle = engine.schedule(2.0, lambda: None)
        engine.schedule(3.0, lambda: None)
        assert gauge.value == 3
        engine.step()
        assert gauge.value == 2  # fire pop moves the gauge, not just pushes
        handle.cancel()
        engine.run()  # pops the tombstone, then fires the last event
        assert gauge.value == 0

    def test_cancel_is_idempotent(self):
        engine = EventEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()  # second cancel must not double-decrement
        assert engine.pending == 1

    def test_cancel_after_fire_is_noop(self):
        engine = EventEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.step()
        handle.cancel()  # already fired; pending must not go negative
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_delay_rejected(self, bad):
        with pytest.raises(SimulationError):
            EventEngine().schedule(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_absolute_time_rejected(self, bad):
        with pytest.raises(SimulationError):
            EventEngine().schedule_at(bad, lambda: None)

    def test_handle_is_inactive_once_fired(self):
        engine = EventEngine()
        handle = engine.schedule(1.0, lambda: None)
        assert handle.active
        engine.run()
        assert not handle.active  # pending-only: fired is not active

    def test_run_until_infinity_drains_and_keeps_the_clock_finite(self):
        engine = EventEngine()
        fired = []
        engine.schedule(3.0, lambda: fired.append(engine.now))
        assert engine.run(until=math.inf) == 3.0
        assert engine.now == 3.0
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [3.0, 4.0]

    def test_run_until_nan_rejected_before_anything_fires(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        with pytest.raises(SimulationError):
            engine.run(until=math.nan)
        assert fired == []
        assert engine.pending == 1
        assert engine.now == 0.0


def rearm(engine, old, delay, callback, *args):
    """Restart a timer the way the BCP daemon does: schedule the new
    deadline first, then cancel the old handle, so a deadline the engine
    rejects leaves the armed one in place."""
    handle = engine.schedule(delay, callback, *args)
    if old is not None:
        old.cancel()
    return handle


class TestTimeout:
    """One-shot timers (rejoin deadlines, switchover ack timers) are
    plain calendar entries: an ``EventHandle`` per deadline."""

    def test_fires_after_duration(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule(3.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [3.0]
        assert not handle.active

    def test_callback_receives_its_arguments_on_every_expiry(self):
        engine = EventEngine()
        fired = []
        handle = None
        for _ in range(2):
            handle = rearm(engine, handle, 3.0,
                           lambda *args: fired.append(args), 7, "x")
            engine.run()
        assert fired == [(7, "x"), (7, "x")]

    def test_restart_resets_deadline(self):
        engine = EventEngine()
        fired = []
        timer = {}

        def on_expiry():
            fired.append(engine.now)

        def restart():
            timer["handle"] = rearm(engine, timer["handle"], 3.0, on_expiry)

        timer["handle"] = engine.schedule(3.0, on_expiry)
        engine.schedule(2.0, restart)  # restart before expiry
        engine.run()
        assert fired == [5.0]

    def test_cancel(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule(3.0, lambda: fired.append(1))
        handle.cancel()
        assert not handle.active and engine.pending == 0
        engine.run()
        assert fired == []

    def test_cancel_idempotent(self):
        engine = EventEngine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.pending == 0
        engine.run()
        handle.cancel()  # a fired-and-cancelled handle: still a no-op
        assert engine.pending == 0 and engine.events_processed == 0

    def test_duration_validated(self):
        # A timer's duration is a config value, checked when it is built.
        with pytest.raises(ValueError):
            ProtocolConfig(rejoin_timeout=0.0)
        with pytest.raises(ValueError):
            RCCParams(max_delay=0.0)

    def test_restart_from_own_callback_rearms(self):
        # A retransmission-style timer restarts itself on expiry: its own
        # handle is inactive while the callback runs, so the restart's
        # cancel of it is a no-op and the fresh event stands.
        engine = EventEngine()
        fired = []
        timer = {}

        def on_expiry():
            assert not timer["handle"].active
            fired.append(engine.now)
            if len(fired) < 3:
                timer["handle"] = rearm(engine, timer["handle"], 2.0,
                                        on_expiry)

        timer["handle"] = engine.schedule(2.0, on_expiry)
        engine.run()
        assert fired == [2.0, 4.0, 6.0]
        assert not timer["handle"].active

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_duration_rejected(self, bad):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule(bad, lambda: None)
        assert engine.pending == 0

    def test_rejected_restart_keeps_the_armed_deadline(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule(3.0, lambda: fired.append(engine.now))
        with pytest.raises(SimulationError):
            rearm(engine, handle, math.inf, fired.append)
        assert handle.active
        assert engine.pending == 1
        engine.run()
        assert fired == [3.0]


class Ticker:
    """A periodic timer as the daemon's rejoin probes run: each tick
    schedules its successor before it does its work."""

    def __init__(self, engine, period, work, *args):
        self.engine, self.period, self.work, self.args = (
            engine, period, work, args)
        self.handle = None

    def start(self):
        self.handle = rearm(self.engine, self.handle, self.period, self.tick)

    def stop(self):
        self.handle.cancel()

    def tick(self):
        self.handle = self.engine.schedule(self.period, self.tick)
        self.work(*self.args)


class TestPeriodicTimer:
    def test_fires_periodically_until_stopped(self):
        engine = EventEngine()
        fired = []
        timer = Ticker(engine, 2.0, lambda: fired.append(engine.now))
        timer.start()
        engine.schedule(7.0, timer.stop)
        engine.run()
        assert fired == [2.0, 4.0, 6.0]
        assert engine.pending == 0

    def test_callback_receives_its_arguments_on_every_tick(self):
        engine = EventEngine()
        fired = []
        timer = Ticker(
            engine, 2.0, lambda *args: fired.append((engine.now, *args)), 7
        )
        timer.start()
        engine.schedule(5.0, timer.stop)
        engine.run()
        assert fired == [(2.0, 7), (4.0, 7)]

    def test_restart_replaces_schedule(self):
        engine = EventEngine()
        fired = []
        timer = Ticker(engine, 2.0, lambda: fired.append(engine.now))
        timer.start()
        engine.schedule(1.0, timer.start)  # restart at t=1
        engine.schedule(6.0, timer.stop)
        engine.run()
        assert fired == [3.0, 5.0]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_period_rejected(self, bad):
        engine = EventEngine()
        timer = Ticker(engine, bad, lambda: None)
        with pytest.raises(SimulationError):
            timer.start()
        assert timer.handle is None and engine.pending == 0

    def test_rejected_restart_keeps_the_running_schedule(self):
        engine = EventEngine()
        fired = []
        timer = Ticker(engine, 2.0, lambda: fired.append(engine.now))
        timer.start()
        timer.period = math.inf  # the engine will refuse this deadline
        with pytest.raises(SimulationError):
            timer.start()
        assert timer.handle.active and engine.pending == 1
        timer.period = 2.0
        engine.run(until=5.0)
        assert fired == [2.0, 4.0]
