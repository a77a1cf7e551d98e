"""Heartbeat-based failure detection (the [HAN97a] substitute).

The paper assumes a failure-detection layer exists and reports component
failures to neighbour nodes; its companion paper [HAN97a] studies such
detectors experimentally.  This module provides a concrete one so the
whole recovery pipeline can run without any oracle: every node sends a
heartbeat over each outgoing link's RCC at a fixed period, and the
receiving neighbour declares the link failed after missing
``miss_threshold`` consecutive beats.

A crashed *node* simply stops heartbeating on every incident link, so its
neighbours each detect their adjacent link — which is exactly the
information a real neighbour has, and exactly what the BCP daemon's
failure handling consumes (a channel's upstream/downstream link dying).
Repaired components resume beating and the detector re-arms silently;
channel-level healing is the rejoin machinery's job.
"""

from __future__ import annotations

import weakref

from repro.network.components import LinkId
from repro.protocol.messages import HEARTBEAT_CHANNEL, Heartbeat
from repro.sim.timers import Timeout, WeakCallback


class HeartbeatService:
    """Heartbeat emission and detection across a whole runtime.

    Every *incoming* link has one detection timer at its receiving node: a
    beat restarts it, and its expiry declares the link failed there.  The
    runtime owns the service, so the service reaches it through a weak
    proxy and its timers call it through one shared
    :class:`~repro.sim.timers.WeakCallback`.
    """

    def __init__(self, runtime) -> None:
        self.runtime = weakref.proxy(runtime)
        config = runtime.config
        timeout = (
            config.heartbeat_miss_threshold * config.heartbeat_period
            + config.rcc.max_delay
        )
        declare = WeakCallback(self._declare_failed)
        self._timers: dict[LinkId, Timeout] = {
            link: Timeout(runtime.engine, timeout, declare, link)
            for link in runtime.network.topology.links()
        }
        #: Links declared failed in the current outage: one declaration
        #: each, until beats resume.
        self._declared: set[LinkId] = set()

    def start(self) -> None:
        """Arm every detector and schedule the periodic beats."""
        runtime = self.runtime
        period = runtime.config.heartbeat_period
        for timer in self._timers.values():
            timer.start()
        for link in self._timers:
            # Stagger nothing: determinism beats phase-spreading here.
            runtime.engine.schedule(period, self._beat, link)

    def _beat(self, link: LinkId) -> None:
        runtime = self.runtime
        if runtime.node_up(link.src):
            runtime._rcc[link].send(
                Heartbeat(channel_id=HEARTBEAT_CHANNEL, link=link)
            )
        runtime.engine.schedule(runtime.config.heartbeat_period,
                                self._beat, link)

    def on_heartbeat(self, link: LinkId) -> None:
        """A beat arrived: the link is (again) considered healthy."""
        self._declared.discard(link)
        self._timers[link].start()

    def _declare_failed(self, link: LinkId) -> None:
        if link in self._declared:
            return
        self._declared.add(link)
        runtime = self.runtime
        receiver = link.dst
        if not runtime.node_up(receiver):
            return  # a dead node detects nothing
        trace = runtime.trace
        if trace.active:
            trace.point("hb-detect", receiver, runtime.engine.now,
                        link=str(link), cause="missed-heartbeats")
        runtime.daemons[receiver].on_component_failure(link)
        # One declaration per outage; the timer re-arms when beats resume.

    def on_node_failed(self, node) -> None:
        """Disarm the dead node's own detectors (a crashed node detects
        nothing); detectors *at its neighbours* stay armed — their missed
        beats are exactly how the crash is discovered."""
        for link, timer in self._timers.items():
            if link.dst == node:
                timer.cancel()

    def on_node_repaired(self, node) -> None:
        """Re-arm the repaired node's detectors for its incoming links."""
        for link, timer in self._timers.items():
            if link.dst == node:
                self._declared.discard(link)
                timer.start()
