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

from dataclasses import dataclass

from repro.network.components import LinkId
from repro.protocol.messages import ControlMessage
from repro.sim.timers import Timeout

#: Channel-id value marking link-level (not channel-level) control traffic.
HEARTBEAT_CHANNEL = -1


@dataclass(frozen=True, slots=True)
class Heartbeat(ControlMessage):
    """One link heartbeat (rides the RCC like any control message)."""

    link: "LinkId | None" = None


class HeartbeatDetector:
    """Link-failure detection for one *incoming* link of a node."""

    def __init__(self, runtime, link: LinkId) -> None:
        self.runtime = runtime
        self.link = link
        self.config = runtime.config
        timeout = (
            self.config.heartbeat_miss_threshold * self.config.heartbeat_period
            + self.config.rcc.max_delay
        )
        self._timer = Timeout(runtime.engine, timeout, self._declare_failed)
        self._declared = False

    def start(self) -> None:
        """Arm the detector (called once at simulation start)."""
        self._timer.start()

    def on_heartbeat(self) -> None:
        """A beat arrived: the link is (again) considered healthy."""
        self._declared = False
        self._timer.start()

    def _declare_failed(self) -> None:
        if self._declared:
            return
        self._declared = True
        receiver = self.link.dst
        if not self.runtime.node_up(receiver):
            return  # a dead node detects nothing
        trace = self.runtime.trace
        if trace.active:
            trace.point("hb-detect", receiver, self.runtime.engine.now,
                        link=str(self.link), cause="missed-heartbeats")
        self.runtime.daemons[receiver].on_component_failure(self.link)
        # One declaration per outage; the timer re-arms when beats resume.


class HeartbeatService:
    """Heartbeat emission and detection across a whole runtime."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.detectors: dict[LinkId, HeartbeatDetector] = {
            link: HeartbeatDetector(runtime, link)
            for link in runtime.network.topology.links()
        }

    def start(self) -> None:
        """Arm every detector and schedule the periodic beats."""
        period = self.runtime.config.heartbeat_period
        for detector in self.detectors.values():
            detector.start()
        for link in self.runtime.network.topology.links():
            # Stagger nothing: determinism beats phase-spreading here.
            self.runtime.engine.schedule(period, self._beat, link)

    def _beat(self, link: LinkId) -> None:
        runtime = self.runtime
        if runtime.node_up(link.src):
            runtime.rcc_send(link.src, link.dst, Heartbeat(
                channel_id=HEARTBEAT_CHANNEL, link=link
            ))
        runtime.engine.schedule(runtime.config.heartbeat_period,
                                self._beat, link)

    def on_heartbeat(self, link: LinkId) -> None:
        """Route a received beat to its link's detector."""
        detector = self.detectors.get(link)
        if detector is not None:
            detector.on_heartbeat()

    def on_node_failed(self, node) -> None:
        """Disarm the dead node's own detectors (a crashed node detects
        nothing); detectors *at its neighbours* stay armed — their missed
        beats are exactly how the crash is discovered."""
        for link, detector in self.detectors.items():
            if link.dst == node:
                detector._timer.cancel()

    def on_node_repaired(self, node) -> None:
        """Re-arm the repaired node's detectors for its incoming links."""
        for link, detector in self.detectors.items():
            if link.dst == node:
                detector._declared = False
                detector._timer.start()
