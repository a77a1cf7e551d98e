"""Tests for the RCC transport layer: framing, acks, retransmission."""

from __future__ import annotations

import pytest

from repro.network import LinkId
from repro.obs import MetricsRegistry
from repro.protocol.config import ProtocolConfig, RCCParams
from repro.protocol.messages import FailureReport, RCCFrame
from repro.protocol import rcc as rcc_module
from repro.sim import EventEngine
from tests.planted import LossyLink

LINK = LinkId("a", "b")
BACK = LinkId("b", "a")


class Inbox(list):
    """A receiver that keeps what it is handed, in order."""

    receive = list.append


def make_pair(config=None, failed=None, engine=None, loss=0.0):
    """A forward/reverse RCC pair delivering into lists; the links are
    down while ``LINK`` is in ``failed`` and each loses a frame with
    probability ``loss``.  A link holds its receiver and its reverse
    weakly, so a test keeps all five."""
    engine = engine or EventEngine()
    config = config or ProtocolConfig()
    failed = failed if failed is not None else set()
    delivered_fwd, delivered_rev = Inbox(), Inbox()
    metrics = MetricsRegistry()
    forward = LossyLink(engine, LINK, config, failed, delivered_fwd, metrics)
    backward = LossyLink(engine, BACK, config, failed, delivered_rev, metrics)
    forward.reverse = backward
    backward.reverse = forward
    forward.loss = backward.loss = loss
    forward.seed, backward.seed = 1, 2
    return engine, forward, backward, delivered_fwd, delivered_rev


def report(channel_id=0):
    return FailureReport(channel_id=channel_id)


class TestDelivery:
    def test_message_delivered_after_dmax(self):
        engine, forward, backward, delivered, delivered_rev = make_pair()
        forward.send(report(7))
        engine.run()
        assert len(delivered) == 1
        assert delivered[0].channel_id == 7
        assert forward.stats.messages_delivered == 1

    def test_batching_respects_frame_size(self):
        config = ProtocolConfig(rcc=RCCParams(max_messages_per_frame=2))
        engine, forward, backward, delivered, delivered_rev = make_pair(config)
        for i in range(5):
            forward.send(report(i))
        engine.run()
        assert len(delivered) == 5
        # 5 messages at <=2/frame need at least 3 frames.
        assert forward.stats.frames_sent >= 3

    def test_rate_limit_spaces_frames(self):
        config = ProtocolConfig(
            rcc=RCCParams(max_messages_per_frame=1, max_rate=0.5)  # 2.0 apart
        )
        engine, forward, backward, delivered, delivered_rev = make_pair(config)
        forward.send(report(0))
        forward.send(report(1))
        engine.run()
        assert len(delivered) == 2
        # Second frame eligible 2.0 after the first: delivery at 1.0, 3.0.
        assert engine.now >= 3.0

    def test_in_order_delivery(self):
        engine, forward, backward, delivered, delivered_rev = make_pair()
        for i in range(10):
            forward.send(report(i))
        engine.run()
        assert [m.channel_id for m in delivered] == list(range(10))

    def test_ack_clears_pending(self):
        engine, forward, backward, delivered, delivered_rev = make_pair()
        forward.send(report())
        engine.run()
        assert forward.stats.retransmissions == 0
        assert not forward._pending  # all frames acknowledged

    def test_max_message_delay_tracked(self):
        engine, forward, backward, delivered, delivered_rev = make_pair()
        forward.send(report())
        engine.run()
        assert forward.stats.max_message_delay == pytest.approx(
            ProtocolConfig().rcc.max_delay
        )


class TestLossAndRetransmission:
    def test_lossy_link_recovers_by_retransmission(self):
        engine, forward, backward, delivered, delivered_rev = make_pair(
            loss=0.4)
        for i in range(20):
            forward.send(report(i))
        engine.run()
        assert sorted(m.channel_id for m in delivered) == list(range(20))
        assert forward.stats.retransmissions > 0

    def test_duplicates_dropped_when_ack_lost(self):
        # Loss applies to acks too; retransmitted frames must be deduped.
        engine, forward, backward, delivered, delivered_rev = make_pair(
            loss=0.5)
        for i in range(30):
            forward.send(report(i))
        engine.run()
        ids = [m.channel_id for m in delivered]
        assert len(ids) == len(set(ids))  # no duplicate delivery

    def test_dead_link_gives_up_after_budget(self, monkeypatch):
        monkeypatch.setattr(rcc_module, "MAX_RETRANSMISSIONS", 3)
        engine, forward, backward, delivered, delivered_rev = make_pair(
            failed={LINK}
        )
        forward.send(report())
        engine.run()
        assert delivered == []
        assert forward.stats.gave_up == 1
        assert forward.stats.retransmissions == 3

    def test_exhausted_frames_are_dropped_and_counted(self, monkeypatch):
        # One message per frame: each report exhausts a budget of its
        # own and is counted once.  The link concludes nothing from it:
        # nothing is delivered or left pending, and the calendar drains.
        monkeypatch.setattr(rcc_module, "MAX_RETRANSMISSIONS", 1)
        config = ProtocolConfig(rcc=RCCParams(max_messages_per_frame=1))
        engine, forward, backward, delivered, delivered_rev = make_pair(
            config, failed={LINK}
        )
        for i in range(3):
            forward.send(report(i))
        engine.run()
        assert delivered == []
        assert forward.stats.gave_up == 3
        assert not forward._pending
        assert engine.pending == 0

    def test_link_healing_mid_retry_delivers(self):
        failed = {LINK}
        engine, forward, backward, delivered, delivered_rev = make_pair(
            failed=failed)
        forward.send(report(5))
        engine.schedule(4.0, failed.discard, LINK)
        engine.run()
        assert [m.channel_id for m in delivered] == [5]

    def test_frame_lost_in_flight_when_link_dies(self, monkeypatch):
        monkeypatch.setattr(rcc_module, "MAX_RETRANSMISSIONS", 0)
        failed = set()
        engine, forward, backward, delivered, delivered_rev = make_pair(
            failed=failed)
        forward.send(report())
        # Kill the link while the frame is flying (delivery at t=1.0).
        engine.schedule(0.5, failed.add, LINK)
        engine.run()
        assert delivered == []
        assert forward.stats.frames_lost >= 1


class TestFrameSemantics:
    def test_pure_ack_frames_not_acked(self):
        engine, forward, backward, delivered, delivered_rev = make_pair()
        forward.send(report())
        engine.run()
        # The reverse link sent exactly the ack traffic; it must not itself
        # be waiting for acks (no infinite ack ping-pong).
        assert not backward._pending
        assert engine.pending == 0

    def test_frame_is_pure_ack_property(self):
        assert RCCFrame(seq=0, acks=(1,)).is_pure_ack
        assert not RCCFrame(seq=0, messages=(report(),)).is_pure_ack

    def test_acks_piggyback_on_data_frames(self):
        engine, forward, backward, delivered, delivered_rev = make_pair()
        forward.send(report(0))
        # Give the reverse direction data to carry the ack.
        engine.schedule(1.0, lambda: backward.send(report(1)))
        engine.run()
        assert forward.stats.messages_delivered == 1
        assert backward.stats.messages_delivered == 1

    def test_same_instant_messages_batch_into_one_frame(self):
        engine, forward, backward, delivered, delivered_rev = make_pair()
        for i in range(3):
            forward.send(report(i))
        engine.run()
        assert len(delivered) == 3
        # All three were enqueued before the transmission fired, so they
        # ride a single frame (Fig. 7: a frame is a *combination* of
        # control messages).
        assert forward._next_seq == 1
