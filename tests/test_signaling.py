"""Tests for establishment signalling (Section 3.4's message passes) and
the activation-vs-re-establishment latency argument."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.analysis import recovery_delay_bound
from repro.protocol.signaling import (
    HOP_DELAY,
    PROCESSING_DELAY,
    establishment_latency,
)


class TestClosedForm:
    def test_round_trip_formula(self):
        assert (HOP_DELAY, PROCESSING_DELAY) == (2.0, 1.0)
        # 4 hops: 8 transfers + 9 node-processing steps = 16 + 9 = 25.
        assert establishment_latency(4) == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            establishment_latency(0)


class TestLatencyArgument:
    def test_activation_beats_reestablishment(self):
        """The paper's core quantitative claim: backup activation restores
        service much faster than building a channel from scratch."""
        network = BCPNetwork(torus(6, 6, capacity=200.0))
        connection = network.establish(
            0, 21, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        hops = connection.primary.path.hops
        # BCP's bound on service disruption (single backup): (K-1) D_max.
        bcp_bound = recovery_delay_bound(
            max(c.path.hops for c in connection.channels), 1, d_max=1.0
        )
        # Reactive recovery = the failure report reaching the source (same
        # reporting cost) + a full establishment round trip.
        reactive = (hops - 1) * 1.0 + establishment_latency(hops)
        assert reactive > 2 * bcp_bound
