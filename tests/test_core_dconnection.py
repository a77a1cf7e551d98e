"""Tests for DConnection objects, heterogeneous S, and protocol config."""

from __future__ import annotations

import math

import pytest

from repro import (
    ChannelRole,
    DConnection,
    DelayQoS,
    FaultToleranceQoS,
    TrafficSpec,
)
from repro.channels.channel import Channel
from repro.protocol.config import (
    SWITCHOVER_RETRY_WINDOW,
    ProtocolConfig,
    RCCParams,
)
from repro.routing import Path


def channel(cid, role, serial, nodes):
    return Channel(
        channel_id=cid,
        connection_id=0,
        role=role,
        serial=serial,
        path=Path(nodes),
        traffic=TrafficSpec(),
        mux_degree=3,
    )


def connection(num_backups=2):
    primary = channel(0, ChannelRole.PRIMARY, 0, (1, 2, 3))
    backups = [
        channel(i + 1, ChannelRole.BACKUP, i + 1, (1, 10 + 3 * i, 3))
        for i in range(num_backups)
    ]
    return DConnection(
        connection_id=0,
        source=1,
        destination=3,
        traffic=TrafficSpec(),
        delay_qos=DelayQoS(),
        ft_qos=FaultToleranceQoS(num_backups=num_backups, mux_degree=3),
        primary=primary,
        backups=backups,
    )


class TestDConnection:
    def test_channels_order(self):
        conn = connection()
        serials = [c.serial for c in conn.channels]
        assert serials == [0, 1, 2]

    def test_backups_in_serial_order(self):
        conn = connection()
        conn.backups.reverse()  # scrambled storage order
        assert [b.serial for b in conn.backups_in_serial_order()] == [1, 2]

    def test_wrong_roles_rejected(self):
        backup = channel(1, ChannelRole.BACKUP, 1, (1, 10, 3))
        with pytest.raises(ValueError, match="PRIMARY"):
            DConnection(
                connection_id=0, source=1, destination=3,
                traffic=TrafficSpec(), delay_qos=DelayQoS(),
                ft_qos=FaultToleranceQoS(), primary=backup,
            )

    def test_mux_degree_reflects_qos(self):
        assert connection().mux_degree == 3


class TestProtocolConfig:
    def test_defaults_sane(self):
        config = ProtocolConfig()
        assert config.rcc.min_interval == pytest.approx(0.1)
        assert config.ack_timeout == pytest.approx(2.5)
        # One backup's handshake: the first wait and two backed-off resends.
        assert SWITCHOVER_RETRY_WINDOW == pytest.approx(12.0 + 24.0 + 48.0)

    def test_rcc_validation(self):
        with pytest.raises(ValueError):
            RCCParams(max_messages_per_frame=0)
        with pytest.raises(ValueError):
            RCCParams(max_rate=0.0)
        with pytest.raises(ValueError):
            RCCParams(max_delay=-1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(rejoin_timeout=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig(activation_delay_per_degree=-0.1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_timer_durations_must_be_finite(self, bad):
        # Every rejoin timer is scheduled ``rejoin_timeout`` ahead, every
        # frame ``max_delay`` ahead and an activation ν times the
        # per-degree delay ahead: a value no event could be put at fails
        # here, not when the first such event is scheduled mid-run.
        with pytest.raises(ValueError):
            ProtocolConfig(rejoin_timeout=bad)
        with pytest.raises(ValueError):
            RCCParams(max_delay=bad)
        with pytest.raises(ValueError):
            ProtocolConfig(activation_delay_per_degree=bad)

    def test_an_unbounded_rate_spaces_frames_by_nothing(self):
        assert RCCParams(max_rate=math.inf).min_interval == 0.0
