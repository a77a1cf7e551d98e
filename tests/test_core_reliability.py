"""Tests for repro.core.reliability: the combinatorial P_r model."""

from __future__ import annotations

import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.core.overlap import OverlapPolicy
from repro.core.reliability import (
    channel_reliability,
    connection_pr,
    p_muxf_upper_bound,
    pr_multiple_backups,
    pr_single_backup,
)


class TestChannelReliability:
    def test_closed_form(self):
        assert channel_reliability(5, 0.01) == pytest.approx(0.99**5)

    def test_zero_components_always_survive(self):
        assert channel_reliability(0, 0.5) == 1.0

    def test_monotone_decreasing_in_length(self):
        values = [channel_reliability(c, 0.01) for c in range(10)]
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            channel_reliability(-1, 0.01)
        with pytest.raises(ValueError):
            channel_reliability(1, 2.0)


class TestPMuxfBound:
    def test_no_multiplexed_peers_is_zero(self):
        assert p_muxf_upper_bound([0, 0, 0], nu=1e-4) == 0.0

    def test_single_link_single_peer(self):
        nu = 1e-3
        assert p_muxf_upper_bound([1], nu) == pytest.approx(nu)

    def test_sum_over_links(self):
        nu = 1e-3
        expected = (1 - (1 - nu) ** 2) + (1 - (1 - nu) ** 3)
        assert p_muxf_upper_bound([2, 3], nu) == pytest.approx(expected)

    def test_clipped_to_one(self):
        assert p_muxf_upper_bound([10] * 100, nu=0.5) == 1.0

    def test_zero_nu_is_zero(self):
        assert p_muxf_upper_bound([5, 5], nu=0.0) == 0.0

    def test_negative_psi_rejected(self):
        with pytest.raises(ValueError):
            p_muxf_upper_bound([-1], nu=0.1)


class TestPrFormulas:
    def test_single_backup_paper_formula(self):
        lam = 1e-3
        expected = (0.999**7) + (1 - 0.999**7) * (0.999**9) * (1 - 0.01)
        assert pr_multiple_backups(7, [9], lam, [0.01]) == pytest.approx(
            expected)

    def test_single_backup_matches_multi_with_one(self):
        lam = 1e-3
        assert pr_single_backup(7, 9, lam) == pytest.approx(
            pr_multiple_backups(7, [9], lam, [0.0])
        )

    def test_no_backups_reduces_to_channel_reliability(self):
        lam = 1e-3
        assert pr_multiple_backups(7, [], lam) == pytest.approx(
            channel_reliability(7, lam)
        )

    def test_more_backups_help(self):
        lam = 1e-2
        one = pr_multiple_backups(7, [9], lam)
        two = pr_multiple_backups(7, [9, 11], lam)
        assert two > one

    def test_mux_failures_hurt(self):
        lam = 1e-2
        clean = pr_multiple_backups(7, [9], lam, [0.0])
        muxed = pr_multiple_backups(7, [9], lam, [0.3])
        assert muxed < clean

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="backups"):
            pr_multiple_backups(7, [9, 9], 1e-3, [0.0])

    def test_pr_is_probability(self):
        for muxf in (0.0, 0.5, 1.0):
            value = pr_multiple_backups(20, [25, 30], 0.05, [muxf, muxf])
            assert 0.0 <= value <= 1.0


class TestConnectionPr:
    def test_live_connection_pr(self):
        network = BCPNetwork(torus(4, 4))
        connection = network.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        value = connection_pr(connection, network.mux)
        lam = network.policy.failure_probability
        # A lone connection has no multiplexed peers: P_muxf = 0 exactly.
        expected = pr_single_backup(
            network.policy.component_count(connection.primary.path),
            network.policy.component_count(connection.backups[0].path),
            lam,
        )
        assert value == pytest.approx(expected)

    def test_backupless_connection(self):
        network = BCPNetwork(torus(4, 4))
        connection = network.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=0, mux_degree=0)
        )
        value = connection_pr(connection, network.mux)
        lam = network.policy.failure_probability
        assert value == pytest.approx(
            channel_reliability(
                network.policy.component_count(connection.primary.path), lam
            )
        )

    def test_higher_mux_degree_lowers_pr_under_contention(self):
        # Load the network so that spare sharing actually occurs, then
        # compare achieved P_r across degrees.
        def achieved(degree: int) -> float:
            network = BCPNetwork(torus(4, 4))
            values = []
            for src in range(0, 8):
                for dst in range(8, 16):
                    connection = network.establish(
                        src,
                        dst,
                        ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=degree),
                    )
                    values.append(connection_pr(connection, network.mux))
            return min(values)

        assert achieved(6) <= achieved(1)

    @pytest.mark.parametrize("failure_probability", [1e-6, 0.05])
    def test_equals_the_composed_bound_bit_for_bit(self, failure_probability):
        """``connection_pr`` folds the P_muxf bound and the multi-backup
        formula in one pass; on a loaded network with zero, one and two
        backups per connection and every degree from 0 to 6 it must
        return exactly the float the two public functions compose."""
        policy = OverlapPolicy(failure_probability=failure_probability)
        network = BCPNetwork(torus(4, 4), policy=policy)
        pairs = [(src, dst) for src in range(16) for dst in range(16)
                 if src != dst]
        for index, (src, dst) in enumerate(pairs):
            network.establish(src, dst, ft_qos=FaultToleranceQoS(
                num_backups=index % 3, mux_degree=index % 7))
        checked = 0
        for connection in network.connections():
            backups = connection.backups
            composed = pr_multiple_backups(
                policy.component_count(connection.primary.path),
                [policy.component_count(backup.path) for backup in backups],
                failure_probability,
                [p_muxf_upper_bound(list(network.mux.psi_sizes(backup).values()),
                                    policy.nu(backup.mux_degree))
                 for backup in backups],
            )
            assert connection_pr(connection, network.mux).hex() == composed.hex()
            checked += len(backups)
        assert checked > 40

    def test_rejects_a_degree_whose_threshold_is_no_probability(self):
        network = BCPNetwork(
            torus(4, 4), policy=OverlapPolicy(failure_probability=0.3)
        )
        connection = network.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        connection.backups[0].mux_degree = 4  # ν = 1.2
        with pytest.raises(ValueError, match="nu"):
            connection_pr(connection, network.mux)
