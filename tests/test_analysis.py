"""Tests for the analytic models: Markov R(t), Γ bound, RCC sizing."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import BCPNetwork, FaultToleranceQoS, torus
from repro.analysis import (
    DConnectionMarkovModel,
    connection_delay_bound,
    recovery_delay_bound,
    required_rcc_frame_messages,
)
from repro.core.reliability import pr_single_backup


class TestMarkovModel:
    def test_generator_rows_sum_to_zero(self):
        model = DConnectionMarkovModel(0.02, 0.03, 0.005, repair_rate=1.0)
        assert np.allclose(np.array(model.generator).sum(axis=1), 0.0)

    def test_reliability_at_zero_is_one(self):
        model = DConnectionMarkovModel(0.02, 0.03)
        assert model.reliability(0.0) == pytest.approx(1.0)

    def test_reliability_monotone_decreasing(self):
        model = DConnectionMarkovModel(0.02, 0.03, 0.005, repair_rate=0.5)
        curve = [model.reliability(t) for t in np.linspace(0, 50, 20)]
        assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_repair_improves_reliability(self):
        slow = DConnectionMarkovModel(0.02, 0.02, repair_rate=0.0)
        fast = DConnectionMarkovModel(0.02, 0.02, repair_rate=5.0)
        assert fast.reliability(30.0) > slow.reliability(30.0)

    def test_shared_components_hurt(self):
        disjoint = DConnectionMarkovModel(0.02, 0.02, shared_rate=0.0)
        shared = DConnectionMarkovModel(0.02, 0.02, shared_rate=0.01)
        assert shared.reliability(10.0) < disjoint.reliability(10.0)

    def test_matches_combinatorial_for_small_lambda(self):
        # Section 3.1's argument: for small λ and per-unit reset, the
        # combinatorial P_r approximates R(1).
        lam = 1e-5
        c_primary, c_backup = 9, 11
        model = DConnectionMarkovModel(c_primary * lam, c_backup * lam)
        combinatorial = pr_single_backup(c_primary, c_backup, lam)
        assert model.reliability(1.0) == pytest.approx(combinatorial, abs=1e-8)

    def test_shared_rate_validation(self):
        with pytest.raises(ValueError, match="shared_rate"):
            DConnectionMarkovModel(0.01, 0.01, shared_rate=0.02)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0])
    @pytest.mark.parametrize(
        "name", ["primary_rate", "backup_rate", "shared_rate", "repair_rate"]
    )
    def test_non_finite_rate_names_the_parameter(self, name, bad):
        # inf used to pass check_positive / check_non_negative and come
        # back as a silent nan from reliability().
        rates = dict(primary_rate=0.02, backup_rate=0.03, shared_rate=0.0,
                     repair_rate=0.0)
        rates[name] = bad
        with pytest.raises(ValueError, match=name):
            DConnectionMarkovModel(**rates)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0])
    def test_non_finite_time_is_rejected(self, bad):
        model = DConnectionMarkovModel(0.02, 0.03)
        with pytest.raises(ValueError, match=r"\bt must be"):
            model.reliability(bad)
        with pytest.raises(ValueError, match=r"\bt must be"):
            model.state_probabilities(bad)

    @pytest.mark.parametrize("repair_rate", [0.0, 0.03, 1e3])
    def test_reliability_is_a_probability_for_every_finite_time(
        self, repair_rate
    ):
        model = DConnectionMarkovModel(0.02, 0.03, 0.005, repair_rate)
        times = [0.0, 5e-324, 1e-300, 1e-9, 1.0, 37.0, 1e3, 1e9, 1e18,
                 1e300, 1.7976931348623157e308]
        previous = 1.0
        for t in times:
            probabilities = np.array(model.state_probabilities(t))
            assert ((probabilities >= 0.0) & (probabilities <= 1.0)).all()
            assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)
            reliability = model.reliability(t)
            assert 0.0 <= reliability <= previous + 1e-12, (t, reliability)
            previous = reliability
        assert DConnectionMarkovModel(0.02, 0.03).reliability(1e9) == 0.0

    def test_rate_time_product_may_overflow(self):
        model = DConnectionMarkovModel(1e300, 1e300, repair_rate=1e300)
        assert model.reliability(1e300) == 0.0
        assert model.reliability(1e-320) == pytest.approx(1.0)

    def test_transition_matrix_matches_scipy_expm(self):
        """The differential oracle for ``_transition_matrix``: scipy's
        Padé ``expm`` (a dev-only dependency since the product computes
        ``exp(Qt)`` itself)."""
        linalg = pytest.importorskip("scipy.linalg")
        from repro.analysis.markov import _transition_matrix

        worst = 0.0
        for lam1, lam2, shared, mu, t in itertools.product(
            (1e-6, 1e-3, 0.02, 1.0),
            (1e-6, 0.03, 2.0),
            (0.0, 0.5, 1.0),          # λ₃ as a fraction of min(λ₁, λ₂)
            (0.0, 0.03, 1.0, 50.0, 1e3),
            (0.0, 1e-3, 1.0, 37.0, 1e3, 2.5e3),
        ):
            if (lam1 + lam2 + mu) * t > 1e4:
                continue  # the oracle itself drifts past 1e-12 out there
            generator = DConnectionMarkovModel(
                lam1, lam2, shared * min(lam1, lam2), mu
            ).generator
            ours = np.array(_transition_matrix(generator, t))
            reference = linalg.expm(np.array(generator) * t)
            worst = max(worst, abs(ours - reference).max())
            assert abs(ours.sum(axis=1) - 1.0).max() <= 1e-12
            assert ours.min() >= 0.0 and ours.max() <= 1.0
        assert worst <= 1e-12


class TestDelayBound:
    def test_paper_formula(self):
        # (K-1)D + 2(b-1)(K-1)D with K=5, b=2, D=1: 4 + 8 = 12.
        assert recovery_delay_bound(5, 2, 1.0) == pytest.approx(12.0)

    def test_single_backup_is_reporting_delay_only(self):
        assert recovery_delay_bound(5, 1, 2.0) == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            recovery_delay_bound(0, 1, 1.0)
        with pytest.raises(ValueError):
            recovery_delay_bound(5, 0, 1.0)
        with pytest.raises(ValueError):
            recovery_delay_bound(5, 1, 0.0)

    def test_connection_bound_uses_longest_channel(self):
        network = BCPNetwork(torus(4, 4))
        connection = network.establish(
            0, 5, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=1)
        )
        k = max(channel.path.hops for channel in connection.channels)
        assert connection_delay_bound(connection, 1.0) == pytest.approx(
            (k - 1) * 1.0
        )


class TestRCCSizingRule:
    def test_counts_both_directions_of_a_pair(self):
        network = BCPNetwork(torus(4, 4))
        qos = FaultToleranceQoS(num_backups=0, mux_degree=0)
        a = network.establish(0, 1, ft_qos=qos)   # uses link 0->1
        b = network.establish(1, 0, ft_qos=qos)   # uses link 1->0
        assert a.primary.path.hops == b.primary.path.hops == 1
        assert required_rcc_frame_messages(network) == 2

    def test_empty_network_needs_nothing(self):
        network = BCPNetwork(torus(4, 4))
        assert required_rcc_frame_messages(network) == 0

    def test_monotone_in_load(self):
        network = BCPNetwork(torus(4, 4))
        qos = FaultToleranceQoS(num_backups=1, mux_degree=3)
        sizes = []
        for dst in (1, 2, 3, 5):
            network.establish(0, dst, ft_qos=qos)
            sizes.append(required_rcc_frame_messages(network))
        assert sizes == sorted(sizes)
