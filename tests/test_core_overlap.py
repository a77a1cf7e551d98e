"""Tests for repro.core.overlap: S(B_i, B_j) and the multiplexability test."""

from __future__ import annotations

import pytest

from repro.core.overlap import (
    DEFAULT_FAILURE_PROBABILITY,
    OverlapPolicy,
    simultaneous_activation_probability,
)
from repro.routing import Path


class TestExactFormula:
    def test_zero_lambda_gives_zero(self):
        assert simultaneous_activation_probability(5, 5, 2, 0.0) == 0.0

    def test_full_overlap_equals_single_channel_failure(self):
        # If both primaries are identical (sc = c), S = P(that channel fails).
        lam = 0.01
        c = 5
        expected = 1.0 - (1.0 - lam) ** c
        assert simultaneous_activation_probability(c, c, c, lam) == pytest.approx(
            expected
        )

    def test_disjoint_primaries_product_form(self):
        # sc = 0: S = P(M_i fails) * P(M_j fails) exactly.
        lam = 0.01
        p_i = 1.0 - (1.0 - lam) ** 4
        p_j = 1.0 - (1.0 - lam) ** 6
        assert simultaneous_activation_probability(4, 6, 0, lam) == pytest.approx(
            p_i * p_j
        )

    def test_monotone_in_overlap(self):
        lam = 1e-3
        values = [
            simultaneous_activation_probability(10, 10, sc, lam)
            for sc in range(0, 11)
        ]
        assert values == sorted(values)

    def test_small_lambda_approximation(self):
        # Section 3.4: S ≈ sc·λ when λ is small.
        lam = 1e-6
        for sc in (1, 3, 5):
            s = simultaneous_activation_probability(8, 9, sc, lam)
            assert s == pytest.approx(sc * lam, rel=1e-3)

    def test_inconsistent_shared_count_rejected(self):
        with pytest.raises(ValueError):
            simultaneous_activation_probability(3, 3, 4, 0.01)

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            simultaneous_activation_probability(3, 3, 1, 1.5)


class TestOverlapPolicy:
    def test_default_lambda(self):
        assert OverlapPolicy().failure_probability == DEFAULT_FAILURE_PROBABILITY

    def test_nu_scaling(self):
        policy = OverlapPolicy(failure_probability=1e-4)
        assert policy.nu(3) == pytest.approx(3e-4)

    def test_nu_rejects_negative(self):
        with pytest.raises(ValueError):
            OverlapPolicy().nu(-1)

    def test_component_counting_with_endpoints(self):
        policy = OverlapPolicy(count_endpoints=True)
        assert policy.component_count(Path([1, 2, 3])) == 5

    def test_component_counting_without_endpoints(self):
        policy = OverlapPolicy(count_endpoints=False)
        assert policy.component_count(Path([1, 2, 3])) == 3

    def test_shared_count_respects_endpoint_flag(self):
        a = Path([1, 2])
        b = Path([1, 3])
        assert OverlapPolicy(count_endpoints=True).shared_count(a, b) == 1
        assert OverlapPolicy(count_endpoints=False).shared_count(a, b) == 0


class TestMultiplexabilityTest:
    def test_degree_zero_never_multiplexes(self):
        policy = OverlapPolicy()
        assert not policy.multiplexable_counts(5, 5, 0, mux_degree=0)

    def test_integer_mode_is_sc_threshold(self):
        policy = OverlapPolicy(exact=False)
        assert policy.multiplexable_counts(9, 9, 2, mux_degree=3)
        assert not policy.multiplexable_counts(9, 9, 3, mux_degree=3)

    def test_exact_mode_matches_integer_off_the_boundary(self):
        integer = OverlapPolicy(exact=False)
        exact = OverlapPolicy(exact=True, failure_probability=1e-7)
        for sc in range(0, 8):
            for degree in (1, 3, 5, 6):
                if sc == degree:
                    continue  # boundary case, see test below
                assert exact.multiplexable_counts(
                    9, 11, sc, degree
                ) == integer.multiplexable_counts(9, 11, sc, degree), (sc, degree)

    def test_exact_mode_boundary_decided_by_second_order_terms(self):
        # At sc == α, S = sc·λ - D·λ² + O(λ³) with
        # D = C(c_i,2) + C(c_j,2) - C(c_i+c_j-sc,2); the exact comparison
        # S < α·λ therefore depends on the primaries' lengths, while the
        # integer shortcut always rejects.  Two concrete cases:
        exact = OverlapPolicy(exact=True, failure_probability=1e-7)
        integer = OverlapPolicy(exact=False)
        # Identical primaries (c_i = c_j = sc): D = C(c,2) > 0, S < sc·λ.
        assert exact.multiplexable_counts(5, 5, 5, 5)
        assert not integer.multiplexable_counts(5, 5, 5, 5)
        # Long primaries with small overlap: D < 0, S > sc·λ — both reject.
        assert not exact.multiplexable_counts(9, 11, 3, 3)
        assert not integer.multiplexable_counts(9, 11, 3, 3)

    def test_path_level_api(self):
        policy = OverlapPolicy()
        a = Path([1, 2, 3])        # disjoint from b
        b = Path([4, 5, 6])
        c = Path([0, 2, 7])        # shares node 2 with a
        assert policy.multiplexable(a, b, mux_degree=1)
        assert not policy.multiplexable(a, c, mux_degree=1)
        assert policy.multiplexable(a, c, mux_degree=2)

    def test_mux1_semantics_shared_link(self):
        # Sharing a link means sc >= 3: mux=3 must NOT multiplex them.
        policy = OverlapPolicy()
        a = Path([1, 2, 3])
        b = Path([0, 2, 3, 4])  # shares link 2->3
        assert not policy.multiplexable(a, b, mux_degree=3)
        assert policy.multiplexable(a, b, mux_degree=4)
