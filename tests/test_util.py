"""Tests for repro.util: RNG helpers, table rendering, validation."""

from __future__ import annotations

import math
import random

import pytest

from repro.util import (
    check_non_negative,
    check_positive,
    check_positive_finite,
    check_probability,
    format_percent,
    format_table,
    make_rng,
    spawn_rngs,
)


class TestMakeRng:
    def test_int_seed_is_deterministic(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_distinct_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_existing_rng_passes_through(self):
        rng = random.Random(7)
        assert make_rng(rng) is rng

    def test_none_gives_entropy_seeded_rng(self):
        assert isinstance(make_rng(None), random.Random)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_children_are_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_prefix_stability(self):
        # Adding a consumer must not disturb earlier consumers' streams.
        first_of_two = spawn_rngs(123, 2)[0].random()
        first_of_five = spawn_rngs(123, 5)[0].random()
        assert first_of_two == first_of_five

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_rngs(0, -1)

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []


class TestFormatPercent:
    def test_basic(self):
        assert format_percent(0.3025) == "30.25%"

    def test_digits(self):
        assert format_percent(0.5, digits=0) == "50%"

    def test_none_is_na(self):
        assert format_percent(None) == "N/A"


class TestFormatTable:
    def test_alignment_and_headers(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0].startswith("a  ")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_none_cells_render_na(self):
        text = format_table(["x"], [[None]])
        assert "N/A" in text

    def test_title(self):
        text = format_table(["x"], [["1"]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [["only-one"]])

    def test_non_string_cells_stringified(self):
        text = format_table(["n"], [[42]])
        assert "42" in text


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive(0.5, "x") == 0.5

    @pytest.mark.parametrize("bad", [0, -1, -0.0])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive(bad, "x")

    def test_check_positive_finite(self):
        assert check_positive_finite(0.5, "x") == 0.5

    @pytest.mark.parametrize("bad", [0, -1, math.inf, -math.inf, math.nan])
    def test_check_positive_finite_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive_finite(bad, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0, "x") == 0
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    @pytest.mark.parametrize("good", [0.0, 0.5, 1.0])
    def test_check_probability_accepts(self, good):
        assert check_probability(good, "p") == good

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2])
    def test_check_probability_rejects(self, bad):
        with pytest.raises(ValueError, match="p"):
            check_probability(bad, "p")
