"""The summary ``scripts/ab_e2e.py`` prints, on canned numbers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_e2e", Path(__file__).resolve().parent.parent / "scripts" / "ab_e2e.py"
)
ab_e2e = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_e2e)


class TestSummarize:
    def test_a_gap_beyond_the_parent_spread_is_a_gain(self):
        row = ab_e2e.summarize([1.0, 1.1, 0.9, 1.0, 1.05],
                               [0.8, 0.85, 0.82, 0.79, 0.81], "lower")
        assert row["parent"] == 1.0 and row["change"] == 0.81
        assert row["spread"] == pytest.approx(0.05)
        assert row["delta"] == pytest.approx(-0.19)
        assert (row["won"], row["pairs"]) == (5, 5)
        assert row["verdict"] == "better"

    def test_a_gap_inside_the_parent_spread_is_unresolved(self):
        row = ab_e2e.summarize([1.0, 1.2, 0.8, 1.1, 0.9],
                               [0.95] * 5, "lower")
        assert row["spread"] == pytest.approx(0.2)
        assert row["won"] == 3
        assert row["verdict"] == "unresolved"

    def test_higher_is_better_and_a_tie_is_unresolved(self):
        row = ab_e2e.summarize([0.9] * 10, [0.95] * 10, "higher")
        assert row["spread"] == 0.0
        assert row["won"] == 10
        assert row["verdict"] == "better"
        same = ab_e2e.summarize([1.0, 1.0], [1.0, 1.0], "higher")
        assert (same["won"], same["verdict"]) == (0, "unresolved")

    def test_a_gain_won_in_fewer_than_nine_pairs_of_ten_is_unresolved(self):
        parent = [1.0] * 10
        change = [0.8] * 8 + [1.1] * 2
        row = ab_e2e.summarize(parent, change, "lower")
        assert (row["won"], row["spread"]) == (8, 0.0)
        assert row["verdict"] == "unresolved"
        change[8] = 0.8
        assert ab_e2e.summarize(parent, change, "lower")["verdict"] == "better"

    def test_a_loss(self):
        row = ab_e2e.summarize([1.0, 1.0, 1.0], [1.3, 1.2, 0.9], "lower")
        assert row["won"] == 1
        assert row["verdict"] == "worse"

    def test_unpaired_runs_are_refused(self):
        with pytest.raises(ValueError, match="same, non-zero number"):
            ab_e2e.summarize([1.0, 2.0], [1.0], "lower")
        with pytest.raises(ValueError):
            ab_e2e.summarize([], [], "lower")

    def test_report_prints_one_line_per_metric(self):
        rows = {
            "wall_s": ab_e2e.summarize([1.0, 1.0], [0.5, 0.5], "lower"),
            "r_fast": ab_e2e.summarize([1.0, 1.0], [1.0, 1.0], "higher"),
        }
        lines = ab_e2e.report(rows).splitlines()
        assert lines[0].split() == ["metric", "parent", "change", "delta",
                                    "spread", "won", "verdict"]
        assert lines[1].split()[0] == "wall_s"
        assert lines[1].endswith("better") and "-50.0%" in lines[1]
        assert lines[2].split()[0] == "r_fast"
        assert lines[2].endswith("unresolved") and "0/2" in lines[2]
