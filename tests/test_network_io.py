"""Tests for topology import (edge lists)."""

from __future__ import annotations

import pytest

from repro.network import LinkId, from_edge_list


class TestEdgeListRoundTrip:
    def test_simplex_marker(self):
        rebuilt = from_edge_list("a b 5 simplex\n")
        assert rebuilt.has_link("a", "b")
        assert not rebuilt.has_link("b", "a")

    def test_asymmetric_capacities_stay_simplex(self):
        rebuilt = from_edge_list("0 1 5 simplex\n1 0 7 simplex\n")
        assert rebuilt.capacity(LinkId(0, 1)) == 5.0
        assert rebuilt.capacity(LinkId(1, 0)) == 7.0

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n0 1 10  # trailing comment\n"
        rebuilt = from_edge_list(text)
        assert rebuilt.num_links == 2

    def test_string_labels_preserved(self):
        rebuilt = from_edge_list("nyc lon 100\n")
        assert rebuilt.has_link("nyc", "lon")

    @pytest.mark.parametrize("bad", [
        "0 1\n",                # missing capacity
        "0 1 x\n",              # bad capacity
        "0 1 10 bidirectional\n",  # unknown marker
    ])
    def test_malformed_lines_rejected(self, bad):
        with pytest.raises(ValueError):
            from_edge_list(bad)
