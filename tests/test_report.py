"""Tests for the one-shot reproduction report generator."""

from __future__ import annotations

import pytest

from repro.experiments.report import (
    ReportSection,
    ReproductionReport,
    generate_report,
)
from repro.network.spec import TopologySpec


class TestReproductionReport:
    def test_markdown_structure(self):
        report = ReproductionReport(config=TopologySpec(rows=4, cols=4))
        report.sections.append(ReportSection("Demo", "row | value"))
        text = report.to_markdown()
        assert text.startswith("# Reproduction report")
        assert "## Demo" in text
        assert "row | value" in text
        assert "failed to run" not in text

    def test_errors_section_rendered(self):
        report = ReproductionReport(config=TopologySpec(rows=4, cols=4))
        report.errors.append(("Broken", "ValueError: nope"))
        text = report.to_markdown()
        assert "## Sections that failed to run" in text
        assert "ValueError: nope" in text

    def test_save(self, tmp_path):
        report = ReproductionReport(config=TopologySpec(rows=4, cols=4))
        report.sections.append(ReportSection("Demo", "body"))
        target = report.save(tmp_path / "out.md")
        assert target.read_text() == report.to_markdown()


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(
            TopologySpec(family="mesh", rows=4, cols=4),
            double_node_samples=5,
            workers=1,
        )

    def test_all_sections_succeed(self, report):
        assert report.errors == []
        # The mesh cannot carry double backups: no Table 1(b).
        assert len(report.sections) == 12
        assert not any("1(b)" in section.title for section in report.sections)

    def test_sections_carry_the_tables(self, report):
        text = report.to_markdown()
        for marker in ("Table 1", "Table 2", "Table 3", "Figure 9",
                       "Figure 8", "recovery delay", "RCC sizing",
                       "Markov", "trade-offs", "ablations"):
            assert marker in text, marker
