"""Tests for the report orchestrator."""

from repro.experiments import report


class TestReportOrchestrator:
    def test_artefact_inventory_is_complete(self):
        names = [name for name, _ in report._artefacts("smoke", ("water-quality",))]
        assert names == [
            "Table I", "Fig. 5", "Fig. 6", "Table II",
            "Fig. 7", "Table III", "Fig. 8", "Fig. 9",
        ]

    def test_build_report_assembles_sections(self, monkeypatch, tmp_path):
        def fake_artefacts(scale, datasets):
            yield "Table I", lambda: "ROWS-1"
            yield "Fig. 5", lambda: "ROWS-5"

        monkeypatch.setattr(report, "_artefacts", fake_artefacts)
        output = tmp_path / "r.md"
        text = report.build_report("smoke", ("water-quality",), output)
        assert "## Table I" in text and "ROWS-1" in text
        assert "## Fig. 5" in text and "ROWS-5" in text
        assert output.read_text() == text

    def test_report_runs_one_real_artefact(self):
        """Smoke-run the cheapest artefact through the real path."""
        sections = dict(report._artefacts("mini", ("water-quality",)))
        rendered = sections["Table I"]()
        assert "yeast" in rendered

