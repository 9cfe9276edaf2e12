"""Unit tests for the experiment report harness."""

import pytest

from repro import telemetry
from repro.experiments.harness import ExperimentReport, ShapeCheck


class TestShapeCheck:
    def test_str_pass(self):
        check = ShapeCheck(claim="x", passed=True, detail="d")
        assert str(check) == "[PASS] x — d"

    def test_str_fail(self):
        check = ShapeCheck(claim="x", passed=False, detail="d")
        assert "[FAIL]" in str(check)


class TestExperimentReport:
    def make(self):
        report = ExperimentReport(experiment_id="t", title="Test")
        report.add_row(name="a", value=1.0, flag=True)
        report.add_row(name="bb", value=2.5, flag=False)
        return report

    def test_add_row_and_table(self):
        report = self.make()
        table = report.format_table()
        lines = table.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert len(lines) == 4  # header, separator, two rows

    def test_bool_rendering(self):
        table = self.make().format_table()
        assert "yes" in table and "no" in table

    def test_max_rows_elides(self):
        report = self.make()
        table = report.format_table(max_rows=1)
        assert "1 more rows" in table

    def test_zero_max_rows_renders_only_the_elision(self):
        assert self.make().format_table(max_rows=0) == "... (2 more rows)"

    def test_negative_max_rows_rejected(self):
        with pytest.raises(ValueError, match="max_rows"):
            self.make().format_table(max_rows=-1)

    def test_perf_block_reads_the_scope_registry(self):
        with telemetry.scope("s") as sc:
            telemetry.inc("scene.tracer_calls", 1)
            telemetry.inc("scene.cache.hits", 3)
            telemetry.inc("scene.cache.misses", 1)
            telemetry.inc("kernel.batches", 2)
            telemetry.inc("kernel.angles", 10)
        report = self.make()
        report.attach_telemetry(sc)
        assert report.perf == {
            "tracer_calls": 1,
            "cache_hits": 3,
            "cache_misses": 1,
            "cache_invalidations": 0,
            "kernel_batches": 2,
            "kernel_angles": 10,
            "link_sweeps": 0,
            "cache_hit_rate": 0.75,
            "mean_kernel_batch": 5.0,
        }
        assert list(report.perf)[-2:] == ["cache_hit_rate", "mean_kernel_batch"]

    def test_empty_table(self):
        report = ExperimentReport(experiment_id="t", title="T")
        assert report.format_table() == "(no rows)"

    def test_checks_tracked(self):
        report = self.make()
        report.check("good", True, "fine")
        report.check("bad", False, "oops")
        assert not report.all_checks_pass
        assert len(report.failed_checks) == 1
        assert report.failed_checks[0].claim == "bad"

    def test_all_pass_when_empty(self):
        assert self.make().all_checks_pass

    def test_format_report_sections(self):
        report = self.make()
        report.note("a note")
        report.check("claim", True, "detail")
        text = report.format_report()
        assert "=== t: Test ===" in text
        assert "note: a note" in text
        assert "shape checks vs the paper:" in text
        assert "[PASS] claim" in text

    def test_float_formatting(self):
        report = ExperimentReport(experiment_id="t", title="T")
        report.add_row(big=12345.6, small=0.0001, nan=float("nan"))
        table = report.format_table()
        assert "1.23e+04" in table
        assert "0.0001" in table
        assert "nan" in table
