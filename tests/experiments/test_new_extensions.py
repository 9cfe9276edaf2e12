"""Integration tests for the control-plane and prediction extensions."""

import pytest

from repro.experiments import (
    run_ablation_deployment,
    run_apartment,
    run_latency_budget,
    run_prediction_horizon,
    run_search_airtime,
)


def assert_all_checks_pass(report):
    failed = report.failed_checks
    assert not failed, "failed shape checks:\n" + "\n".join(str(c) for c in failed)


class TestSearchAirtime:
    @pytest.fixture(scope="class")
    def report(self):
        return run_search_airtime(seed=11)

    def test_all_shape_checks_pass(self, report):
        assert_all_checks_pass(report)

    def test_strategy_ordering(self, report):
        by_name = {row["strategy"]: row for row in report.rows}
        assert (
            by_name["pose-assisted update"]["frames_lost"]
            <= by_name["hierarchical"]["frames_lost"]
            <= by_name["exhaustive-1deg (paper sec. 4.1)"]["frames_lost"]
        )

    def test_installation_note_present(self, report):
        assert any("BLE-coordinated installation" in n for n in report.notes)


class TestPredictionHorizon:
    @pytest.fixture(scope="class")
    def report(self):
        return run_prediction_horizon(duration_s=12.0, seed=6)

    def test_all_shape_checks_pass(self, report):
        assert_all_checks_pass(report)

    def test_error_grows_with_horizon(self, report):
        holds = [row["hold_p95_deg"] for row in report.rows]
        assert holds == sorted(holds)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_prediction_horizon(duration_s=0.0)


class TestAblationDeployment:
    @pytest.fixture(scope="class")
    def report(self):
        return run_ablation_deployment(num_poses=5, seed=8)

    def test_all_shape_checks_pass(self, report):
        assert_all_checks_pass(report)

    def test_five_variants(self, report):
        assert len(report.rows) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            run_ablation_deployment(num_poses=0)


class TestAblationCodebook:
    def test_all_shape_checks_pass(self):
        from repro.experiments import run_ablation_codebook

        report = run_ablation_codebook()
        failed = report.failed_checks
        assert not failed, "\n".join(str(c) for c in failed)

    def test_validation(self):
        from repro.experiments import run_ablation_codebook

        with pytest.raises(ValueError):
            run_ablation_codebook(max_scalloping_db=0.0)


class TestApartment:
    def test_all_shape_checks_pass(self):
        assert_all_checks_pass(run_apartment(seed=2016))


class TestLatencyBudget:
    def test_all_shape_checks_pass(self):
        assert_all_checks_pass(run_latency_budget(frames_per_point=400, seed=2016))

    def test_validation(self):
        with pytest.raises(ValueError):
            run_latency_budget(frames_per_point=5)
