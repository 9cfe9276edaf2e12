"""Unit tests for the ``python -m repro`` CLI."""

import copy

import pytest

from repro.cli import main
from repro.experiments import ALL_EXPERIMENTS


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(ALL_EXPERIMENTS)


class TestRun:
    def test_runs_fig7(self, capsys):
        assert main(["run", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "[PASS]" in out

    def test_runs_battery(self, capsys):
        assert main(["run", "sec6-battery"]) == 0
        out = capsys.readouterr().out
        assert "battery" in out.lower()

    def test_seed_accepted(self, capsys):
        assert main(["run", "fig8", "--seed", "3", "--max-rows", "2"]) == 0
        out = capsys.readouterr().out
        assert "more rows" in out

    def test_zero_max_rows_prints_only_the_row_count(self, capsys):
        assert main(["run", "fig7", "--max-rows", "0"]) == 0
        out = capsys.readouterr().out
        n_rows = len(ALL_EXPERIMENTS["fig7"]().rows)
        assert f"... ({n_rows} more rows)" in out
        assert "[PASS]" in out

    @pytest.mark.parametrize("flag", ["--max-rows", "--max-events"])
    def test_negative_count_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig7", flag, "-1"])
        assert exc.value.code == 2
        assert f"{flag}: must be >= 0, got -1" in capsys.readouterr().err

    def test_seedless_experiment_runs(self, capsys):
        # ablation-codebook is deterministic and takes no seed; the CLI
        # must not pass one (with or without --seed).
        assert main(["run", "ablation-codebook"]) == 0
        assert main(["run", "ablation-codebook", "--seed", "3"]) == 0
        assert "ablation-codebook" in capsys.readouterr().out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestPerExperimentPath:
    def test_extension_is_suffixed_on_basename(self):
        from repro.cli import _per_experiment_path

        assert _per_experiment_path("report.json", "fig9") == "report-fig9.json"

    def test_dotted_directory_is_not_mistaken_for_extension(self):
        from repro.cli import _per_experiment_path

        assert _per_experiment_path("out.d/report", "fig9") == "out.d/report-fig9"

    def test_dotted_directory_with_extension(self):
        from repro.cli import _per_experiment_path

        assert (
            _per_experiment_path("out.d/report.json", "fig9")
            == "out.d/report-fig9.json"
        )

    def test_bare_name_gets_plain_suffix(self):
        from repro.cli import _per_experiment_path

        assert _per_experiment_path("report", "fig7") == "report-fig7"


@pytest.fixture(scope="module")
def e2e_seed7_report():
    """One ``ext-e2e --seed 7`` report shared by the rendering-only flags."""
    return ALL_EXPERIMENTS["ext-e2e"](seed=7)


@pytest.fixture
def cached_e2e(monkeypatch, e2e_seed7_report):
    """Serve ``run ext-e2e`` from the shared report.

    ``--events``, ``--max-events`` and ``--slo`` only change how the
    report renders, so they need not re-run the session.  The CLI sets
    ``max_events`` on the report it gets, hence the deep copy.
    """

    def run(seed):
        assert seed == 7
        return copy.deepcopy(e2e_seed7_report)

    monkeypatch.setitem(ALL_EXPERIMENTS, "ext-e2e", run)


class TestTelemetryFlags:
    def test_metrics_and_trace_outputs(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        assert (
            main(
                [
                    "run",
                    "fig8",
                    "--seed",
                    "3",
                    "--metrics",
                    str(metrics_path),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["kernel.batches"] > 0
        assert metrics["counters"]["angle_search.probes"] > 0
        assert metrics["histograms"]["angle_search.sweep_ms"]["count"] > 0
        trace = json.loads(trace_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        names = [e["name"] for e in trace["traceEvents"]]
        assert "fig8" in names
        assert all(e["ph"] == "X" for e in trace["traceEvents"])

    def test_events_flag_prints_full_log(self, capsys, cached_e2e):
        assert main(["run", "ext-e2e", "--seed", "7", "--events"]) == 0
        out = capsys.readouterr().out
        assert "control events" in out
        assert "more events" not in out

    def test_max_events_flag_truncates_log(self, capsys, cached_e2e):
        assert main(["run", "ext-e2e", "--seed", "7", "--max-events", "2"]) == 0
        out = capsys.readouterr().out
        assert "more events" in out
        # Exactly two event lines render before the truncation marker.
        section = out.split("control events")[1]
        event_lines = [
            line
            for line in section.splitlines()
            if line.startswith("  [t=")
        ]
        assert len(event_lines) == 2

    def test_slo_flag_shows_window_breakdown(self, capsys, cached_e2e):
        assert main(["run", "ext-e2e", "--seed", "7", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "SLOs (" in out
        assert "window " in out  # per-window detail lines

    def test_timeseries_flag_writes_points(self, tmp_path, capsys):
        import json

        ts_path = tmp_path / "series.json"
        assert main(
            ["run", "ext-e2e", "--seed", "7", "--timeseries", str(ts_path)]
        ) == 0
        series = json.loads(ts_path.read_text())
        assert "link.snr_db" in series
        assert series["link.snr_db"]["count"] > 0
        assert series["link.snr_db"]["points"]


class _FakeClock:
    """Stands in for ``time`` in :mod:`repro.bench.runner`.

    Every ``perf_counter`` call advances by ``step_s``, so each timed
    round measures exactly one step.  Powers of two keep the float
    arithmetic exact.
    """

    def __init__(self, step_s):
        self.step_s = step_s
        self.now = 0.0

    def perf_counter(self):
        self.now += self.step_s
        return self.now


def _bench_args(directory):
    return ["bench", "--quick", "--rounds", "1", "--only", "fig7", "--dir", str(directory)]


class TestBenchCommand:
    def test_bench_writes_and_diffs_trajectory(self, tmp_path, capsys, monkeypatch):
        # A fake clock makes every round take exactly the same time, so
        # the self-diff is 0% whatever the host is doing.
        monkeypatch.setattr("repro.bench.runner.time", _FakeClock(2.0**-6))
        args = _bench_args(tmp_path)
        assert main(args) == 0
        assert (tmp_path / "BENCH_0.json").exists()
        capsys.readouterr()
        # Second run diffs against the first; same machine and mode,
        # so the self-comparison must not flag a regression.
        assert main(args + ["--check"]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "BENCH_1.json").exists()
        assert "bench diff: entry 0 -> 1" in out
        assert "REGRESSION" not in out

    def test_check_fails_on_a_2x_slowdown(self, tmp_path, capsys, monkeypatch):
        args = _bench_args(tmp_path)
        monkeypatch.setattr("repro.bench.runner.time", _FakeClock(2.0**-6))
        assert main(args) == 0
        capsys.readouterr()
        monkeypatch.setattr("repro.bench.runner.time", _FakeClock(2.0**-5))
        assert main(args + ["--check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "+100.0%" in out

    def test_bench_entry_is_schema_valid(self, tmp_path):
        import json

        from repro.bench.trajectory import validate_entry

        assert main(
            ["bench", "--quick", "--rounds", "1", "--only", "fig7", "--dir", str(tmp_path)]
        ) == 0
        entry = validate_entry(
            json.loads((tmp_path / "BENCH_0.json").read_text())
        )
        assert entry["quick"] is True
        assert "fig7-leakage" in entry["benchmarks"]

    def test_bench_unknown_only_exits_2(self, tmp_path, capsys):
        assert main(["bench", "--only", "nonsense", "--dir", str(tmp_path)]) == 2
        assert "no benchmark targets" in capsys.readouterr().err
