"""Unit tests for the airtime scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.scheduler import AirtimeScheduler, compare_search_strategies


class TestAirtimeScheduler:
    def test_frame_airtime_includes_guard(self):
        scheduler = AirtimeScheduler(guard_fraction=0.1)
        raw = scheduler.traffic.frame_airtime_s(scheduler.link_rate_mbps)
        assert scheduler.frame_airtime_s == pytest.approx(raw * 1.1)

    def test_zero_probes_zero_impact(self):
        impact = AirtimeScheduler().search_impact(0)
        assert impact.frames_lost == 0
        assert impact.search_time_s == 0.0

    def test_small_burst_fits_in_slack(self):
        assert AirtimeScheduler().search_impact(100).frames_lost == 0

    def test_big_search_loses_frames(self):
        scheduler = AirtimeScheduler()
        impact = scheduler.search_impact(12_221)  # the paper's joint sweep
        assert impact.frames_lost >= 3
        assert impact.stall_s > 0.0

    def test_loss_monotone_in_probes(self):
        scheduler = AirtimeScheduler()
        losses = [scheduler.search_impact(n).frames_lost for n in (0, 500, 5_000, 50_000)]
        assert losses == sorted(losses)

    def test_negative_probes_rejected(self):
        with pytest.raises(ValueError):
            AirtimeScheduler().search_impact(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            AirtimeScheduler(link_rate_mbps=0.0)
        with pytest.raises(ValueError):
            AirtimeScheduler(probe_time_s=0.0)


class TestStartOffsetModel:
    """Regression + property coverage for the start-offset accounting.

    The pre-fix ``search_impact`` assumed every search starts exactly on
    a frame-window boundary; a straddling search overlaps one more
    deadline window than the aligned count.
    """

    def test_straddling_search_overlaps_one_more_window(self):
        # Regression: fails on the pre-fix boundary-aligned accounting.
        # 1000 probes = 5 ms of search; aligned it touches one 10 ms
        # deadline window, but started late in an interval it straddles
        # into the next window too.
        scheduler = AirtimeScheduler()
        aligned = scheduler.search_impact(1_000, start_offset_s=0.0)
        worst = scheduler.search_impact(1_000)
        assert aligned.frames_at_risk == 1
        assert worst.frames_at_risk == aligned.frames_at_risk + 1
        assert worst.start_offset_s > 0.0

    def test_worst_case_never_better_than_aligned(self):
        scheduler = AirtimeScheduler()
        for probes in (0, 1, 555, 1_000, 5_000, 12_221):
            worst = scheduler.search_impact(probes)
            aligned = scheduler.search_impact(probes, start_offset_s=0.0)
            assert worst.frames_lost >= aligned.frames_lost
            assert worst.frames_at_risk >= aligned.frames_at_risk

    def test_explicit_offset_taken_modulo_interval(self):
        scheduler = AirtimeScheduler()
        interval = scheduler.traffic.frame_interval_s
        a = scheduler.search_impact(800, start_offset_s=0.004)
        b = scheduler.search_impact(800, start_offset_s=0.004 + 3 * interval)
        assert a.frames_lost == b.frames_lost
        assert a.frames_at_risk == b.frames_at_risk

    def test_bad_offset_rejected(self):
        with pytest.raises(ValueError):
            AirtimeScheduler().search_impact(10, start_offset_s=-0.001)
        with pytest.raises(ValueError):
            AirtimeScheduler().search_impact(10, start_offset_s=float("nan"))

    @settings(max_examples=150, deadline=None)
    @given(num_probes=st.integers(0, 30_000))
    def test_lost_bounded_by_at_risk_worst_case(self, num_probes):
        impact = AirtimeScheduler().search_impact(num_probes)
        assert 0 <= impact.frames_lost <= impact.frames_at_risk

    @settings(max_examples=150, deadline=None)
    @given(
        num_probes=st.integers(0, 30_000),
        offset_ms=st.floats(0.0, 30.0, allow_nan=False),
    )
    def test_lost_bounded_by_at_risk_any_offset(self, num_probes, offset_ms):
        impact = AirtimeScheduler().search_impact(
            num_probes, start_offset_s=offset_ms * 1e-3
        )
        assert 0 <= impact.frames_lost <= impact.frames_at_risk

    @settings(max_examples=60, deadline=None)
    @given(
        probes_a=st.integers(0, 20_000),
        probes_b=st.integers(0, 20_000),
    )
    def test_loss_monotone_in_probes_worst_case(self, probes_a, probes_b):
        lo, hi = sorted((probes_a, probes_b))
        scheduler = AirtimeScheduler()
        assert (
            scheduler.search_impact(lo).frames_lost
            <= scheduler.search_impact(hi).frames_lost
        )

    @settings(max_examples=60, deadline=None)
    @given(
        probes_a=st.integers(0, 20_000),
        probes_b=st.integers(0, 20_000),
        offset_ms=st.floats(0.0, 11.0, allow_nan=False),
    )
    def test_loss_monotone_in_probes_fixed_offset(
        self, probes_a, probes_b, offset_ms
    ):
        lo, hi = sorted((probes_a, probes_b))
        scheduler = AirtimeScheduler()
        offset = offset_ms * 1e-3
        assert (
            scheduler.search_impact(lo, start_offset_s=offset).frames_lost
            <= scheduler.search_impact(hi, start_offset_s=offset).frames_lost
        )

    def test_worst_case_matches_dense_offset_scan(self):
        scheduler = AirtimeScheduler()
        interval = scheduler.traffic.frame_interval_s
        for probes in (555, 1_000, 12_221):
            worst = scheduler.search_impact(probes)
            search_time = probes * scheduler.probe_time_s
            scanned = max(
                scheduler._impact_at_offset(search_time, k * interval / 4001)[1]
                for k in range(4001)
            )
            assert worst.frames_lost == scanned


class TestShareFrameWindow:
    def test_single_user_fits(self):
        impact = AirtimeScheduler().share_frame_window([6756.75])
        assert impact.frames_lost == 0
        assert impact.lost_users == ()
        assert impact.utilization < 1.0

    def test_two_max_rate_users_oversubscribe(self):
        # One max-MCS frame needs ~7.9 ms of the 10 ms deadline with
        # guard overhead: two users cannot both fit one TDD window.
        impact = AirtimeScheduler().share_frame_window([6756.75, 6756.75])
        assert impact.frames_lost == 1
        assert impact.utilization > 1.0

    def test_loss_grows_with_users(self):
        scheduler = AirtimeScheduler()
        losses = [
            scheduler.share_frame_window([6756.75] * n).frames_lost
            for n in range(1, 7)
        ]
        assert losses == sorted(losses)
        assert losses[-1] > losses[0]

    def test_probes_steal_airtime(self):
        scheduler = AirtimeScheduler()
        # Two moderate-rate users fit; a big probe burst evicts one.
        rates = [27_000.0, 27_000.0]
        assert scheduler.share_frame_window(rates).frames_lost == 0
        impact = scheduler.share_frame_window(rates, probe_counts=[1_800, 0])
        assert impact.frames_lost >= 1
        assert impact.probe_time_s == pytest.approx(1_800 * scheduler.probe_time_s)

    def test_priority_offset_rotates_equal_rate_losers(self):
        scheduler = AirtimeScheduler()
        rates = [6756.75, 6756.75]
        first = scheduler.share_frame_window(rates, priority_offset=0)
        second = scheduler.share_frame_window(rates, priority_offset=1)
        assert first.lost_users != second.lost_users
        assert first.frames_lost == second.frames_lost == 1

    def test_down_user_loses_frame(self):
        impact = AirtimeScheduler().share_frame_window([6756.75, 0.0])
        assert 1 in impact.lost_users

    def test_validation(self):
        scheduler = AirtimeScheduler()
        with pytest.raises(ValueError):
            scheduler.share_frame_window([])
        with pytest.raises(ValueError):
            scheduler.share_frame_window([1000.0], probe_counts=[1, 2])
        with pytest.raises(ValueError):
            scheduler.share_frame_window([1000.0], probe_counts=[-1])


class TestCompareStrategies:
    def test_rows(self):
        rows = compare_search_strategies({"a": 10, "b": 20_000})
        assert len(rows) == 2
        by_name = {r["strategy"]: r for r in rows}
        assert by_name["a"]["frames_lost"] <= by_name["b"]["frames_lost"]
        assert by_name["b"]["search_time_ms"] > by_name["a"]["search_time_ms"]
