"""Unit tests for hysteresis rate adaptation."""

import pytest

from repro import telemetry
from repro.rate.adaptation import RateAdapter, outage_fraction
from repro.rate.mcs import Mcs, PhyType, mcs_by_index


class TestRateAdapter:
    def test_initial_state_idle(self):
        adapter = RateAdapter()
        assert adapter.current_rate_mbps == 0.0

    def test_first_observation_selects(self):
        adapter = RateAdapter()
        adapter.observe(25.0)
        assert adapter.current_rate_mbps > 0.0

    def test_steps_down_immediately(self):
        adapter = RateAdapter()
        adapter.observe(30.0)
        high = adapter.current_rate_mbps
        adapter.observe(5.0)
        assert adapter.current_rate_mbps < high

    def test_steps_up_only_after_dwell(self):
        adapter = RateAdapter(up_dwell=3)
        adapter.observe(10.0)
        low = adapter.current_rate_mbps
        adapter.observe(30.0)
        assert adapter.current_rate_mbps == low  # 1 observation
        adapter.observe(30.0)
        assert adapter.current_rate_mbps == low  # 2 observations
        adapter.observe(30.0)
        assert adapter.current_rate_mbps > low  # dwell satisfied

    def test_dwell_resets_on_dip(self):
        adapter = RateAdapter(up_dwell=2)
        adapter.observe(10.0)
        low = adapter.current_rate_mbps
        adapter.observe(30.0)
        adapter.observe(10.0)
        adapter.observe(30.0)
        assert adapter.current_rate_mbps == low

    def test_outage_drops_everything(self):
        adapter = RateAdapter()
        adapter.observe(25.0)
        assert adapter.observe(-30.0) is None
        assert adapter.current_rate_mbps == 0.0

    def test_margin_respected(self):
        adapter = RateAdapter(margin_db=3.0)
        assert adapter.observe(20.0).snr_threshold_db <= 17.0

    def test_run_series(self):
        adapter = RateAdapter()
        rates = adapter.run([25.0, 25.0, 3.0, 25.0])
        assert len(rates) == 4
        assert rates[2] < rates[1]

    def test_reset(self):
        adapter = RateAdapter()
        adapter.observe(25.0)
        adapter.reset()
        assert adapter.current_rate_mbps == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateAdapter(up_dwell=0)
        with pytest.raises(ValueError):
            RateAdapter(margin_db=-1.0)


class TestEqualRateSidestep:
    """An equal-rate MCS on a different PHY is adopted after the dwell.

    The standard table never duplicates a rate, so the conflict is set
    up with a synthetic current MCS mirroring SC MCS 12's 4620 Mbps.
    Regression for the dead duplicated branch in ``observe``: the
    pre-fix code reset the dwell counter on equal-rate targets and kept
    the stale MCS forever.
    """

    #: An SNR whose best table entry (2 dB margin applied) is SC MCS 12:
    #: effective 13.5 dB clears its 13 dB threshold but not OFDM MCS
    #: 22's 15 dB.
    SNR_DB = 15.5

    def _adapter_on_synthetic_twin(self, up_dwell=3):
        adapter = RateAdapter(up_dwell=up_dwell)
        adapter._current = Mcs(99, PhyType.OFDM, "16-QAM", "3/4", 4620.0, -53.0)
        return adapter

    def test_equal_rate_phy_adopted_after_dwell(self):
        adapter = self._adapter_on_synthetic_twin(up_dwell=3)
        adapter.observe(self.SNR_DB)
        assert adapter.observe(self.SNR_DB).index == 99  # dwell not yet served
        assert adapter.observe(self.SNR_DB) == mcs_by_index(12)

    def test_equal_rate_switch_keeps_hysteresis(self):
        adapter = self._adapter_on_synthetic_twin(up_dwell=4)
        held = [adapter.observe(self.SNR_DB) for _ in range(3)]
        assert held[-1].index == 99

    def test_equal_rate_switch_emits_no_rate_change(self):
        adapter = self._adapter_on_synthetic_twin(up_dwell=1)
        with telemetry.scope("t") as sc:
            assert adapter.observe(self.SNR_DB, t_s=0.0) == mcs_by_index(12)
        assert not [
            e for e in sc.events if e.kind is telemetry.EventKind.RATE_CHANGE
        ]

    def test_same_mcs_resets_dwell(self):
        # Observing the currently-held MCS must keep resetting the
        # counter (the collapsed conditional's final branch).
        adapter = RateAdapter(up_dwell=2)
        assert adapter.observe(self.SNR_DB) == mcs_by_index(12)
        adapter.observe(30.0)  # 1 toward the dwell
        adapter.observe(self.SNR_DB)  # back to the held MCS: reset
        assert adapter.observe(30.0) == mcs_by_index(12)  # 1 again, not 2


class TestSeriesPrefix:
    def test_prefixed_series_names(self):
        adapter = RateAdapter(series_prefix="user3.")
        with telemetry.scope("t") as sc:
            adapter.observe(25.0, t_s=0.0)
        assert sc.registry.get_series("user3.rate.mbps") is not None
        assert sc.registry.get_series("user3.rate.snr_db") is not None
        assert sc.registry.get_series("rate.mbps") is None

    def test_default_prefix_unchanged(self):
        adapter = RateAdapter()
        with telemetry.scope("t") as sc:
            adapter.observe(25.0, t_s=0.0)
        assert sc.registry.get_series("rate.mbps") is not None


class TestOutageFraction:
    def test_always_good(self):
        assert outage_fraction([30.0] * 10, 4000.0) == 0.0

    def test_always_bad(self):
        assert outage_fraction([0.0] * 10, 4000.0) == 1.0

    def test_mixed(self):
        series = [30.0] * 5 + [0.0] * 5
        assert outage_fraction(series, 4000.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            outage_fraction([], 4000.0)
        with pytest.raises(ValueError):
            outage_fraction([10.0], 0.0)


class TestRunTimeBase:
    """Trace-driven runs must stamp rate_change events, not drop them
    to ``t_s=None``."""

    def _rate_events(self, sc):
        return [
            e for e in sc.events if e.kind is telemetry.EventKind.RATE_CHANGE
        ]

    def test_run_without_time_base_stamps_none(self):
        adapter = RateAdapter()
        with telemetry.scope("t") as sc:
            adapter.run([25.0, 3.0])
        events = self._rate_events(sc)
        assert events and all(e.t_s is None for e in events)

    def test_run_with_explicit_times(self):
        adapter = RateAdapter()
        with telemetry.scope("t") as sc:
            adapter.run([25.0, 3.0, 25.0], times_s=[0.0, 0.5, 1.0])
        events = self._rate_events(sc)
        assert events
        assert all(e.t_s is not None for e in events)
        assert events[0].t_s == pytest.approx(0.0)
        assert events[1].t_s == pytest.approx(0.5)

    def test_run_with_uniform_step(self):
        adapter = RateAdapter()
        with telemetry.scope("t") as sc:
            adapter.run([25.0, 3.0], t0_s=10.0, dt_s=0.1)
        events = self._rate_events(sc)
        assert [e.t_s for e in events] == pytest.approx([10.0, 10.1])

    def test_time_base_validation(self):
        adapter = RateAdapter()
        with pytest.raises(ValueError):
            adapter.run([25.0, 3.0], times_s=[0.0])  # length mismatch
        with pytest.raises(ValueError):
            adapter.run([25.0], times_s=[0.0], dt_s=0.1)  # both bases

    def test_outage_fraction_threads_time_base(self):
        with telemetry.scope("t") as sc:
            outage_fraction([30.0] * 3 + [0.0] * 3, 4000.0, dt_s=0.25)
        events = self._rate_events(sc)
        assert events and all(e.t_s is not None for e in events)
