"""Unit tests for the battery/power model (paper section 6)."""

import pytest

from repro.vr.power import ANKER_ASTRO_5200, BatteryPack, HeadsetPowerModel


class TestBatteryPack:
    def test_paper_pack(self):
        assert ANKER_ASTRO_5200.capacity_mah == 5200.0

    def test_usable_capacity_derated(self):
        assert ANKER_ASTRO_5200.usable_capacity_mah < 5200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BatteryPack(capacity_mah=0.0)
        with pytest.raises(ValueError):
            BatteryPack(capacity_mah=100.0, usable_fraction=1.5)


class TestHeadsetPowerModel:
    def test_max_draw_runtime(self):
        # At the full 1500 mA the same pack gives ~3.3 h.
        assert HeadsetPowerModel().runtime_hours(ANKER_ASTRO_5200) == pytest.approx(
            3.29, abs=0.1
        )

    def test_receiver_draw_reduces_runtime(self):
        base = HeadsetPowerModel()
        with_rx = HeadsetPowerModel(mmwave_rx_current_ma=300.0)
        assert with_rx.runtime_hours(ANKER_ASTRO_5200) < base.runtime_hours(
            ANKER_ASTRO_5200
        )

    def test_duty_cycle_extends_runtime(self):
        full = HeadsetPowerModel(duty_cycle=1.0)
        partial = HeadsetPowerModel(duty_cycle=0.5)
        assert partial.runtime_hours(ANKER_ASTRO_5200) == pytest.approx(
            2.0 * full.runtime_hours(ANKER_ASTRO_5200)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HeadsetPowerModel(headset_current_ma=0.0)
        with pytest.raises(ValueError):
            HeadsetPowerModel(mmwave_rx_current_ma=-1.0)
        with pytest.raises(ValueError):
            HeadsetPowerModel(duty_cycle=0.0)
