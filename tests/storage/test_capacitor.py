"""Tests for the storage capacitor model."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelParameterError, OperatingRangeError
from repro.storage.capacitor import Capacitor
from repro.units import micro_amps


class TestConstruction:
    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ModelParameterError):
            Capacitor(0.0)

    def test_rejects_negative_initial_voltage(self):
        with pytest.raises(ModelParameterError):
            Capacitor(1e-6, initial_voltage_v=-0.1)

    def test_rejects_negative_esr(self):
        with pytest.raises(ModelParameterError):
            Capacitor(1e-6, esr_ohm=-1.0)

    def test_rejects_initial_above_rating(self):
        with pytest.raises(ModelParameterError):
            Capacitor(1e-6, initial_voltage_v=6.0, max_voltage_v=5.0)


class TestStateBookkeeping:
    def test_energy_quadratic(self):
        cap = Capacitor(100e-6, initial_voltage_v=2.0)
        assert cap.energy_j == pytest.approx(0.5 * 100e-6 * 4.0)

    def test_charge_linear(self):
        cap = Capacitor(100e-6, initial_voltage_v=1.5)
        assert cap.charge_c == pytest.approx(150e-6)

    def test_terminal_voltage_with_esr(self):
        cap = Capacitor(100e-6, initial_voltage_v=1.0, esr_ohm=2.0)
        assert cap.terminal_voltage(10e-3) == pytest.approx(0.98)

    def test_energy_between(self):
        cap = Capacitor(100e-6)
        assert cap.energy_between(1.2, 0.6) == pytest.approx(
            0.5 * 100e-6 * (1.44 - 0.36)
        )

    def test_energy_between_negative_when_charging(self):
        cap = Capacitor(100e-6)
        assert cap.energy_between(0.5, 1.0) < 0.0


class TestIntegration:
    def test_apply_current_charges(self):
        cap = Capacitor(100e-6, initial_voltage_v=1.0)
        cap.apply_current(1e-3, 0.1)  # 1 mA for 100 ms -> +1 V
        assert cap.voltage_v == pytest.approx(2.0)

    def test_apply_current_clamps_at_zero(self):
        cap = Capacitor(100e-6, initial_voltage_v=0.1)
        cap.apply_current(-1.0, 1.0)
        assert cap.voltage_v == 0.0

    def test_apply_current_clamps_at_rating(self):
        cap = Capacitor(100e-6, initial_voltage_v=4.9, max_voltage_v=5.0)
        cap.apply_current(1.0, 1.0)
        assert cap.voltage_v == 5.0

    def test_apply_current_rejects_negative_dt(self):
        with pytest.raises(OperatingRangeError):
            Capacitor(1e-6).apply_current(1e-3, -1.0)

    def test_apply_power_exact_energy(self):
        cap = Capacitor(100e-6, initial_voltage_v=1.0)
        before = cap.energy_j
        cap.apply_power(1e-3, 0.05)
        assert cap.energy_j - before == pytest.approx(50e-6)

    def test_apply_power_discharge_to_empty(self):
        cap = Capacitor(100e-6, initial_voltage_v=0.5)
        cap.apply_power(-1.0, 1.0)
        assert cap.voltage_v == 0.0

    @given(st.floats(-5e-3, 5e-3), st.floats(0.0, 0.01))
    @settings(max_examples=50, deadline=None)
    def test_voltage_always_in_bounds(self, power, dt):
        cap = Capacitor(47e-6, initial_voltage_v=1.0, max_voltage_v=3.0)
        cap.apply_power(power, dt)
        assert 0.0 <= cap.voltage_v <= 3.0


def _bits(value):
    return struct.pack("<d", value)


class TestNonFiniteIntegration:
    """The node update is the clamped Euler step
    ``min(max(v + i*dt/C, 0), rating)`` to the bit, non-finite and
    signed-zero inputs included: the engine's non-finite guard relies
    on a NaN reaching the stored voltage."""

    CURRENTS = (
        0.0, -0.0, 1e-3, -1e-3, 10.0, -10.0,
        math.inf, -math.inf, math.nan,
    )

    @pytest.mark.parametrize("current", CURRENTS)
    @pytest.mark.parametrize("initial", [0.0, -0.0, 1.0, 5.0])
    def test_matches_clamped_euler_step(self, current, initial):
        cap = Capacitor(1e-3, initial_voltage_v=initial, max_voltage_v=5.0)
        expected = min(max(initial + current * 1e-3 / 1e-3, 0.0), 5.0)
        returned = cap.apply_current(current, 1e-3)
        assert _bits(returned) == _bits(expected)
        assert _bits(cap.voltage_v) == _bits(returned)

    def test_returns_the_stored_voltage(self):
        cap = Capacitor(47e-6, initial_voltage_v=1.2, leakage_current_a=micro_amps(1))
        for current in (2e-3, -5e-3, 0.0, -1.0, 1.0):
            returned = cap.apply_current(current, 10e-6)
            assert _bits(returned) == _bits(cap.voltage_v)

    def test_nan_current_propagates(self):
        cap = Capacitor(47e-6, initial_voltage_v=1.2)
        assert math.isnan(cap.apply_current(math.nan, 10e-6))
        assert math.isnan(cap.voltage_v)

    def test_negative_zero_is_kept(self):
        cap = Capacitor(47e-6, initial_voltage_v=-0.0)
        assert math.copysign(1.0, cap.apply_current(-0.0, 10e-6)) == -1.0


class TestDischargeTime:
    def test_matches_equation_six(self):
        """t = C (V1^2 - V2^2) / (2 P) -- the paper's timing relation."""
        cap = Capacitor(47e-6)
        t = cap.discharge_time(1.05, 0.95, 10e-3)
        assert t == pytest.approx(47e-6 * (1.05**2 - 0.95**2) / (2 * 10e-3))

    def test_round_trip_with_integration(self):
        """Integrating the predicted time lands on the target voltage."""
        cap = Capacitor(47e-6, initial_voltage_v=1.05)
        power = 5e-3
        t = cap.discharge_time(1.05, 0.95, power)
        steps = 1000
        for _ in range(steps):
            cap.apply_power(-power, t / steps)
        assert cap.voltage_v == pytest.approx(0.95, abs=1e-6)

    def test_rejects_rising_interval(self):
        with pytest.raises(OperatingRangeError):
            Capacitor(47e-6).discharge_time(0.9, 1.0, 1e-3)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(OperatingRangeError):
            Capacitor(47e-6).discharge_time(1.0, 0.9, 0.0)


class TestChargeAndCopy:
    def test_charge_sets_voltage(self):
        cap = Capacitor(1e-6)
        cap.charge(2.5)
        assert cap.voltage_v == 2.5

    def test_charge_rejects_out_of_range(self):
        with pytest.raises(OperatingRangeError):
            Capacitor(1e-6, max_voltage_v=5.0).charge(6.0)

    def test_copy_is_independent(self):
        cap = Capacitor(1e-6, initial_voltage_v=1.0)
        clone = cap.copy()
        clone.charge(2.0)
        assert cap.voltage_v == 1.0
        assert clone.voltage_v == 2.0
