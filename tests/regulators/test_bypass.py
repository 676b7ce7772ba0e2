"""Tests for the bypass path."""

import pytest

from repro.errors import ModelParameterError, OperatingRangeError
from repro.regulators.bypass import BypassPath
from tests.regulators.support_grid import LOADS_W, accepts, support_grid


@pytest.fixture
def bypass():
    return BypassPath(nominal_input_v=1.0)


class TestVoltageFollowing:
    def test_output_must_equal_input(self, bypass):
        with pytest.raises(OperatingRangeError):
            bypass.input_power(0.55, 1e-3, v_in=1.0)

    def test_matched_voltage_is_nearly_lossless(self, bypass):
        p_in = bypass.input_power(1.0, 5e-3, v_in=1.0)
        assert p_in == pytest.approx(5e-3, rel=0.01)
        assert bypass.efficiency(1.0, 5e-3, v_in=1.0) > 0.99

    def test_switch_resistance_costs_something(self, bypass):
        p_in = bypass.input_power(1.0, 5e-3, v_in=1.0)
        assert p_in > 5e-3

    def test_max_output_power_zero_at_mismatched_voltage(self, bypass):
        assert bypass.max_output_power(0.5, 10e-3, v_in=1.0) == 0.0

    def test_max_output_power_near_input_at_match(self, bypass):
        p_out = bypass.max_output_power(1.0, 10e-3, v_in=1.0)
        assert 0.9 * 10e-3 < p_out <= 10e-3

    def test_ideal_switch_passes_everything(self):
        ideal = BypassPath(nominal_input_v=1.0, switch_resistance_ohm=0.0)
        assert ideal.max_output_power(1.0, 10e-3, v_in=1.0) == pytest.approx(10e-3)


class TestForNodeVoltage:
    def test_pins_to_node(self):
        path = BypassPath.for_node_voltage(0.8)
        assert path.nominal_input_v == pytest.approx(0.8)
        assert path.input_power(0.8, 1e-3) > 0.0

    def test_rejects_nonpositive_node(self):
        with pytest.raises(ModelParameterError):
            BypassPath.for_node_voltage(0.0)


class TestRangeChecks:
    def test_negative_power_rejected(self, bypass):
        with pytest.raises(OperatingRangeError):
            bypass.input_power(1.0, -1e-3, v_in=1.0)

    def test_negative_available_rejected(self, bypass):
        with pytest.raises(OperatingRangeError):
            bypass.max_output_power(1.0, -1e-3, v_in=1.0)


class TestSupportsOutputVoltage:
    def test_only_the_input_voltage_is_supported(self, bypass):
        assert bypass.supports_output_voltage(1.0)
        assert not bypass.supports_output_voltage(0.55, v_in=1.0)

    def test_agrees_with_input_power_on_a_grid(self, bypass):
        tolerance = bypass.VOLTAGE_TOLERANCE_V
        grid = support_grid(
            bypass, lambda v_in: [v_in - tolerance, v_in, v_in + tolerance]
        )
        for v_out, v_in in grid:
            supported = bypass.supports_output_voltage(v_out, v_in=v_in)
            for p_out in LOADS_W:
                assert supported == accepts(bypass, v_out, v_in, p_out), (
                    v_out, v_in, p_out,
                )
