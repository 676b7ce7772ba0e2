"""Tests for the linear regulator model (paper Fig. 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelParameterError, OperatingRangeError
from repro.regulators.ldo import LinearRegulator, paper_ldo
from tests.regulators.support_grid import LOADS_W, accepts, support_grid


@pytest.fixture
def ldo():
    return paper_ldo()


class TestConstruction:
    def test_rejects_negative_dropout(self):
        with pytest.raises(ModelParameterError):
            LinearRegulator(dropout_v=-0.1)

    def test_rejects_bad_output_range(self):
        with pytest.raises(ModelParameterError):
            LinearRegulator(min_output_v=0.8, max_output_v=0.4)


class TestEfficiency:
    def test_paper_anchor_45_percent_at_055(self, ldo):
        """Fig. 3: ~45% at 0.55 V from the 1.2 V input."""
        assert ldo.efficiency(0.55, 10e-3) == pytest.approx(0.45, abs=0.02)

    def test_efficiency_tracks_voltage_ratio(self, ldo):
        """Resistive division: eta ~ Vout/Vin at heavy load."""
        for v in (0.3, 0.5, 0.7, 0.9):
            assert ldo.efficiency(v, 10e-3) == pytest.approx(
                v / ldo.nominal_input_v, rel=0.01
            )

    def test_nearly_load_independent(self, ldo):
        """Fig. 3's curve does not change significantly with load."""
        full = ldo.efficiency(0.55, 10e-3)
        tenth = ldo.efficiency(0.55, 1e-3)
        assert tenth == pytest.approx(full, rel=0.05)

    def test_quiescent_current_dominates_at_microwatt_load(self, ldo):
        assert ldo.efficiency(0.55, 1e-6) < 0.1

    def test_zero_load_zero_efficiency(self, ldo):
        assert ldo.efficiency(0.55, 0.0) == 0.0


class TestRangeChecks:
    def test_dropout_enforced(self, ldo):
        # 1.2 V input with 0.1 V dropout cannot regulate 1.15 V.
        with pytest.raises(OperatingRangeError):
            ldo.input_power(1.15, 1e-3, v_in=1.2)

    def test_live_input_voltage_respected(self, ldo):
        # From a sagging 0.7 V node, 0.65 V output needs too much headroom.
        with pytest.raises(OperatingRangeError):
            ldo.input_power(0.65, 1e-3, v_in=0.7)

    def test_output_range_enforced(self, ldo):
        with pytest.raises(OperatingRangeError):
            ldo.input_power(0.05, 1e-3)

    def test_negative_power_rejected(self, ldo):
        with pytest.raises(OperatingRangeError):
            ldo.input_power(0.55, -1e-3)


class TestInverse:
    def test_max_output_power_round_trip(self, ldo):
        p_in = 12e-3
        p_out = ldo.max_output_power(0.6, p_in)
        assert ldo.input_power(0.6, p_out) == pytest.approx(p_in, rel=1e-6)

    def test_zero_available_power(self, ldo):
        assert ldo.max_output_power(0.6, 0.0) == 0.0

    def test_matches_generic_bisection(self, ldo):
        """The closed form agrees with the base-class bisection."""
        from repro.regulators.base import Regulator

        generic = Regulator.max_output_power(ldo, 0.5, 8e-3)
        assert ldo.max_output_power(0.5, 8e-3) == pytest.approx(generic, rel=1e-6)

    @given(st.floats(0.25, 0.9), st.floats(1e-4, 20e-3))
    @settings(max_examples=40, deadline=None)
    def test_inverse_never_exceeds_budget(self, v_out, p_in):
        ldo = paper_ldo()
        p_out = ldo.max_output_power(v_out, p_in)
        if p_out > 0.0:
            assert ldo.input_power(v_out, p_out) <= p_in * (1.0 + 1e-9)


class TestPaperConclusion:
    def test_ldo_never_beats_direct_connection(self, ldo):
        """Section IV-A: the LDO's gain is proportionally lost.

        Any power extracted at the input arrives scaled by Vout/Vin
        minus quiescent overhead, so delivered power can never exceed
        the input power -- and at matched voltage it is always below
        what a direct connection would deliver.
        """
        p_in = 14e-3
        for v in (0.4, 0.55, 0.7):
            assert ldo.max_output_power(v, p_in) < p_in * v / ldo.nominal_input_v + 1e-9


class TestSupportsOutputVoltage:
    def test_dropout_is_unsupported(self, ldo):
        """0.25 V from 0.30 V leaves 0.05 V, under the 0.10 V dropout."""
        assert not ldo.supports_output_voltage(0.25, v_in=0.30)
        assert ldo.supports_output_voltage(0.20, v_in=0.32)

    def test_agrees_with_input_power_on_a_grid(self, ldo):
        """True exactly where input_power accepts, at every load."""
        grid = support_grid(ldo, lambda v_in: [v_in - ldo.dropout_v])
        for v_out, v_in in grid:
            supported = ldo.supports_output_voltage(v_out, v_in=v_in)
            for p_out in LOADS_W:
                assert supported == accepts(ldo, v_out, v_in, p_out), (
                    v_out, v_in, p_out,
                )
