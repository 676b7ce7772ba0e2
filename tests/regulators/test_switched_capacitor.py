"""Tests for the switched-capacitor regulator model (paper Fig. 4)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelParameterError, OperatingRangeError
from repro.regulators.base import Regulator
from repro.regulators.switched_capacitor import (
    FIG4_BENCH_INPUT_V,
    PAPER_RATIOS,
    SwitchedCapacitorRegulator,
    paper_switched_capacitor,
)
from tests.regulators.support_grid import LOADS_W, accepts, support_grid


@pytest.fixture
def sc():
    return paper_switched_capacitor()


class TestConstruction:
    def test_rejects_empty_ratio_bank(self):
        with pytest.raises(ModelParameterError):
            SwitchedCapacitorRegulator(ratios=())

    def test_rejects_ratio_above_one(self):
        with pytest.raises(ModelParameterError):
            SwitchedCapacitorRegulator(ratios=(Fraction(3, 2),))

    def test_rejects_nonpositive_impedance(self):
        with pytest.raises(ModelParameterError):
            SwitchedCapacitorRegulator(output_impedance_ohm=0.0)

    def test_paper_ratio_bank(self):
        """Fig. 4 labels: 5:4, 3:2 and 2:1 conversion."""
        assert set(PAPER_RATIOS) == {
            Fraction(4, 5),
            Fraction(2, 3),
            Fraction(1, 2),
        }

    def test_duplicate_ratios_deduplicated(self):
        sc = SwitchedCapacitorRegulator(
            ratios=(Fraction(1, 2), Fraction(1, 2), Fraction(2, 3))
        )
        assert len(sc.ratios) == 2


class TestPaperAnchors:
    def test_full_load_anchor(self, sc):
        """Fig. 4: ~67% at 0.55 V, ~10 mW full load."""
        assert sc.efficiency(0.55, 10e-3) == pytest.approx(0.67, abs=0.03)

    def test_half_load_anchor(self, sc):
        """Fig. 4: ~64% at 0.55 V, half load."""
        assert sc.efficiency(0.55, 5e-3) == pytest.approx(0.64, abs=0.03)

    def test_full_load_beats_half_load(self, sc):
        assert sc.efficiency(0.55, 10e-3) > sc.efficiency(0.55, 5e-3)

    def test_bench_input_within_chip_supply_range(self):
        """Section VII: the chip runs from a 1.2-1.5 V supply."""
        assert 1.2 <= FIG4_BENCH_INPUT_V <= 1.5


class TestRatioSelection:
    def test_selects_band_above_output(self, sc):
        ratio = sc.select_ratio(0.55, 5e-3)
        assert sc.no_load_voltage(ratio) > 0.55

    def test_prefers_tightest_feasible_band(self, sc):
        """Minimum input power means the lowest feasible Vnl."""
        ratio = sc.select_ratio(0.40, 1e-3, v_in=1.2)
        assert ratio == Fraction(1, 2)

    def test_no_band_above_max_ratio(self, sc):
        # From 1.2 V the largest no-load voltage is 0.96 V.
        with pytest.raises(OperatingRangeError):
            sc.input_power(0.99, 1e-3, v_in=1.2)

    def test_current_limit_blocks_band_edge_overload(self, sc):
        """Just below a band edge the switch matrix caps the current."""
        v_nl = sc.no_load_voltage(Fraction(1, 2), 1.2)
        v_out = v_nl - 0.002
        limit = sc.current_limit(Fraction(1, 2), v_out, 1.2)
        # Demanding far beyond the band's current limit must either be
        # rejected or served by a higher (less efficient) band.
        heavy = v_out * limit * 5.0
        ratio = sc.select_ratio(v_out, heavy, v_in=1.2)
        assert ratio != Fraction(1, 2)

    def test_current_limit_zero_when_band_below_output(self, sc):
        assert sc.current_limit(Fraction(1, 2), 0.9, 1.2) == 0.0


class TestEfficiencyShape:
    def test_light_load_rolloff(self, sc):
        """The fixed controller loss collapses light-load efficiency --
        the mechanism behind the paper's low-light bypass rule."""
        assert sc.efficiency(0.55, 0.2e-3) < 0.35
        assert sc.efficiency(0.55, 10e-3) > 0.6

    def test_efficiency_bounded_by_band_ratio(self, sc):
        """eta can never exceed Vout/Vnl inside a band."""
        for v_out, p_out in ((0.5, 5e-3), (0.7, 5e-3), (0.9, 5e-3)):
            ratio = sc.select_ratio(v_out, p_out)
            bound = v_out / sc.no_load_voltage(ratio)
            assert sc.efficiency(v_out, p_out) <= bound + 1e-9

    def test_scalloped_bands_visible(self, sc):
        """Efficiency rises toward each band edge then drops into the
        next band (the Fig. 4 scallops)."""
        just_below_edge = sc.no_load_voltage(Fraction(1, 2), 1.35) - 0.02
        just_above_edge = sc.no_load_voltage(Fraction(1, 2), 1.35) + 0.02
        load = 2e-3
        assert sc.efficiency(just_below_edge, load) > sc.efficiency(
            just_above_edge, load
        )


class TestInverse:
    def test_round_trip(self, sc):
        p_out = sc.max_output_power(0.6, 12e-3)
        assert p_out > 0.0
        assert sc.input_power(0.6, p_out) == pytest.approx(12e-3, rel=1e-6)

    def test_zero_when_budget_below_fixed_loss(self, sc):
        tiny = sc.fixed.power(sc.nominal_input_v) * 0.5
        assert sc.max_output_power(0.5, tiny) == 0.0

    def test_matches_generic_bisection(self, sc):
        generic = Regulator.max_output_power(sc, 0.6, 9e-3)
        assert sc.max_output_power(0.6, 9e-3) == pytest.approx(generic, rel=1e-4)

    @given(st.floats(0.2, 0.9), st.floats(0.5e-3, 20e-3))
    @settings(max_examples=50, deadline=None)
    def test_inverse_never_exceeds_budget(self, v_out, p_in):
        sc = paper_switched_capacitor()
        p_out = sc.max_output_power(v_out, p_in)
        if p_out > 0.0:
            assert sc.input_power(v_out, p_out) <= p_in * (1.0 + 1e-6)


class TestLiveInputVoltage:
    def test_bands_move_with_input(self, sc):
        """From a lower live input the band edges shift down."""
        assert sc.no_load_voltage(Fraction(1, 2), 1.0) == pytest.approx(0.5)
        assert sc.no_load_voltage(Fraction(1, 2), 1.4) == pytest.approx(0.7)

    def test_output_unreachable_from_sagging_node(self, sc):
        # 0.75 V output from a 0.9 V node: best band gives 0.72 V. No.
        with pytest.raises(OperatingRangeError):
            sc.input_power(0.75, 1e-3, v_in=0.9)


class TestSupportsOutputVoltage:
    def test_exact_at_zero_load_necessary_at_any_load(self, sc):
        """Band feasibility depends on the load, so the answer is exact
        only at zero load; at a real load it is necessary, not
        sufficient."""
        ratios = [float(r) for r in sc.ratios]
        grid = support_grid(sc, lambda v_in: [k * v_in for k in ratios])
        loaded_disagreements = 0
        for v_out, v_in in grid:
            supported = sc.supports_output_voltage(v_out, v_in=v_in)
            assert supported == accepts(sc, v_out, v_in, 0.0), (v_out, v_in)
            for p_out in LOADS_W:
                if accepts(sc, v_out, v_in, p_out):
                    assert supported, (v_out, v_in, p_out)
                elif supported:
                    loaded_disagreements += 1
        # The load-dependence is real: the zero-load answer is too
        # optimistic somewhere on the grid.
        assert loaded_disagreements > 0

    def test_no_band_above_the_top_ratio(self, sc):
        """0.9 V from 1.0 V is above 4/5 of the input: no band."""
        assert not sc.supports_output_voltage(0.9, v_in=1.0)
        assert sc.supports_output_voltage(0.7, v_in=1.0)
