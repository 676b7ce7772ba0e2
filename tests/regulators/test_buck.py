"""Tests for the buck regulator model (paper Fig. 5, test chip)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelParameterError, OperatingRangeError
from repro.regulators.base import Regulator
from repro.regulators.buck import BuckRegulator, paper_buck
from tests.regulators.support_grid import LOADS_W, accepts, support_grid


@pytest.fixture
def buck():
    return paper_buck()


class TestConstruction:
    def test_rejects_bad_duty(self):
        with pytest.raises(ModelParameterError):
            BuckRegulator(max_duty=0.0)
        with pytest.raises(ModelParameterError):
            BuckRegulator(max_duty=1.5)


class TestPaperAnchors:
    def test_full_load_anchor(self, buck):
        """Fig. 5: ~63% at 0.55 V full load (~10 mW)."""
        assert buck.efficiency(0.55, 10e-3) == pytest.approx(0.63, abs=0.03)

    def test_half_load_anchor(self, buck):
        """Fig. 5: ~58% at 0.55 V half load."""
        assert buck.efficiency(0.55, 5e-3) == pytest.approx(0.58, abs=0.03)

    def test_chip_efficiency_envelope(self, buck):
        """Section VII: 40-75% across voltage and loading."""
        points = [
            (0.3, 2e-3),
            (0.4, 4e-3),
            (0.55, 8e-3),
            (0.7, 10e-3),
            (0.8, 12e-3),
        ]
        for v, p in points:
            eta = buck.efficiency(v, p)
            assert 0.30 <= eta <= 0.80, (v, p, eta)

    def test_output_range_is_chip_range(self, buck):
        """Section VII: the chip's buck regulates ~0.3-0.8 V."""
        assert buck.min_output_v <= 0.3
        assert buck.max_output_v >= 0.8

    def test_better_than_sc_at_high_power_worse_at_low(self, buck):
        """Fig. 5 caption claim, evaluated at matched conditions."""
        from repro.regulators.switched_capacitor import paper_switched_capacitor

        sc = paper_switched_capacitor(buck.nominal_input_v)
        # At a light load well below the anchors the buck's larger
        # fixed loss hurts more.
        assert buck.efficiency(0.55, 0.5e-3) <= sc.efficiency(0.55, 0.5e-3) + 0.02


class TestDutyLimit:
    def test_output_must_stay_below_duty_times_input(self, buck):
        with pytest.raises(OperatingRangeError):
            buck.input_power(0.8, 1e-3, v_in=0.82)

    def test_feasible_just_under_the_limit(self, buck):
        v_in = 0.85
        v_out = buck.max_duty * v_in - 0.01
        assert buck.input_power(v_out, 1e-3, v_in=v_in) > 0.0


class TestInverse:
    def test_round_trip(self, buck):
        p_out = buck.max_output_power(0.6, 12e-3)
        assert p_out > 0.0
        assert buck.input_power(0.6, p_out) == pytest.approx(12e-3, rel=1e-9)

    def test_zero_when_budget_below_fixed_loss(self, buck):
        tiny = buck.fixed.power(buck.nominal_input_v) * 0.5
        assert buck.max_output_power(0.5, tiny) == 0.0

    def test_matches_generic_bisection(self, buck):
        generic = Regulator.max_output_power(buck, 0.5, 9e-3)
        assert buck.max_output_power(0.5, 9e-3) == pytest.approx(generic, rel=1e-6)

    def test_lossless_when_resistance_zero(self):
        ideal = BuckRegulator(conduction_resistance_ohm=0.0, fixed_loss_w=0.0)
        assert ideal.max_output_power(0.5, 5e-3) == pytest.approx(5e-3)

    @given(st.floats(0.3, 0.8), st.floats(0.5e-3, 20e-3))
    @settings(max_examples=50, deadline=None)
    def test_inverse_never_exceeds_budget(self, v_out, p_in):
        buck = paper_buck()
        p_out = buck.max_output_power(v_out, p_in)
        if p_out > 0.0:
            assert buck.input_power(v_out, p_out) <= p_in * (1.0 + 1e-9)


class TestEfficiencyShape:
    def test_monotone_in_load_up_to_anchor(self, buck):
        """Below ~10 mW the efficiency climbs with load."""
        loads = [0.5e-3, 1e-3, 2e-3, 5e-3, 10e-3]
        etas = [buck.efficiency(0.55, p) for p in loads]
        assert all(b > a for a, b in zip(etas, etas[1:]))

    def test_conduction_loss_caps_heavy_load(self, buck):
        """At very heavy load the quadratic conduction loss wins."""
        assert buck.efficiency(0.55, 60e-3) < buck.efficiency(0.55, 15e-3)

    def test_fixed_loss_scales_with_input_voltage(self, buck):
        low = buck.efficiency(0.55, 2e-3, v_in=1.0)
        high = buck.efficiency(0.55, 2e-3, v_in=1.5)
        assert low > high


class TestSupportsOutputVoltage:
    def test_duty_limit_is_unsupported(self, buck):
        """0.30 V from 0.30 V needs a duty above 0.95."""
        assert not buck.supports_output_voltage(0.30, v_in=0.30)
        assert buck.supports_output_voltage(0.285, v_in=0.30)

    def test_agrees_with_input_power_on_a_grid(self, buck):
        """True exactly where input_power accepts, at every load."""
        grid = support_grid(buck, lambda v_in: [buck.max_duty * v_in])
        for v_out, v_in in grid:
            supported = buck.supports_output_voltage(v_out, v_in=v_in)
            for p_out in LOADS_W:
                assert supported == accepts(buck, v_out, v_in, p_out), (
                    v_out, v_in, p_out,
                )

    def test_nominal_input_by_default(self, buck):
        assert buck.supports_output_voltage(0.55) == accepts(buck, 0.55, None)


class TestInputPowerContract:
    """``input_power`` rejects exactly as the range checks do, with
    their messages, and is the derated loss sum to the bit."""

    @pytest.mark.parametrize(
        "v_out, p_out, v_in, message",
        [
            (0.2, 1e-3, 1.2, "Buck: output 0.200 V outside [0.250, 0.850] V"),
            (0.9, 1e-3, 1.2, "Buck: output 0.900 V outside [0.250, 0.850] V"),
            (float("nan"), 1e-3, 1.2,
             "Buck: output nan V outside [0.250, 0.850] V"),
            (0.8, 1e-3, 0.82,
             "Buck: output 0.800 V exceeds max duty 0.95 from input 0.820 V"),
            (0.55, -1e-3, 1.2, "Buck: output power must be >= 0, got -0.001"),
            (0.55, 1e-3, 0.0, "Buck: input voltage must be positive, got 0.0"),
            (0.55, 1e-3, -1.0,
             "Buck: input voltage must be positive, got -1.0"),
            # Several faults at once: the first check in order wins.
            (0.9, -1e-3, 0.0, "Buck: input voltage must be positive, got 0.0"),
            (0.9, -1e-3, 0.5, "Buck: output 0.900 V outside [0.250, 0.850] V"),
            (0.8, -1e-3, 0.5,
             "Buck: output 0.800 V exceeds max duty 0.95 from input 0.500 V"),
        ],
    )
    def test_rejections_keep_their_messages(self, buck, v_out, p_out, v_in, message):
        with pytest.raises(OperatingRangeError) as info:
            buck.input_power(v_out, p_out, v_in=v_in)
        assert str(info.value) == message

    @pytest.mark.parametrize("derating", [1.0, 0.8])
    def test_bitwise_the_derated_loss_sum(self, derating):
        buck = paper_buck()
        buck.set_efficiency_derating(derating)
        for v_in in (None, 0.6, 1.0, 1.2, 1.5):
            v_in_resolved = buck.nominal_input_v if v_in is None else v_in
            top = min(buck.max_output_v, buck.max_duty * v_in_resolved)
            for v_out in np.linspace(buck.min_output_v, top, 23):
                v_out = float(v_out)
                for p_out in (0.0, 1e-6, 1e-3, 7.3e-3, 20e-3):
                    expected = buck.derate_input_power(
                        p_out
                        + buck.conduction.power(p_out / v_out)
                        + buck.fixed.power(v_in_resolved)
                    )
                    actual = buck.input_power(v_out, p_out, v_in=v_in)
                    assert struct.pack("<d", actual) == struct.pack(
                        "<d", expected
                    ), (v_out, p_out, v_in)
