"""Tests for maximum power point computation."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelParameterError
from repro.pv.cell import kxob22_cell
from repro.pv.mpp import MaximumPowerPoint, fill_factor, find_mpp, mpp_table
from tests.golden.builders import MINIMIZE_REFERENCE_TEMPERATURES_K

MINIMIZE_REFERENCE = json.loads(
    (
        Path(__file__).resolve().parents[1]
        / "golden"
        / "bounded_minimize_reference.json"
    ).read_text()
)


@pytest.fixture(scope="module")
def cell():
    return kxob22_cell()


class TestFindMpp:
    def test_mpp_beats_grid(self, cell):
        """The polished MPP dominates a dense brute-force sweep."""
        mpp = find_mpp(cell, 1.0)
        grid = np.linspace(0.0, cell.open_circuit_voltage(1.0), 2000)
        brute = float(np.max(cell.power(grid, 1.0)))
        assert mpp.power_w >= brute - 1e-9

    def test_mpp_inside_voltage_range(self, cell):
        mpp = find_mpp(cell, 1.0)
        assert 0.0 < mpp.voltage_v < cell.open_circuit_voltage(1.0)

    def test_power_consistent_with_current(self, cell):
        mpp = find_mpp(cell, 0.5)
        assert mpp.power_w == pytest.approx(mpp.voltage_v * mpp.current_a)

    def test_zero_irradiance_degenerate(self, cell):
        mpp = find_mpp(cell, 0.0)
        assert mpp.power_w == 0.0
        assert mpp.voltage_v == 0.0

    def test_underflowing_photocurrent_degenerate(self, cell):
        """The smallest subnormal irradiance leaves Iph = 0: no power
        anywhere, so the MPP is degenerate rather than a slightly
        negative point found on a zero-width bracket."""
        assert cell.photo_current(5e-324) == 0.0
        mpp = find_mpp(cell, 5e-324)
        assert (mpp.voltage_v, mpp.current_a, mpp.power_w) == (0.0, 0.0, 0.0)
        assert mpp.irradiance == 5e-324

    def test_rejects_tiny_grid(self, cell):
        with pytest.raises(ModelParameterError):
            find_mpp(cell, 1.0, grid_points=4)

    def test_paper_full_sun_anchor(self, cell):
        """Fig. 6(a): MPP around 14-15 mW near 1.1-1.2 V."""
        mpp = find_mpp(cell, 1.0)
        assert 12e-3 <= mpp.power_w <= 17e-3
        assert 1.0 <= mpp.voltage_v <= 1.3

    def test_paper_quarter_sun_anchor(self, cell):
        """Fig. 7(a): quarter-light MPP around 3-3.5 mW."""
        mpp = find_mpp(cell, 0.25)
        assert 2.5e-3 <= mpp.power_w <= 4e-3

    @given(st.floats(0.05, 1.2))
    @settings(max_examples=30, deadline=None)
    def test_mpp_power_monotone_in_irradiance(self, irradiance):
        cell = kxob22_cell()
        low = find_mpp(cell, irradiance)
        high = find_mpp(cell, irradiance * 1.1)
        assert high.power_w >= low.power_w

    @given(st.floats(0.05, 1.2))
    @settings(max_examples=20, deadline=None)
    def test_stationarity(self, irradiance):
        """dP/dV vanishes at the located optimum."""
        cell = kxob22_cell()
        mpp = find_mpp(cell, irradiance)
        eps = 1e-4
        p_lo = float(cell.power(mpp.voltage_v - eps, irradiance))
        p_hi = float(cell.power(mpp.voltage_v + eps, irradiance))
        assert p_lo <= mpp.power_w + 1e-8
        assert p_hi <= mpp.power_w + 1e-8


class TestMinimizerReference:
    @pytest.mark.parametrize("temperature", MINIMIZE_REFERENCE_TEMPERATURES_K)
    def test_matches_frozen_reference_exactly(self, temperature):
        """Every recorded MPP is reproduced to the last bit.

        ``tests/golden/bounded_minimize_reference.json`` was frozen from
        scipy's bounded minimizer; the comparison has no tolerance.
        """
        cell = kxob22_cell().at_temperature(temperature)
        expected = MINIMIZE_REFERENCE["find_mpp"][repr(temperature)]
        for irradiance, recorded in expected.items():
            mpp = find_mpp(cell, float(irradiance))
            assert {
                "voltage_v": mpp.voltage_v,
                "current_a": mpp.current_a,
                "power_w": mpp.power_w,
            } == recorded, irradiance


class TestMppTable:
    def test_one_entry_per_irradiance(self, cell):
        table = mpp_table(cell, [0.1, 0.5, 1.0])
        assert len(table) == 3
        assert all(isinstance(e, MaximumPowerPoint) for e in table)

    def test_entries_ordered_by_power(self, cell):
        table = mpp_table(cell, [0.1, 0.5, 1.0])
        powers = [e.power_w for e in table]
        assert powers == sorted(powers)


class TestFillFactor:
    def test_in_physical_range(self, cell):
        ff = fill_factor(cell, 1.0)
        # Monocrystalline cells have fill factors around 0.7-0.85.
        assert 0.5 < ff < 0.95

    def test_rejects_nonpositive_irradiance(self, cell):
        with pytest.raises(ModelParameterError):
            fill_factor(cell, 0.0)


class TestMaximumPowerPoint:
    def test_rejects_negative_power(self):
        with pytest.raises(ModelParameterError):
            MaximumPowerPoint(0.5, -1e-3, -5e-4, 1.0)
