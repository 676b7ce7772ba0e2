"""Tests for maximum power point computation."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.pv.cell as cell_module
from repro.errors import ModelParameterError
from repro.minimize import bounded_minimize
from repro.pv.cell import SingleDiodeCell, kxob22_cell
from repro.pv.mpp import (
    MaximumPowerPoint,
    fill_factor,
    find_mpp,
    find_mpps,
    mpp_table,
)
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


def lone_mpp(cell, irradiance, grid_points=64):
    """The search one irradiance at a time through the generic
    ``power``/``current`` calls -- the oracle for :func:`find_mpps`."""
    if irradiance == 0.0:
        return MaximumPowerPoint(0.0, 0.0, 0.0, irradiance)
    voc = cell.open_circuit_voltage(irradiance)
    if voc == 0.0:
        return MaximumPowerPoint(0.0, 0.0, 0.0, irradiance)
    grid = np.linspace(0.0, voc, grid_points)
    seed_index = int(np.argmax(cell.power(grid, irradiance)))
    low = grid[max(seed_index - 1, 0)]
    high = grid[min(seed_index + 1, grid_points - 1)]
    if high <= low:
        high = low + 1e-6
    vmpp = bounded_minimize(
        lambda v: -float(cell.power(v, irradiance)), low, high, xatol=1e-7
    )
    impp = float(cell.current(vmpp, irradiance))
    return MaximumPowerPoint(vmpp, impp, vmpp * impp, irradiance)


def as_tuple(mpp):
    return (mpp.voltage_v, mpp.current_a, mpp.power_w, mpp.irradiance)


#: Lit, repeated, zero and dark irradiances, unsorted.
BATCH_IRRADIANCES = [
    0.5, 1.0, 0.0, 0.5, 1e-12, 5e-324, 1.2, 0.05, 1e-9, 0.0, 1.6, 0.3, 1.0,
]


class TestFindMpps:
    @pytest.mark.parametrize(
        "temperature", [None, 250.0, 330.0], ids=["paper", "250K", "330K"]
    )
    def test_each_row_equals_a_lone_search(self, cell, temperature):
        if temperature is not None:
            cell = cell.at_temperature(temperature)
        irradiances = BATCH_IRRADIANCES + np.geomspace(1e-6, 2.0, 200).tolist()
        batch = find_mpps(cell, irradiances)
        assert [as_tuple(m) for m in batch] == [
            as_tuple(lone_mpp(cell, g)) for g in irradiances
        ]
        assert [as_tuple(m) for m in batch] == [
            as_tuple(find_mpp(cell, g)) for g in irradiances
        ]

    @pytest.mark.parametrize("temperature", MINIMIZE_REFERENCE_TEMPERATURES_K)
    def test_batch_matches_frozen_reference_exactly(self, temperature):
        cell = kxob22_cell().at_temperature(temperature)
        expected = MINIMIZE_REFERENCE["find_mpp"][repr(temperature)]
        irradiances = [float(g) for g in expected]
        batch = find_mpps(cell, irradiances)
        assert {
            repr(m.irradiance): {
                "voltage_v": m.voltage_v,
                "current_a": m.current_a,
                "power_w": m.power_w,
            }
            for m in batch
        } == expected

    def test_one_grid_solve_through_the_cells_current(self, cell, monkeypatch):
        grids = []
        kernel = cell_module.newton_current
        current = SingleDiodeCell.current

        def counting_kernel(voltage, *args):
            grids.append(("newton_current", voltage.shape))
            return kernel(voltage, *args)

        def counting_current(self, voltage, irradiance=1.0):
            grids.append(("current", np.shape(voltage), np.shape(irradiance)))
            return current(self, voltage, irradiance)

        monkeypatch.setattr(cell_module, "newton_current", counting_kernel)
        monkeypatch.setattr(SingleDiodeCell, "current", counting_current)
        find_mpps(cell, BATCH_IRRADIANCES)
        # 13 irradiances, of which 0.0 (twice) and 5e-324 are degenerate;
        # the polish calls current_scalar directly.
        assert grids == [("current", (10, 64), (10, 1)), ("newton_current", (10, 64))]

    def test_all_dark_batch_solves_nothing(self, cell, monkeypatch):
        def kernel(*args):
            raise AssertionError("a dark batch entered the grid solve")

        monkeypatch.setattr(cell_module, "newton_current", kernel)
        batch = find_mpps(cell, [0.0, 5e-324])
        assert [as_tuple(m) for m in batch] == [
            (0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 5e-324),
        ]
        assert find_mpps(cell, []) == []

    def test_negative_irradiance_rejected(self, cell):
        with pytest.raises(ModelParameterError):
            find_mpps(cell, [0.5, -0.1])

    def test_rejects_tiny_grid(self, cell):
        with pytest.raises(ModelParameterError):
            find_mpps(cell, [1.0], grid_points=4)


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
