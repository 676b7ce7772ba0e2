"""Scalar Newton fast path: bit-identity against the frozen reference.

The engine's per-step PV call rests on one claim: the scalar solver
returns the *same double* as the historical array solver, for every
voltage and irradiance.  That claim is asserted bit-for-bit against
``tests/golden/pv_current_reference.json``, a dense grid of one-point
solves frozen from that solver.  A hypothesis property then pins the
array kernel to the scalar loop: every element of ``current(array)``
equals its own ``current_scalar`` solve, for any shape.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pv.cell import kxob22_cell
from tests.golden.builders import PV_REFERENCE_CELLS

CELL = kxob22_cell()

REFERENCE = json.loads(
    (
        Path(__file__).resolve().parents[1]
        / "golden"
        / "pv_current_reference.json"
    ).read_text()
)


class TestColdStartBitIdentity:
    @pytest.mark.parametrize("name", sorted(PV_REFERENCE_CELLS))
    def test_dense_grid_matches_array_path_bitwise(self, name):
        """Every grid point equals the frozen per-point array solve.

        ``tests/golden/pv_current_reference.json`` holds one-point
        ``current`` calls of the historical array solver, stored as
        repr floats; the comparison is exact, with no tolerance.
        """
        cell = PV_REFERENCE_CELLS[name]
        grid = REFERENCE["voltage_grid"]
        voltages = np.linspace(grid["start"], grid["stop"], grid["points"])
        for irr_key, expected in REFERENCE["currents"][name].items():
            irr = float(irr_key)
            actual = [cell.current_scalar(v, irr) for v in voltages.tolist()]
            assert actual == expected, irr_key

    @given(
        name=st.sampled_from(sorted(PV_REFERENCE_CELLS)),
        voltages=st.lists(
            st.floats(min_value=-0.2, max_value=2.0), min_size=1, max_size=24
        ),
        irr=st.floats(min_value=0.0, max_value=1.25),
        layout=st.sampled_from(["1-D", "2-D", "list"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_cold_scalar_equals_array_bitwise(
        self, name, voltages, irr, layout
    ):
        """Each element of an array solve equals its own scalar solve."""
        cell = PV_REFERENCE_CELLS[name]
        if layout == "list":
            voltage = voltages
        elif layout == "1-D":
            voltage = np.array(voltages)
        else:
            voltage = np.array(voltages + voltages).reshape(2, -1)
        result = cell.current(voltage, irr)
        points = np.asarray(voltage, dtype=float)
        assert result.shape == points.shape
        expected = [cell.current_scalar(v, irr) for v in points.ravel().tolist()]
        assert result.ravel().tolist() == expected

    def test_power_derivation_is_bit_identical(self):
        """``v * current_scalar(v)`` equals the array ``power()`` double."""
        for v in np.linspace(0.0, 1.6, 97).tolist():
            for irr in (0.2, 1.0):
                derived = v * CELL.current_scalar(v, irr)
                assert derived == float(CELL.power(v, irr))
