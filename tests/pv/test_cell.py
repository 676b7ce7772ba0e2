"""Tests for the single-diode photovoltaic cell model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.pv.cell as cell_module
from repro.errors import ConvergenceError, ModelParameterError
from repro.pv.cell import SingleDiodeCell, kxob22_cell, newton_current


@pytest.fixture(scope="module")
def cell():
    return kxob22_cell()


class TestConstruction:
    def test_rejects_nonpositive_photo_current(self):
        with pytest.raises(ModelParameterError):
            SingleDiodeCell(photo_current_full_sun_a=0.0, saturation_current_a=1e-9)

    def test_rejects_nonpositive_saturation_current(self):
        with pytest.raises(ModelParameterError):
            SingleDiodeCell(photo_current_full_sun_a=1e-2, saturation_current_a=-1e-9)

    def test_rejects_bad_ideality(self):
        with pytest.raises(ModelParameterError):
            SingleDiodeCell(1e-2, 1e-9, ideality_factor=0.0)

    def test_rejects_zero_series_cells(self):
        with pytest.raises(ModelParameterError):
            SingleDiodeCell(1e-2, 1e-9, series_cells=0)

    def test_rejects_negative_series_resistance(self):
        with pytest.raises(ModelParameterError):
            SingleDiodeCell(1e-2, 1e-9, series_resistance_ohm=-1.0)

    def test_rejects_nonpositive_shunt(self):
        with pytest.raises(ModelParameterError):
            SingleDiodeCell(1e-2, 1e-9, shunt_resistance_ohm=0.0)


class TestTerminalBehaviour:
    def test_short_circuit_current_close_to_photo_current(self, cell):
        isc = cell.short_circuit_current(1.0)
        assert isc == pytest.approx(cell.photo_current_full_sun_a, rel=0.02)

    def test_current_decreases_with_voltage(self, cell):
        voltages = np.linspace(0.0, cell.open_circuit_voltage(), 40)
        currents = cell.current(voltages)
        assert np.all(np.diff(currents) <= 1e-9)

    def test_current_is_zero_at_voc(self, cell):
        voc = cell.open_circuit_voltage(1.0)
        assert abs(cell.current(voc, 1.0)) < 1e-5

    def test_current_negative_beyond_voc(self, cell):
        voc = cell.open_circuit_voltage(1.0)
        assert cell.current(voc + 0.05, 1.0) < 0.0

    def test_scalar_input_returns_scalar(self, cell):
        assert isinstance(cell.current(0.5), float)

    def test_array_input_returns_array(self, cell):
        result = cell.current(np.array([0.1, 0.5, 1.0]))
        assert isinstance(result, np.ndarray)
        assert result.shape == (3,)

    def test_power_is_v_times_i(self, cell):
        v = 0.8
        assert cell.power(v) == pytest.approx(v * cell.current(v))

    def test_zero_irradiance_dark_current_only(self, cell):
        # In the dark, any positive bias draws (negative) diode current.
        assert cell.current(0.5, irradiance=0.0) <= 0.0
        assert cell.open_circuit_voltage(0.0) == 0.0

    def test_negative_irradiance_rejected(self, cell):
        with pytest.raises(ModelParameterError):
            cell.current(0.5, irradiance=-0.1)


class TestDispatch:
    """``current`` solves 0-d inputs with the scalar loop, arrays with the kernel."""

    @pytest.mark.parametrize(
        "voltage",
        [0.5, 1, np.float64(0.5), np.array(0.5)],
        ids=["float", "int", "numpy-scalar", "0-d-array"],
    )
    def test_scalar_input_skips_array_kernel(self, cell, monkeypatch, voltage):
        def kernel(*args):
            raise AssertionError("scalar input entered the array kernel")

        monkeypatch.setattr(cell_module, "newton_current", kernel)
        result = cell.current(voltage, 0.7)
        assert type(result) is float
        assert result == cell.current_scalar(float(voltage), 0.7)

    @pytest.mark.parametrize("shape", [(0,), (1,), (5,), (2, 3), (3, 1, 2)])
    def test_array_input_keeps_shape(self, cell, monkeypatch, shape):
        calls = []

        def kernel(*args):
            calls.append(args[0].size)
            return newton_current(*args)

        monkeypatch.setattr(cell_module, "newton_current", kernel)
        voltage = np.linspace(0.0, 1.4, int(np.prod(shape))).reshape(shape)
        result = cell.current(voltage, 0.7)
        assert isinstance(result, np.ndarray)
        assert result.shape == shape
        assert calls == [voltage.size]

    @pytest.mark.parametrize(
        "voltage", [0.5, np.array([0.2, 0.5])], ids=["scalar", "array"]
    )
    def test_negative_irradiance_rejected_on_both_paths(self, cell, voltage):
        with pytest.raises(ModelParameterError):
            cell.current(voltage, irradiance=-0.1)


class TestIrradianceScaling:
    def test_isc_scales_linearly(self, cell):
        full = cell.short_circuit_current(1.0)
        half = cell.short_circuit_current(0.5)
        assert half == pytest.approx(full / 2.0, rel=0.02)

    def test_voc_shifts_logarithmically(self, cell):
        # Halving the light should drop Voc by about scale * ln(2).
        drop = cell.open_circuit_voltage(1.0) - cell.open_circuit_voltage(0.5)
        assert drop == pytest.approx(cell.diode_scale_v * np.log(2.0), rel=0.15)

    @given(st.floats(0.05, 1.2))
    @settings(max_examples=25, deadline=None)
    def test_voc_monotone_in_irradiance(self, irradiance):
        cell = kxob22_cell()
        assert cell.open_circuit_voltage(irradiance) <= cell.open_circuit_voltage(
            irradiance + 0.05
        )


class TestPaperCalibration:
    """The KXOB22 factory must stay on the paper's measured anchors."""

    def test_full_sun_isc_in_range(self, cell):
        # Fig. 8(b): currents up to ~16 mA class.
        assert 10e-3 <= cell.short_circuit_current(1.0) <= 18e-3

    def test_full_sun_voc_in_range(self, cell):
        # Fig. 2 / 8(b): Voc around 1.5 V.
        assert 1.35 <= cell.open_circuit_voltage(1.0) <= 1.65

    def test_series_cells_is_three(self, cell):
        assert cell.series_cells == 3


class TestNewtonSolver:
    def test_with_and_without_series_resistance_agree_when_small(self):
        base = dict(
            photo_current_full_sun_a=13e-3,
            saturation_current_a=3e-8,
        )
        no_rs = SingleDiodeCell(series_resistance_ohm=0.0, **base)
        tiny_rs = SingleDiodeCell(series_resistance_ohm=1e-4, **base)
        v = np.linspace(0.0, 1.3, 20)
        np.testing.assert_allclose(
            no_rs.current(v), tiny_rs.current(v), rtol=1e-4, atol=1e-7
        )

    def test_kirchhoff_residual_is_zero(self, cell):
        """The solved current satisfies the implicit diode equation."""
        v = 1.0
        i = cell.current(v, 1.0)
        diode_v = v + i * cell.series_resistance_ohm
        residual = (
            cell.photo_current(1.0)
            - cell.saturation_current_a * (np.exp(diode_v / cell.diode_scale_v) - 1.0)
            - diode_v / cell.shunt_resistance_ohm
            - i
        )
        assert abs(residual) < 1e-9

    @given(st.floats(0.0, 1.4), st.floats(0.05, 1.2))
    @settings(max_examples=50, deadline=None)
    def test_current_bounded_by_photo_current(self, voltage, irradiance):
        cell = kxob22_cell()
        current = cell.current(voltage, irradiance)
        assert current <= cell.photo_current(irradiance) + 1e-9


class TestOpenCircuitConvergence:
    """Voc bisection must converge -- and say so loudly when it can't."""

    def test_default_budget_converges(self, cell):
        voc = cell.open_circuit_voltage(1.0)
        assert abs(float(cell.current(voc, 1.0))) < 1e-6

    def test_tight_tolerance_still_converges(self, cell):
        loose = cell.open_circuit_voltage(1.0, tolerance_v=1e-6)
        tight = cell.open_circuit_voltage(1.0, tolerance_v=1e-12)
        assert tight == pytest.approx(loose, abs=1e-6)

    def test_exhausted_budget_raises_convergence_error(self, cell):
        """An unreachable tolerance within a tiny iteration budget must
        raise instead of silently returning the half-split bracket."""
        with pytest.raises(ConvergenceError):
            cell.open_circuit_voltage(1.0, tolerance_v=1e-15, max_iterations=3)

    def test_rejects_bad_parameters(self, cell):
        with pytest.raises(ModelParameterError):
            cell.open_circuit_voltage(1.0, tolerance_v=0.0)
        with pytest.raises(ModelParameterError):
            cell.open_circuit_voltage(1.0, max_iterations=0)


class TestTemperatureDependence:
    def test_identity_at_same_temperature(self, cell):
        same = cell.at_temperature(cell.temperature_k)
        assert same.open_circuit_voltage() == pytest.approx(
            cell.open_circuit_voltage(), rel=1e-6
        )

    def test_voc_drops_with_heat(self, cell):
        hot = cell.at_temperature(cell.temperature_k + 40.0)
        cold = cell.at_temperature(cell.temperature_k - 20.0)
        assert hot.open_circuit_voltage() < cell.open_circuit_voltage()
        assert cold.open_circuit_voltage() > cell.open_circuit_voltage()

    def test_voc_coefficient_physical(self, cell):
        """Roughly -2 mV/K per junction for silicon."""
        hot = cell.at_temperature(cell.temperature_k + 30.0)
        dv_per_k = (
            hot.open_circuit_voltage() - cell.open_circuit_voltage()
        ) / 30.0
        per_junction = dv_per_k / cell.series_cells
        assert -3.5e-3 <= per_junction <= -1.5e-3

    def test_isc_weakly_positive(self, cell):
        hot = cell.at_temperature(cell.temperature_k + 40.0)
        isc_ratio = hot.short_circuit_current() / cell.short_circuit_current()
        assert 1.0 < isc_ratio < 1.05

    def test_mpp_power_falls_with_heat(self, cell):
        from repro.pv.mpp import find_mpp

        hot = cell.at_temperature(cell.temperature_k + 40.0)
        assert find_mpp(hot).power_w < find_mpp(cell).power_w

    def test_rejects_nonpositive_temperature(self, cell):
        with pytest.raises(ModelParameterError):
            cell.at_temperature(0.0)
