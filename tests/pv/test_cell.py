"""Tests for the single-diode photovoltaic cell model."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.pv.cell as cell_module
from repro.errors import ConvergenceError, ModelParameterError
from repro.pv.cell import SingleDiodeCell, kxob22_cell, newton_current
from repro.units import micro_amps, milli_amps


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

    def test_array_irradiance_broadcasts_one_row_per_irradiance(
        self, cell, monkeypatch
    ):
        calls = []

        def kernel(*args):
            calls.append(args[0].shape)
            return newton_current(*args)

        monkeypatch.setattr(cell_module, "newton_current", kernel)
        irradiances = [0.05, 0.7, 1.3]
        grid = np.linspace(0.0, 1.4, 16)
        rows = cell.current(np.tile(grid, (3, 1)), np.array([irradiances]).T)
        assert calls == [(3, 16)]
        for row, g in zip(rows, irradiances):
            assert row.tolist() == [cell.current_scalar(v, g) for v in grid]
        with pytest.raises(ModelParameterError):
            cell.current(np.tile(grid, (2, 1)), np.array([[0.5], [-0.1]]))

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


def bisection_voc(cell, irradiance, tolerance_v=1e-9):
    """The plain open-circuit bisection: one Newton solve per step.

    The oracle for :meth:`SingleDiodeCell.open_circuit_voltage`, which
    skips the solves whose sign it already knows.
    """
    iph = cell.photo_current(irradiance)
    if iph == 0.0:
        return 0.0
    upper = cell.diode_scale_v * float(np.log1p(iph / cell.saturation_current_a))
    lower = 0.0
    while True:
        mid = 0.5 * (lower + upper)
        if cell.current_scalar(mid, irradiance) > 0.0:
            lower = mid
        else:
            upper = mid
        if upper - lower < tolerance_v:
            return 0.5 * (lower + upper)


def voc_irradiances(seed):
    """Irradiances from deep dark to double sun: 10,000 geometric
    points, 10,000 uniform ones and the subnormal photocurrent edge."""
    return np.concatenate(
        [
            np.geomspace(1e-12, 2.0, 10_000),
            np.random.default_rng(seed).uniform(0.0, 2.0, 10_000),
            [0.0, 5e-324, 1e-320, 1e-300],
        ]
    ).tolist()


def voc_cells():
    paper = kxob22_cell()
    return {
        "paper": paper,
        "250K": paper.at_temperature(250.0),
        "330K": paper.at_temperature(330.0),
        "rs0": replace(paper, series_resistance_ohm=0.0),
        "rs200": replace(paper, series_resistance_ohm=200.0),
    }


class TestOpenCircuitSignShortcut:
    """Voc takes most bisection signs from the zero-current residual,
    and still returns exactly the plain bisection's double."""

    @pytest.mark.parametrize("seed", [7])
    @pytest.mark.parametrize("name", ["paper", "250K", "330K", "rs0", "rs200"])
    def test_matches_plain_bisection(self, name, seed):
        cell = voc_cells()[name]
        # The paper cell gets all 20,000 irradiances, the variants every
        # fifth (about 4,000 each, the geometric sweep included).
        irradiances = voc_irradiances(seed)
        if name != "paper":
            irradiances = irradiances[::5]
        mismatches = [
            g
            for g in irradiances
            if cell.open_circuit_voltage(g) != bisection_voc(cell, g)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("name", ["paper", "250K", "330K", "rs0"])
    def test_few_newton_solves_per_voc(self, name, monkeypatch):
        cell = voc_cells()[name]
        calls = []
        solve = SingleDiodeCell.current_scalar

        def counting(self, voltage, irradiance=1.0):
            calls.append(voltage)
            return solve(self, voltage, irradiance)

        monkeypatch.setattr(SingleDiodeCell, "current_scalar", counting)
        irradiances = np.linspace(0.1, 1.6, 151).tolist()
        for g in irradiances:
            cell.open_circuit_voltage(g)
        # The plain bisection solves ~31 times per Voc.
        assert len(calls) <= 8 * len(irradiances)

    @pytest.mark.parametrize("irradiance", [1.0, 2.0])
    def test_clamp_band_keeps_the_solve_and_its_errors(self, irradiance):
        """With Rs = Rsh = 1 kOhm the Newton iterates cross the +-60
        exponent clamp and the loop cannot converge; the solve then
        falls back to its bracketed bisection.  The shortcut still calls
        the solve in that band, so it returns exactly the plain
        bisection's double, a true open circuit."""
        cell = replace(
            kxob22_cell(), series_resistance_ohm=1000.0, shunt_resistance_ohm=1000.0
        )
        voc = cell.open_circuit_voltage(irradiance)
        assert voc == bisection_voc(cell, irradiance)
        assert abs(cell.current_scalar(voc, irradiance)) < 1e-9

    @pytest.mark.parametrize("seed", [3])
    def test_random_cells_match_wherever_the_plain_bisection_converges(
        self, seed, monkeypatch
    ):
        """Cells with Rs up to 100 kOhm, Rsh down to 1 Ohm and I0 down to
        1e-30 A.  The plain bisection converges on every cell (a Newton
        solve that exhausts its budget falls back to the bracketed
        bisection) and the shortcut returns the same double.  Over a
        hundred cells need that fallback."""
        fallback_cells = set()
        bracketed = cell_module._bracketed_current

        def counting(*args):
            fallback_cells.add(index)
            return bracketed(*args)

        monkeypatch.setattr(cell_module, "_bracketed_current", counting)
        rng = np.random.default_rng(seed)
        for index in range(2_000):
            cell = SingleDiodeCell(
                photo_current_full_sun_a=10 ** rng.uniform(-4, -1),
                saturation_current_a=10 ** rng.uniform(-30, -6),
                ideality_factor=rng.uniform(1.0, 2.0),
                series_cells=int(rng.integers(1, 4)),
                series_resistance_ohm=10 ** rng.uniform(-1, 5),
                shunt_resistance_ohm=10 ** rng.uniform(0, 5),
            )
            g = 10 ** rng.uniform(-3, 0.3)
            plain = bisection_voc(cell, g)
            assert cell.open_circuit_voltage(g) == plain, (cell, g)
            assert 0.0 < plain < cell.diode_scale_v * np.log1p(
                cell.photo_current(g) / cell.saturation_current_a
            )
        assert len(fallback_cells) > 100

    def test_settled_sign_needs_no_converging_solve(self, monkeypatch):
        """Rs = 1.46 kOhm: Newton iterates seeded at ``Iph`` cross the
        +-60 clamp and one plain-bisection solve exhausts its Newton
        budget, although the root's exponent is far below the clamp.
        The residual settles that step's sign, so the shortcut needs no
        fallback solve, and it returns the plain bisection's double: a
        true open circuit, where the zero-current residual vanishes."""
        cell = SingleDiodeCell(
            photo_current_full_sun_a=milli_amps(11.33),
            saturation_current_a=micro_amps(7.1e-7),
            ideality_factor=1.366,
            series_cells=2,
            series_resistance_ohm=1460.0,
            shunt_resistance_ohm=350.0,
        )
        fallbacks = []
        bracketed = cell_module._bracketed_current

        def counting(*args):
            fallbacks.append(args)
            return bracketed(*args)

        monkeypatch.setattr(cell_module, "_bracketed_current", counting)
        plain = bisection_voc(cell, 0.43)
        assert len(fallbacks) >= 1
        del fallbacks[:]
        voc = cell.open_circuit_voltage(0.43)
        assert fallbacks == []
        assert voc == plain
        residual = (
            cell.photo_current(0.43)
            - cell.saturation_current_a * np.expm1(voc / cell.diode_scale_v)
            - voc / cell.shunt_resistance_ohm
        )
        assert abs(residual) < 1e-11

    def test_clamped_exponent_falls_back_to_the_solve(self):
        """A cell whose bracket reaches the +-60 exponent clamp still
        matches the plain bisection (its steps there call the solve)."""
        cell = SingleDiodeCell(
            photo_current_full_sun_a=milli_amps(10.0),
            saturation_current_a=micro_amps(1e-24),
        )
        for g in (0.2, 1.0, 2.0):
            assert cell.open_circuit_voltage(g) == bisection_voc(cell, g)


def found_cell(**changes):
    """The paper cell with Rs = Rsh = 1 kOhm: its Newton iterates cross
    the +-60 exponent clamp at most lights."""
    return replace(
        kxob22_cell(),
        series_resistance_ohm=1000.0,
        shunt_resistance_ohm=1000.0,
        **changes,
    )


def clamped_residual(cell, voltage, irradiance, current):
    """The Newton solve's residual, exponent clamped to +-60."""
    diode_v = voltage + current * cell.series_resistance_ohm
    exponent = min(max(diode_v / cell.diode_scale_v, -60.0), 60.0)
    return (
        cell.photo_current(irradiance)
        - cell.saturation_current_a * (float(np.exp(exponent)) - 1.0)
        - diode_v / cell.shunt_resistance_ohm
        - current
    )


class TestClampFallback:
    """Where the Newton loop exhausts its budget, the solve bisects the
    same clamped residual instead of raising; every converging point
    keeps its double, and the array kernel matches the scalar solve."""

    IRRADIANCES = (0.05, 0.3, 1.0, 2.0)

    @pytest.mark.parametrize("irradiance", IRRADIANCES)
    def test_found_cell_has_a_finite_voc(self, irradiance):
        cell = found_cell()
        voc = cell.open_circuit_voltage(irradiance)
        assert np.isfinite(voc) and voc > 0.0
        assert abs(cell.current_scalar(voc, irradiance)) < 1e-9

    @pytest.mark.parametrize("i0", [3e-8, 1e-28])
    def test_scalar_equals_array_on_the_found_cell(self, i0, monkeypatch):
        cell = found_cell(saturation_current_a=i0)
        voltages = np.linspace(-0.5, 2.5, 61)
        irradiances = np.array(self.IRRADIANCES)[:, None]
        fallbacks = []
        bracketed = cell_module._bracketed_current

        def counting(*args):
            fallbacks.append(args)
            return bracketed(*args)

        monkeypatch.setattr(cell_module, "_bracketed_current", counting)
        grid = cell.current(voltages, irradiances)
        assert len(fallbacks) > 10
        scalar = np.array(
            [
                [cell.current_scalar(v, g) for v in voltages.tolist()]
                for g in self.IRRADIANCES
            ]
        )
        assert grid.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("i0", [3e-8, 1e-28])
    def test_fallback_brackets_the_root(self, i0):
        """The clamped residual changes sign across the returned current."""
        cell = found_cell(saturation_current_a=i0)
        for g in self.IRRADIANCES:
            for v in np.linspace(0.0, 2.0, 21).tolist():
                current = cell.current_scalar(v, g)
                assert clamped_residual(cell, v, g, current - 2e-12) > 0.0
                assert clamped_residual(cell, v, g, current + 2e-12) < 0.0

    def test_sweep_never_raises(self):
        """Rs x Rsh x I0 x light: 384 cells, each with a finite Voc (164
        raised before the fallback)."""
        for rs in (50.0, 200.0, 1e3, 3e3, 1e4, 1e5):
            for rsh in (10.0, 100.0, 1e3, 8e3):
                for i0 in (3e-8, 1e-12, 1e-20, 1e-28):
                    cell = replace(
                        kxob22_cell(),
                        series_resistance_ohm=rs,
                        shunt_resistance_ohm=rsh,
                        saturation_current_a=i0,
                    )
                    for g in self.IRRADIANCES:
                        voc = cell.open_circuit_voltage(g)
                        assert 0.0 < voc < cell.diode_scale_v * np.log1p(
                            cell.photo_current(g) / i0
                        )

    def test_non_finite_input_still_raises(self):
        cell = found_cell()
        with pytest.raises(ConvergenceError):
            cell.current_scalar(float("nan"), 1.0)
        with pytest.raises(ConvergenceError):
            cell.current(np.array([0.5, float("nan")]), 1.0)


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
