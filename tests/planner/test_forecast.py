"""Forecast binning and seeded error injection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import paper_system
from repro.errors import ModelParameterError
from repro.planner.forecast import (
    PERFECT_FORECAST,
    ForecastErrorModel,
    bin_trace,
)
from repro.pv.traces import IrradianceTrace, constant_trace, step_trace


@pytest.fixture(scope="module")
def system():
    return paper_system()


class TestBinTrace:
    def test_slot_grid_covers_the_horizon(self, system):
        forecast = bin_trace(
            step_trace(0.5, 0.1, 10e-3, 40e-3), system, 2e-3
        )
        assert forecast.slots == 20
        assert forecast.slot_s == 2e-3
        assert forecast.slot_start_s(0) == 0.0
        assert forecast.slot_start_s(19) == pytest.approx(38e-3)

    def test_ragged_horizon_rounds_up(self, system):
        forecast = bin_trace(
            constant_trace(0.5, 5e-3), system, 2e-3
        )
        # 5 ms / 2 ms -> 3 slots, the last one partial.
        assert forecast.slots == 3

    def test_income_is_mpp_power_times_width(self, system):
        forecast = bin_trace(constant_trace(0.5, 10e-3), system, 2e-3)
        expected = system.mpp(0.5).power_w * 2e-3
        assert forecast.income_j[0] == pytest.approx(expected)
        assert forecast.total_income_j() == pytest.approx(5 * expected)

    def test_dark_slots_yield_zero_income(self, system):
        forecast = bin_trace(constant_trace(0.0, 4e-3), system, 2e-3)
        assert np.all(forecast.income_j == 0.0)

    def test_step_trace_bins_both_regimes(self, system):
        forecast = bin_trace(
            step_trace(0.5, 0.1, 10e-3, 20e-3), system, 2e-3
        )
        assert forecast.income_j[0] > forecast.income_j[-1] > 0.0

    def test_one_grid_solve_per_forecast(self, monkeypatch):
        """A fresh system characterizes a forecast's lit slots in one
        ``SingleDiodeCell.current`` call, one array grid solve."""
        import repro.pv.cell as cell_module
        from repro.pv.cell import SingleDiodeCell

        calls = []
        kernel = cell_module.newton_current
        current = SingleDiodeCell.current

        def counting_kernel(voltage, *args):
            calls.append(("newton_current", voltage.shape))
            return kernel(voltage, *args)

        def counting_current(self, voltage, irradiance=1.0):
            calls.append(("current", np.shape(voltage)))
            return current(self, voltage, irradiance)

        monkeypatch.setattr(cell_module, "newton_current", counting_kernel)
        monkeypatch.setattr(SingleDiodeCell, "current", counting_current)
        fresh = paper_system()
        # 0.5 for 10 ms, dark for 10 ms, then a 10 ms ramp to 0.8.
        trace = IrradianceTrace(
            (0.0, 10e-3, 10e-3 + 1e-9, 20e-3, 30e-3), (0.5, 0.5, 0.0, 0.0, 0.8)
        )
        forecast = bin_trace(trace, fresh, 1e-3)
        assert forecast.slots == 30
        # Slots 0-9 share one irradiance, slots 10-19 are dark except
        # the first (it holds the 1 ns edge), and the ramp's 10 slot
        # means are distinct.
        grid = [("current", (12, 64)), ("newton_current", (12, 64))]
        assert calls == grid
        assert np.all(forecast.income_j[11:20] == 0.0)
        bin_trace(trace, fresh, 1e-3)
        assert calls == grid

    def test_income_matches_per_slot_mpps(self, system):
        trace = step_trace(0.6, 0.05, 7e-3, 20e-3)
        forecast = bin_trace(trace, system, 1.5e-3)
        fresh = paper_system()
        for i, g in enumerate(forecast.irradiance):
            t0 = i * 1.5e-3
            t1 = min((i + 1) * 1.5e-3, 20e-3)
            assert g == float(trace.mean(t0, t1))
            assert forecast.income_j[i] == fresh.mpp(float(g)).power_w * (t1 - t0)

    def test_suffix_drops_leading_slots(self, system):
        forecast = bin_trace(constant_trace(0.5, 10e-3), system, 2e-3)
        suffix = forecast.suffix(3)
        assert suffix.slots == forecast.slots - 3
        assert suffix.start_s == forecast.slot_start_s(3)
        assert np.array_equal(suffix.income_j, forecast.income_j[3:])

    def test_rejects_nonpositive_slot(self, system):
        with pytest.raises(ModelParameterError):
            bin_trace(constant_trace(0.5, 10e-3), system, 0.0)


class TestForecastErrorModel:
    def test_perfect_model_is_identity(self, system):
        forecast = bin_trace(constant_trace(0.5, 10e-3), system, 2e-3)
        distorted = PERFECT_FORECAST.apply(forecast)
        assert np.array_equal(distorted.income_j, forecast.income_j)

    def test_pure_bias_scales_income(self, system):
        forecast = bin_trace(constant_trace(0.5, 10e-3), system, 2e-3)
        distorted = ForecastErrorModel(bias=-0.25).apply(forecast)
        assert np.allclose(
            distorted.income_j, 0.75 * forecast.income_j
        )

    def test_seed_determinism(self, system):
        forecast = bin_trace(constant_trace(0.5, 10e-3), system, 2e-3)
        model = ForecastErrorModel(noise_sigma=0.3, seed=11)
        first = model.apply(forecast)
        second = model.apply(forecast)
        assert np.array_equal(first.income_j, second.income_j)

    def test_different_seeds_differ(self, system):
        forecast = bin_trace(constant_trace(0.5, 10e-3), system, 2e-3)
        a = ForecastErrorModel(noise_sigma=0.3, seed=1).apply(forecast)
        b = ForecastErrorModel(noise_sigma=0.3, seed=2).apply(forecast)
        assert not np.array_equal(a.income_j, b.income_j)

    @settings(max_examples=30, deadline=None)
    @given(
        bias=st.floats(-0.99, 2.0, allow_nan=False),
        sigma=st.floats(0.0, 2.0, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_distorted_income_never_negative(self, bias, sigma, seed):
        system = paper_system()
        forecast = bin_trace(constant_trace(0.5, 10e-3), system, 2e-3)
        distorted = ForecastErrorModel(
            bias=bias, noise_sigma=sigma, seed=seed
        ).apply(forecast)
        assert np.all(distorted.income_j >= 0.0)
        assert distorted.slots == forecast.slots

    def test_rejects_negative_sigma(self):
        with pytest.raises(ModelParameterError):
            ForecastErrorModel(noise_sigma=-0.1)
