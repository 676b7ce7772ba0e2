"""Tests for the thermoelectric generator and harvester generality."""

import numpy as np
import pytest

from repro.core.operating_point import OperatingPointOptimizer
from repro.core.system import EnergyHarvestingSoC
from repro.errors import ModelParameterError
from repro.harvesters import Harvester, ThermoelectricGenerator, wearable_teg
from repro.processor.energy import paper_processor
from repro.pv.cell import kxob22_cell
from repro.pv.mpp import find_mpp, find_mpps
from repro.regulators.buck import paper_buck
from repro.regulators.bypass import BypassPath
from repro.regulators.switched_capacitor import paper_switched_capacitor


@pytest.fixture(scope="module")
def teg():
    return wearable_teg()


class TestConstruction:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ModelParameterError):
            ThermoelectricGenerator(0.0, 10.0, 18.0)
        with pytest.raises(ModelParameterError):
            ThermoelectricGenerator(0.05, 0.0, 18.0)
        with pytest.raises(ModelParameterError):
            ThermoelectricGenerator(0.05, 10.0, 0.0)


class TestElectricalModel:
    def test_linear_iv(self, teg):
        voc = teg.open_circuit_voltage()
        assert teg.current(0.0) == pytest.approx(teg.short_circuit_current())
        assert teg.current(voc) == pytest.approx(0.0, abs=1e-12)
        assert teg.current(voc / 2) == pytest.approx(
            teg.short_circuit_current() / 2
        )

    def test_negative_current_past_voc(self, teg):
        assert teg.current(teg.open_circuit_voltage() + 0.1) < 0.0

    def test_vectorised(self, teg):
        result = teg.current(np.array([0.0, 0.5, 1.0]))
        assert result.shape == (3,)
        assert np.all(np.diff(result) < 0.0)

    def test_voc_scales_linearly_with_intensity(self, teg):
        assert teg.open_circuit_voltage(0.5) == pytest.approx(
            0.5 * teg.open_circuit_voltage(1.0)
        )

    def test_rejects_negative_intensity(self, teg):
        with pytest.raises(ModelParameterError):
            teg.open_circuit_voltage(-0.1)


class TestMppClosedForm:
    def test_mpp_at_half_voc(self, teg):
        """The generic MPP solver lands on the TEG's matched-load
        optimum -- a different fraction of Voc than the solar cell's,
        found by the same code."""
        mpp = find_mpp(teg, 1.0)
        assert mpp.voltage_v == pytest.approx(teg.mpp_voltage(), rel=1e-3)
        assert mpp.power_w == pytest.approx(teg.mpp_power(), rel=1e-4)

    def test_solar_mpp_fraction_differs(self, teg):
        """Solar Vmpp/Voc ~ 0.8, TEG exactly 0.5: the shapes differ."""
        cell = kxob22_cell()
        solar_fraction = (
            find_mpp(cell).voltage_v / cell.open_circuit_voltage()
        )
        teg_fraction = find_mpp(teg).voltage_v / teg.open_circuit_voltage()
        assert teg_fraction == pytest.approx(0.5, abs=0.01)
        assert solar_fraction > 0.7

    def test_batched_search_takes_the_generic_rows(self, teg, monkeypatch):
        """A TEG has no single-diode grid: ``find_mpps`` searches it row
        by row through ``power``, and every row is its lone search."""
        grids = []
        power = ThermoelectricGenerator.power

        def counting_power(self, voltage, irradiance=1.0):
            grids.append(np.shape(voltage))
            return power(self, voltage, irradiance)

        intensities = [0.25, 1.0, 0.0, 0.25, 1.2]
        lone = [find_mpp(teg, g) for g in intensities]
        monkeypatch.setattr(ThermoelectricGenerator, "power", counting_power)
        batch = find_mpps(teg, intensities)
        assert batch == lone
        # One 64-point grid per lit row, then scalar polish calls.
        assert grids[:4] == [(64,)] * 4
        assert all(shape == () for shape in grids[4:])
        for mpp, g in zip(batch, intensities):
            assert mpp.power_w == pytest.approx(teg.mpp_power(g), rel=1e-4, abs=0)

    def test_protocol_conformance(self, teg):
        assert isinstance(teg, Harvester)
        assert isinstance(kxob22_cell(), Harvester)


class TestSystemIntegration:
    @pytest.fixture(scope="class")
    def teg_system(self):
        """The paper's chip powered by body heat instead of light."""
        return EnergyHarvestingSoC(
            cell=wearable_teg(),
            processor=paper_processor(),
            regulators={
                "sc": paper_switched_capacitor(),
                "buck": paper_buck(),
                "bypass": BypassPath(),
            },
            comparator_thresholds_v=(0.70, 0.60, 0.50),
        )

    def test_holistic_point_exists(self, teg_system):
        optimizer = OperatingPointOptimizer(teg_system)
        point = optimizer.best_point("sc", 1.0)
        assert point.frequency_hz > 0.0
        assert point.extracted_power_w <= teg_system.mpp(1.0).power_w * (
            1 + 1e-9
        )

    def test_bypass_wins_for_the_linear_source(self, teg_system):
        """The paper's solar conclusion does NOT transfer to a TEG --
        and the holistic optimizer knows it.  The TEG's power parabola
        is flat around its matched-load peak, so direct connection
        already extracts almost all of the MPP power and the
        converter's overhead cannot pay for itself: the per-condition
        bypass decision flips to bypass."""
        optimizer = OperatingPointOptimizer(teg_system)
        raw = optimizer.unregulated_point(1.0)
        mpp = teg_system.mpp(1.0)
        # Direct connection extracts >90% of the TEG's MPP power.
        assert raw.extracted_power_w > 0.90 * mpp.power_w
        best = optimizer.best_point("sc", 1.0)
        assert best.bypassed

    def test_solar_decision_differs_from_teg_decision(self, teg_system):
        """Same chip, same optimizer, different harvester: the solar
        system regulates at full intensity, the TEG system bypasses."""
        from repro.core.system import paper_system

        solar_best = OperatingPointOptimizer(paper_system()).best_point(
            "sc", 1.0
        )
        teg_best = OperatingPointOptimizer(teg_system).best_point("sc", 1.0)
        assert not solar_best.bypassed
        assert teg_best.bypassed

    def test_forecast_income_is_the_matched_load_power(self, teg_system):
        from repro.planner.forecast import bin_trace
        from repro.pv.traces import step_trace

        forecast = bin_trace(step_trace(1.0, 0.5, 4e-3, 8e-3), teg_system, 1e-3)
        teg = teg_system.cell
        assert forecast.income_j[0] == pytest.approx(teg.mpp_power(1.0) * 1e-3)
        assert forecast.income_j[-1] == pytest.approx(teg.mpp_power(0.5) * 1e-3)

    def test_mpp_lut_builds(self, teg_system):
        lut = teg_system.build_mpp_lut(points=8)
        low, high = lut.power_range_w
        assert 0.0 < low < high
