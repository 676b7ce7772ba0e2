"""Tests for the combined processor model and the conventional MEP."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelParameterError, OperatingRangeError
from repro.processor.energy import ProcessorModel, paper_processor
from repro.processor.frequency import FrequencyModel
from repro.processor.power import DynamicPowerModel, LeakageModel
from tests.golden.builders import MEP_REFERENCE_ACTIVITIES

MINIMIZE_REFERENCE = json.loads(
    (
        Path(__file__).resolve().parents[1]
        / "golden"
        / "bounded_minimize_reference.json"
    ).read_text()
)


@pytest.fixture(scope="module")
def proc():
    return paper_processor()


class TestConstruction:
    def test_rejects_bad_window(self):
        with pytest.raises(ModelParameterError):
            ProcessorModel(
                frequency=FrequencyModel(drive_scale_hz=1e7),
                dynamic=DynamicPowerModel(1e-12),
                leakage=LeakageModel(1e-6),
                min_operating_v=0.9,
                max_operating_v=0.5,
            )


class TestForwardModels:
    def test_power_is_dynamic_plus_leakage(self, proc):
        v, f = 0.6, 200e6
        expected = float(proc.dynamic.power(v, f)) + float(proc.leakage.power(v))
        assert float(proc.power(v, f)) == pytest.approx(expected)

    def test_max_power_uses_max_frequency(self, proc):
        v = 0.7
        assert float(proc.max_power(v)) == pytest.approx(
            float(proc.power(v, proc.max_frequency(v)))
        )

    def test_voltage_window_enforced(self, proc):
        with pytest.raises(OperatingRangeError):
            proc.max_frequency(proc.min_operating_v - 0.05)
        with pytest.raises(OperatingRangeError):
            proc.max_frequency(proc.max_operating_v + 0.05)

    def test_energy_breakdown_sums(self, proc):
        breakdown = proc.energy_breakdown(0.5)
        assert breakdown.total_j == pytest.approx(
            breakdown.dynamic_j + breakdown.leakage_j
        )
        assert breakdown.frequency_hz == pytest.approx(
            float(proc.max_frequency(0.5))
        )

    def test_energy_breakdown_at_reduced_clock(self, proc):
        full = proc.energy_breakdown(0.5)
        slow = proc.energy_breakdown(0.5, frequency_hz=full.frequency_hz / 4)
        assert slow.dynamic_j == pytest.approx(full.dynamic_j)
        assert slow.leakage_j == pytest.approx(4.0 * full.leakage_j)


class TestInverseProblems:
    def test_frequency_for_power_round_trip(self, proc):
        v = 0.6
        f = proc.frequency_for_power(v, 3e-3)
        assert float(proc.power(v, f)) == pytest.approx(3e-3, rel=1e-9)

    def test_frequency_for_power_clamps_at_fmax(self, proc):
        v = 0.6
        f = proc.frequency_for_power(v, 1.0)  # a watt: far beyond need
        assert f == pytest.approx(float(proc.max_frequency(v)))

    def test_frequency_zero_when_leakage_exceeds_budget(self, proc):
        v = 0.8
        leak = float(proc.leakage.power(v))
        assert proc.frequency_for_power(v, leak * 0.5) == 0.0

    def test_rejects_negative_budget(self, proc):
        with pytest.raises(OperatingRangeError):
            proc.frequency_for_power(0.6, -1e-3)

    def test_voltage_for_frequency_respects_window(self, proc):
        v = proc.voltage_for_frequency(1e6)  # trivially slow
        assert v >= proc.min_operating_v

    @given(st.floats(0.3, 1.0), st.floats(1e-4, 20e-3))
    @settings(max_examples=40, deadline=None)
    def test_frequency_for_power_within_budget(self, voltage, budget):
        proc = paper_processor()
        f = proc.frequency_for_power(voltage, budget)
        if f > 0.0:
            assert float(proc.power(voltage, f)) <= budget * (1.0 + 1e-9)


class TestConventionalMep:
    def test_is_interior_minimum(self, proc):
        mep = proc.conventional_mep()
        assert proc.min_operating_v < mep.voltage_v < proc.max_operating_v
        eps = 5e-3
        assert float(proc.energy_per_cycle(mep.voltage_v - eps)) >= (
            mep.energy_per_cycle_j * (1.0 - 1e-6)
        )
        assert float(proc.energy_per_cycle(mep.voltage_v + eps)) >= (
            mep.energy_per_cycle_j * (1.0 - 1e-6)
        )

    def test_paper_region(self, proc):
        """Fig. 11(a): the conventional MEP sits near 0.3 V."""
        mep = proc.conventional_mep()
        assert 0.22 <= mep.voltage_v <= 0.40

    def test_beats_dense_grid(self, proc):
        mep = proc.conventional_mep()
        grid = np.linspace(proc.min_operating_v, proc.max_operating_v, 1500)
        best = float(np.min(proc.energy_per_cycle(grid)))
        assert mep.energy_per_cycle_j <= best * (1.0 + 1e-6)

    def test_window_restriction_respected(self, proc):
        mep = proc.conventional_mep(low_v=0.5, high_v=0.9)
        assert 0.5 <= mep.voltage_v <= 0.9

    def test_rejects_bad_window(self, proc):
        with pytest.raises(ModelParameterError):
            proc.conventional_mep(low_v=0.9, high_v=0.5)


    @pytest.mark.parametrize("activity", MEP_REFERENCE_ACTIVITIES)
    def test_matches_frozen_reference_exactly(self, proc, activity):
        """Every recorded MEP is reproduced to the last bit.

        ``tests/golden/bounded_minimize_reference.json`` was frozen from
        scipy's bounded minimizer; the comparison has no tolerance.
        """
        model = proc.with_activity(activity)
        expected = MINIMIZE_REFERENCE["conventional_mep"][repr(activity)]
        for window, recorded in expected.items():
            low, high = (
                (None, None)
                if window == "full"
                else (float(bound) for bound in window.split(","))
            )
            mep = model.conventional_mep(low, high)
            assert {
                "voltage_v": mep.voltage_v,
                "energy_per_cycle_j": mep.energy_per_cycle_j,
                "frequency_hz": mep.frequency_hz,
            } == recorded, window


class TestPaperCalibration:
    def test_frame_time_anchor(self, proc):
        """~15 ms for one 64x64 frame at 0.5 V (Section VII)."""
        from repro.processor.workloads import image_frame_workload

        workload = image_frame_workload(None)
        time_s = workload.cycles / float(proc.max_frequency(0.5))
        assert 12e-3 <= time_s <= 18e-3

    def test_power_scale_at_intersection_region(self, proc):
        """Fig. 6(a): the max-speed power curve crosses the cell's
        current-limited region below the MPP voltage."""
        power = float(proc.max_power(0.62))
        assert 5e-3 <= power <= 12e-3


class TestWithActivity:
    def test_identity_for_same_activity(self, proc):
        assert proc.with_activity(proc.dynamic.activity) is proc

    def test_dynamic_power_scales_leakage_unchanged(self, proc):
        light = proc.with_activity(0.5)
        assert float(light.dynamic.power(0.6, 1e8)) == pytest.approx(
            0.5 * float(proc.dynamic.power(0.6, 1e8))
        )
        assert float(light.leakage.power(0.6)) == pytest.approx(
            float(proc.leakage.power(0.6))
        )
        assert float(light.max_frequency(0.6)) == pytest.approx(
            float(proc.max_frequency(0.6))
        )

    def test_lower_activity_lowers_the_mep(self, proc):
        """Less dynamic energy shifts the leakage/dynamic balance: the
        MEP moves up in voltage for low-activity workloads."""
        light = proc.with_activity(0.4)
        assert light.conventional_mep().voltage_v > proc.conventional_mep().voltage_v

    def test_rejects_invalid_activity(self, proc):
        from repro.errors import ModelParameterError

        with pytest.raises(ModelParameterError):
            proc.with_activity(0.0)

    def test_workload_activity_integration(self, proc):
        from repro.processor.workloads import standard_workloads

        filter_workload = [
            w for w in standard_workloads() if w.name == "sensor filter"
        ][0]
        scaled = proc.with_activity(filter_workload.activity)
        assert scaled.dynamic.activity == pytest.approx(0.6)
