"""Tests for dynamic and leakage power models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelParameterError, OperatingRangeError
from repro.processor.power import DynamicPowerModel, LeakageModel


class TestDynamicPower:
    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ModelParameterError):
            DynamicPowerModel(effective_capacitance_f=0.0)

    def test_rejects_bad_activity(self):
        with pytest.raises(ModelParameterError):
            DynamicPowerModel(1e-12, activity=0.0)
        with pytest.raises(ModelParameterError):
            DynamicPowerModel(1e-12, activity=3.0)

    def test_energy_quadratic_in_voltage(self):
        model = DynamicPowerModel(10e-12)
        assert model.energy_per_cycle(1.0) == pytest.approx(10e-12)
        assert model.energy_per_cycle(0.5) == pytest.approx(2.5e-12)

    def test_power_is_energy_times_frequency(self):
        model = DynamicPowerModel(10e-12)
        assert model.power(0.8, 100e6) == pytest.approx(
            model.energy_per_cycle(0.8) * 100e6
        )

    def test_activity_scales_linearly(self):
        full = DynamicPowerModel(10e-12, activity=1.0)
        half = DynamicPowerModel(10e-12, activity=0.5)
        assert half.power(0.8, 1e8) == pytest.approx(0.5 * full.power(0.8, 1e8))

    def test_vectorised(self):
        model = DynamicPowerModel(10e-12)
        v = np.array([0.4, 0.8])
        energies = model.energy_per_cycle(v)
        assert energies.shape == (2,)
        assert energies[1] == pytest.approx(4.0 * energies[0])


class TestLeakage:
    def test_rejects_negative_current(self):
        with pytest.raises(ModelParameterError):
            LeakageModel(reference_current_a=-1e-6)

    def test_rejects_nonpositive_dibl(self):
        with pytest.raises(ModelParameterError):
            LeakageModel(1e-6, dibl_voltage_v=0.0)

    def test_current_grows_exponentially_with_supply(self):
        model = LeakageModel(100e-6, dibl_voltage_v=0.5)
        assert model.current(0.5) == pytest.approx(100e-6 * np.e)
        assert model.current(1.0) == pytest.approx(100e-6 * np.e**2)

    def test_power_is_v_times_i(self):
        model = LeakageModel(100e-6)
        assert model.power(0.6) == pytest.approx(0.6 * model.current(0.6))

    def test_energy_per_cycle_inverse_in_frequency(self):
        model = LeakageModel(100e-6)
        slow = model.energy_per_cycle(0.5, 10e6)
        fast = model.energy_per_cycle(0.5, 100e6)
        assert slow == pytest.approx(10.0 * fast)

    def test_energy_per_cycle_rejects_stopped_clock(self):
        model = LeakageModel(100e-6)
        with pytest.raises(OperatingRangeError):
            model.energy_per_cycle(0.5, 0.0)

    def test_zero_reference_current_is_leakage_free(self):
        model = LeakageModel(0.0)
        assert model.power(1.0) == 0.0

    @given(st.floats(0.1, 1.2), st.floats(1e6, 1e9))
    @settings(max_examples=40, deadline=None)
    def test_all_quantities_non_negative(self, voltage, frequency):
        model = LeakageModel(500e-6)
        assert model.current(voltage) >= 0.0
        assert model.power(voltage) >= 0.0
        assert model.energy_per_cycle(voltage, frequency) >= 0.0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestScalarProcessorPower:
    """``ProcessorModel.power`` on a float (or int) pair takes plain
    arithmetic, which must return the exact bits of its element of the
    array path."""

    @pytest.fixture(scope="class")
    def processor(self):
        from repro.processor.energy import paper_processor

        return paper_processor()

    @pytest.mark.parametrize("seed", [11])
    def test_scalar_equals_array_element(self, processor, seed):
        rng = np.random.default_rng(seed)
        low, high = processor.min_operating_v, processor.max_operating_v
        edges = [low, np.nextafter(low, np.inf), np.nextafter(high, -np.inf), high]
        voltages = np.concatenate([rng.uniform(low, high, 100_000), edges])
        frequencies = np.concatenate(
            [rng.uniform(0.0, 2.0, 100_000) * processor.max_frequency(high),
             [0.0, 1.0, 1e6, 1e8]]
        )
        scalar = [
            processor.power(float(v), float(f))
            for v, f in zip(voltages, frequencies)
        ]
        assert all(type(p) is float for p in scalar[:100])
        np.testing.assert_array_equal(
            _bits(scalar), _bits(processor.power(voltages, frequencies))
        )

    @pytest.mark.parametrize("seed", [5])
    def test_each_model_keeps_its_array_bits(self, processor, seed):
        """The float branches live in the two power models, each next
        to its array formula."""
        rng = np.random.default_rng(seed)
        voltages = rng.uniform(0.0, 1.5, 2_000)
        frequencies = rng.uniform(0.0, 2e8, 2_000)
        dynamic, leakage = processor.dynamic, processor.leakage
        for scalar, array in [
            (lambda v, f: dynamic.energy_per_cycle(v), dynamic.energy_per_cycle(voltages)),
            (dynamic.power, dynamic.power(voltages, frequencies)),
            (lambda v, f: leakage.current(v), leakage.current(voltages)),
            (lambda v, f: leakage.power(v), leakage.power(voltages)),
        ]:
            values = [scalar(float(v), float(f)) for v, f in zip(voltages, frequencies)]
            assert all(type(x) is float for x in values)
            np.testing.assert_array_equal(_bits(values), _bits(array))

    @pytest.mark.parametrize(
        "voltage, frequency", [(1, 10_000_000), (0, 5), (1, 0.5e8), (0.6, 3)]
    )
    def test_int_inputs_equal_the_array_path(self, processor, voltage, frequency):
        scalar = processor.power(voltage, frequency)
        assert type(scalar) is float
        assert _bits(scalar) == _bits(
            processor.power(np.array([voltage], dtype=float), np.array([frequency]))
        )[0]

    def test_array_and_mixed_inputs_keep_the_array_path(self, processor):
        result = processor.power(np.array([0.5, 0.6]), 1e7)
        assert isinstance(result, np.ndarray) and result.shape == (2,)
        zero_d = processor.power(np.array(0.5), 1e7)
        assert _bits(zero_d) == _bits(processor.power(0.5, 1e7))
