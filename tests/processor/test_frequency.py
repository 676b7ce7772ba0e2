"""Tests for the frequency-versus-voltage model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelParameterError, OperatingRangeError
from repro.processor.frequency import FrequencyModel
from repro.processor.energy import paper_processor
from repro.units import mega_hertz


@pytest.fixture(scope="module")
def model():
    return paper_processor().frequency


class TestConstruction:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ModelParameterError):
            FrequencyModel(drive_scale_hz=0.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ModelParameterError):
            FrequencyModel(drive_scale_hz=1e7, threshold_v=0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ModelParameterError):
            FrequencyModel(drive_scale_hz=1e7, alpha=-1.0)

    def test_rejects_slope_factor_below_one(self):
        with pytest.raises(ModelParameterError):
            FrequencyModel(drive_scale_hz=1e7, subthreshold_slope_factor=0.9)


class TestShape:
    def test_monotone_increasing(self, model):
        voltages = np.linspace(0.1, 1.1, 60)
        freqs = model.max_frequency(voltages)
        assert np.all(np.diff(freqs) > 0.0)

    def test_subthreshold_is_exponential(self, model):
        """Below Vth, equal voltage steps multiply frequency."""
        f1 = model.max_frequency(0.14)
        f2 = model.max_frequency(0.18)
        f3 = model.max_frequency(0.22)
        ratio_a = f2 / f1
        ratio_b = f3 / f2
        # Exponential growth: successive ratios are roughly equal and large.
        assert ratio_a > 1.5
        assert ratio_b == pytest.approx(ratio_a, rel=0.35)

    def test_super_threshold_is_polynomial(self, model):
        """Well above Vth growth is much milder than exponential."""
        assert model.max_frequency(1.0) / model.max_frequency(0.9) < 1.3

    def test_below_functional_minimum_rejected(self, model):
        with pytest.raises(OperatingRangeError):
            model.max_frequency(0.01)

    def test_scalar_and_array_forms_agree(self, model):
        scalar = model.max_frequency(0.6)
        array = model.max_frequency(np.array([0.6]))
        assert scalar == pytest.approx(float(array[0]))


class TestPaperCalibration:
    def test_400mhz_at_half_volt(self, model):
        """Section VII: a 64x64 frame in ~15 ms at 0.5 V -> ~400 MHz."""
        assert model.max_frequency(0.5) == pytest.approx(400e6, rel=0.05)

    def test_around_a_gigahertz_at_one_volt(self, model):
        """Fig. 11(a): the chip's clock reaches ~1 GHz near 1 V."""
        assert 0.85e9 <= model.max_frequency(1.0) <= 1.25e9


class TestInverse:
    def test_voltage_for_frequency_round_trip(self, model):
        v = model.voltage_for_frequency(300e6)
        assert model.max_frequency(v) == pytest.approx(300e6, rel=1e-4)

    def test_unreachable_frequency_rejected(self, model):
        with pytest.raises(OperatingRangeError):
            model.voltage_for_frequency(100e9)

    def test_nonpositive_frequency_rejected(self, model):
        with pytest.raises(OperatingRangeError):
            model.voltage_for_frequency(0.0)

    @given(st.floats(10e6, 900e6))
    @settings(max_examples=40, deadline=None)
    def test_inverse_is_lowest_sufficient_voltage(self, frequency):
        model = paper_processor().frequency
        v = model.voltage_for_frequency(frequency)
        assert model.max_frequency(v) >= frequency * (1.0 - 1e-6)
        if v - 1e-3 >= model.min_voltage_v:
            assert model.max_frequency(v - 1e-3) < frequency


class TestLinearisation:
    def test_fit_matches_curve_in_window(self, model):
        fit = model.linearize(0.5, 0.8)
        for v in (0.5, 0.65, 0.8):
            assert fit.frequency(v) == pytest.approx(
                float(model.max_frequency(v)), rel=0.08
            )

    def test_fit_slope_positive(self, model):
        fit = model.linearize(0.4, 0.9)
        assert fit.slope_hz_per_v > 0.0

    def test_fit_inverse(self, model):
        fit = model.linearize(0.5, 0.8)
        f = fit.frequency(0.65)
        assert fit.voltage_for_frequency(f) == pytest.approx(0.65, rel=1e-9)

    def test_rejects_bad_window(self, model):
        with pytest.raises(ModelParameterError):
            model.linearize(0.8, 0.5)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _window_voltages(rng, low, high, count=100_000):
    """``count`` random voltages across ``[low, high]`` plus the edges."""
    edges = [
        low, np.nextafter(low, np.inf), np.nextafter(high, -np.inf), high,
    ]
    return np.concatenate([rng.uniform(low, high, count), edges])


class TestScalarPathContract:
    """A float takes the scalar path, which must return the exact bits
    of its element of the array path, raise on exactly the inputs the
    array path raises on, and pass NaN through unraised."""

    @pytest.mark.parametrize("seed", [1])
    def test_frequency_model_scalar_equals_array_element(self, model, seed):
        # 0.05-1.4 V spans the functional minimum up to far past the
        # processor window, through both EKV regimes.
        voltages = _window_voltages(
            np.random.default_rng(seed), model.min_voltage_v, 1.4
        )
        scalar = [model.max_frequency(float(v)) for v in voltages]
        assert all(type(f) is float for f in scalar[:100])
        np.testing.assert_array_equal(
            _bits(scalar), _bits(model.max_frequency(voltages))
        )

    @pytest.mark.parametrize("seed", [2])
    def test_processor_scalar_equals_array_element(self, seed):
        processor = paper_processor()
        voltages = _window_voltages(
            np.random.default_rng(seed),
            processor.min_operating_v,
            processor.max_operating_v,
        )
        scalar = [processor.max_frequency(float(v)) for v in voltages]
        np.testing.assert_array_equal(
            _bits(scalar), _bits(processor.max_frequency(voltages))
        )

    @pytest.mark.parametrize("seed", [3])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 2.0, 2.5])
    def test_contract_holds_for_any_alpha(self, alpha, seed):
        """Both paths call ``np.power`` (never ``**``, which numpy
        routes to ``sqrt``/``square`` at 0.5/2 on arrays and to scalar
        math on numpy floats), so every alpha agrees."""
        model = FrequencyModel(drive_scale_hz=mega_hertz(30.0), alpha=alpha)
        voltages = _window_voltages(
            np.random.default_rng(seed), model.min_voltage_v, 1.4, count=5_000
        )
        scalar = [model.max_frequency(float(v)) for v in voltages]
        np.testing.assert_array_equal(
            _bits(scalar), _bits(model.max_frequency(voltages))
        )

    def test_clip_edges(self, model):
        """Voltages whose EKV argument lands on or next to the +-60
        clip take the same branch in both paths."""
        scale = model._ekv_scale_v
        voltages = []
        for bound in (-60.0, 60.0):
            v = model.threshold_v + bound * scale
            voltages += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
        voltages = np.array([v for v in voltages if v >= model.min_voltage_v])
        assert voltages.size >= 3
        scalar = [model.max_frequency(float(v)) for v in voltages]
        np.testing.assert_array_equal(
            _bits(scalar), _bits(model.max_frequency(voltages))
        )

    def test_frequency_model_raises_where_array_raises(self, model):
        low = model.min_voltage_v
        for v in (np.nextafter(low, -np.inf), 0.0, -1.0, -np.inf):
            with pytest.raises(OperatingRangeError):
                model.max_frequency(float(v))
            with pytest.raises(OperatingRangeError):
                model.max_frequency(np.array([v]))
        # The edge itself and +inf are accepted by both.
        for v in (low, np.inf):
            assert _bits([model.max_frequency(float(v))]) == _bits(
                model.max_frequency(np.array([v]))
            )

    def test_processor_raises_where_array_raises(self):
        processor = paper_processor()
        low, high = processor.min_operating_v, processor.max_operating_v
        outside = (
            np.nextafter(low, -np.inf), np.nextafter(high, np.inf),
            0.0, 2.0, -np.inf, np.inf,
        )
        for v in outside:
            with pytest.raises(OperatingRangeError):
                processor.max_frequency(float(v))
            with pytest.raises(OperatingRangeError):
                processor.max_frequency(np.array([v]))
        for v in (low, high):
            processor.max_frequency(float(v))
            processor.max_frequency(np.array([v]))

    def test_nan_passes_through(self, model):
        processor = paper_processor()
        for max_frequency in (model.max_frequency, processor.max_frequency):
            assert np.isnan(max_frequency(float("nan")))
            assert np.isnan(max_frequency(np.array([np.nan]))[0])

    def test_float_never_reaches_the_array_path(self, model, monkeypatch):
        processor = paper_processor()

        def array_machinery(*args, **kwargs):
            raise AssertionError("array path taken for a float")

        for name in ("atleast_1d", "asarray", "any", "clip"):
            monkeypatch.setattr(np, name, array_machinery)
        assert model.max_frequency(0.5) > 0.0
        assert processor.max_frequency(0.5) == model.max_frequency(0.5)

    def test_int_and_numpy_float_take_the_scalar_path(self, model):
        assert model.max_frequency(1) == model.max_frequency(1.0)
        assert model.max_frequency(np.float64(0.6)) == model.max_frequency(0.6)
        assert type(model.max_frequency(np.float64(0.6))) is float
        # 0-d arrays and other numpy scalars still return a float.
        assert type(model.max_frequency(np.array(0.6))) is float
        assert model.max_frequency(np.float32(0.5)) == float(
            model.max_frequency(np.array([np.float32(0.5)]))[0]
        )
