"""Tests for threshold comparators."""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import ModelParameterError
from repro.monitor.comparator import (
    NOISE_BLOCK,
    ComparatorBank,
    CrossingEvent,
    ThresholdComparator,
)
from repro.units import milli_volts


class TestThresholdComparator:
    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ModelParameterError):
            ThresholdComparator(0.0)

    def test_first_sample_sets_state_without_event(self):
        comp = ThresholdComparator(1.0)
        assert comp.observe(0.0, 1.2) is None

    def test_falling_crossing(self):
        comp = ThresholdComparator(1.0, hysteresis_v=0.01)
        comp.observe(0.0, 1.2)
        event = comp.observe(1.0, 0.98)
        assert event is not None
        assert event.direction == "falling"
        assert event.threshold_v == 1.0
        assert event.time_s == 1.0

    def test_rising_crossing(self):
        comp = ThresholdComparator(1.0, hysteresis_v=0.01)
        comp.observe(0.0, 0.8)
        event = comp.observe(1.0, 1.02)
        assert event.direction == "rising"

    def test_hysteresis_suppresses_chatter(self):
        comp = ThresholdComparator(1.0, hysteresis_v=0.05)
        comp.observe(0.0, 1.2)
        assert comp.observe(1.0, 0.99) is None  # inside the band
        assert comp.observe(2.0, 1.01) is None
        assert comp.observe(3.0, 0.97).direction == "falling"

    def test_no_repeat_event_without_recrossing(self):
        comp = ThresholdComparator(1.0, hysteresis_v=0.01)
        comp.observe(0.0, 1.2)
        assert comp.observe(1.0, 0.9) is not None
        assert comp.observe(2.0, 0.8) is None

    def test_reset_forgets_state(self):
        comp = ThresholdComparator(1.0)
        comp.observe(0.0, 1.2)
        comp.reset()
        assert comp.observe(1.0, 0.5) is None  # first sample again


class TestCrossingEvent:
    def test_rejects_bad_direction(self):
        with pytest.raises(ModelParameterError):
            CrossingEvent(0.0, 1.0, "sideways")


class TestComparatorBank:
    def test_rejects_empty(self):
        with pytest.raises(ModelParameterError):
            ComparatorBank([])

    def test_rejects_duplicate_thresholds(self):
        with pytest.raises(ModelParameterError):
            ComparatorBank([1.0, 1.0])

    def test_thresholds_sorted_highest_first(self):
        bank = ComparatorBank([0.9, 1.1, 1.0])
        assert bank.thresholds_v == (1.1, 1.0, 0.9)

    def test_total_power_counts_all(self):
        bank = ComparatorBank([0.9, 1.1, 1.0])
        assert bank.total_power_w == pytest.approx(3 * 0.1e-6)

    def test_discharge_produces_ordered_falling_events(self):
        bank = ComparatorBank([1.1, 1.0, 0.9], hysteresis_v=0.001)
        voltage = 1.2
        t = 0.0
        while voltage > 0.8:
            bank.observe(t, voltage)
            voltage -= 0.01
            t += 1.0
        directions = [e.direction for e in bank.history]
        thresholds = [e.threshold_v for e in bank.history]
        assert directions == ["falling"] * 3
        assert thresholds == [1.1, 1.0, 0.9]

    def test_last_falling_interval(self):
        bank = ComparatorBank([1.1, 1.0, 0.9], hysteresis_v=0.001)
        samples = [(0.0, 1.2), (1.0, 1.05), (3.0, 0.95), (6.0, 0.85)]
        for t, v in samples:
            bank.observe(t, v)
        interval = bank.last_falling_interval(1.0, 0.9)
        assert interval == (3.0, 6.0)

    def test_last_falling_interval_none_before_crossings(self):
        bank = ComparatorBank([1.0, 0.9])
        bank.observe(0.0, 1.2)
        assert bank.last_falling_interval(1.0, 0.9) is None

    def test_reset_clears_history(self):
        bank = ComparatorBank([1.0])
        bank.observe(0.0, 1.2)
        bank.observe(1.0, 0.8)
        assert bank.history
        bank.reset()
        assert not bank.history


class ScalarDrawComparator(ThresholdComparator):
    """The noise stream drawn one scalar at a time (the reference)."""

    def _next_noise(self, rng):
        return float(rng.standard_normal())


def noisy_pair(seed=5):
    kwargs = dict(
        hysteresis_v=milli_volts(2.0),
        offset_v=milli_volts(1.0),
        noise_sigma_v=milli_volts(4.0),
        seed=seed,
    )
    return ThresholdComparator(1.0, **kwargs), ScalarDrawComparator(1.0, **kwargs)


def wobble(count, phase=0.0):
    """Samples swinging around the 1 V threshold so events keep firing."""
    t = np.arange(count) * 1e-3 + phase
    return list(zip(t.tolist(), (1.0 + 8e-3 * np.sin(40.0 * t)).tolist()))


class TestNoiseBlocks:
    """Noise comes in blocks of NOISE_BLOCK draws, used in order: the
    same stream as one scalar draw per sample."""

    @pytest.mark.parametrize("seed", [9])
    def test_trip_points_equal_scalar_draws_across_blocks(self, seed):
        offset, sigma = milli_volts(1.0), milli_volts(4.0)
        comparator = ThresholdComparator(
            1.0, offset_v=offset, noise_sigma_v=sigma, seed=seed
        )
        rng = np.random.default_rng(seed)
        for _ in range(3 * NOISE_BLOCK + 7):
            expected = 1.0 + offset + sigma * float(rng.standard_normal())
            assert comparator._trip_voltage() == expected

    def test_events_equal_the_scalar_reference(self):
        blocked, scalar = noisy_pair()
        samples = wobble(5 * NOISE_BLOCK // 2)
        events = [blocked.observe(t, v) for t, v in samples]
        assert events == [scalar.observe(t, v) for t, v in samples]
        assert sum(e is not None for e in events) > 10

    def test_reset_mid_block_restarts_the_stream(self):
        blocked, scalar = noisy_pair()
        samples = wobble(NOISE_BLOCK + 40)
        for t, v in samples[: NOISE_BLOCK // 3]:
            blocked.observe(t, v)
        blocked.reset()
        assert [blocked.observe(t, v) for t, v in samples] == [
            scalar.observe(t, v) for t, v in samples
        ]

    @pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
    def test_copy_mid_block_continues_the_stream(self, clone):
        blocked, scalar = noisy_pair()
        head = wobble(NOISE_BLOCK + 44)
        for t, v in head:
            blocked.observe(t, v)
            scalar.observe(t, v)
        if clone == "pickle":
            copied = pickle.loads(pickle.dumps(blocked))
        else:
            copied = copy.deepcopy(blocked)
        tail = wobble(2 * NOISE_BLOCK, phase=1.0)
        expected = [scalar.observe(t, v) for t, v in tail]
        assert [copied.observe(t, v) for t, v in tail] == expected
        assert [blocked.observe(t, v) for t, v in tail] == expected

    def test_noiseless_comparator_draws_nothing(self):
        comparator = ThresholdComparator(1.0, seed=3)
        for t, v in wobble(10):
            comparator.observe(t, v)
        assert comparator._noise == []
