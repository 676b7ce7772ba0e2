"""Tests for threshold comparators."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class ScalarDrawComparator:
    """The reference comparator: one scalar noise draw per sample.

    A standalone copy of the comparator's semantics, kept apart from
    the library code so the blocked noise stream and the shared trip
    logic are checked against something other than themselves.
    """

    def __init__(
        self, threshold_v, hysteresis_v=5e-3, offset_v=0.0,
        noise_sigma_v=0.0, seed=None,
    ):
        self.threshold_v = threshold_v
        self.hysteresis_v = hysteresis_v
        self.offset_v = offset_v
        self.noise_sigma_v = noise_sigma_v
        self.seed = seed
        self.reset()

    def reset(self):
        self._state = None
        self.rng = (
            np.random.default_rng(self.seed) if self.seed is not None else None
        )
        self.draws = 0

    def observe(self, time_s, voltage_v):
        trip = self.threshold_v + self.offset_v
        if self.noise_sigma_v > 0.0 and self.rng is not None:
            trip += self.noise_sigma_v * float(self.rng.standard_normal())
            self.draws += 1
        if self._state is None:
            self._state = voltage_v >= trip
            return None
        if self._state and voltage_v < trip - 0.5 * self.hysteresis_v:
            self._state = False
            return CrossingEvent(time_s, self.threshold_v, "falling")
        if not self._state and voltage_v > trip + 0.5 * self.hysteresis_v:
            self._state = True
            return CrossingEvent(time_s, self.threshold_v, "rising")
        return None

    def block_state(self):
        """``(_noise_index, rest of the block, generator state)`` a
        blocked comparator must hold after the same samples."""
        if self.rng is None:
            return 0, [], None
        pad = -self.draws % NOISE_BLOCK
        ahead = copy.deepcopy(self.rng)
        rest = [float(ahead.standard_normal()) for _ in range(pad)]
        index = 0 if self.draws == 0 else NOISE_BLOCK - pad
        return index, rest, ahead.bit_generator.state


class ScalarDrawBank:
    """The reference bank: thresholds highest first, offsets paired in
    the caller's order, seeds ``seed + index``, crossings in order."""

    def __init__(self, thresholds_v, hysteresis_v, offsets_v, noise_sigma_v, seed):
        paired = sorted(zip(thresholds_v, offsets_v), key=lambda p: p[0], reverse=True)
        self.comparators = [
            ScalarDrawComparator(
                t, hysteresis_v, offset_v=o, noise_sigma_v=noise_sigma_v,
                seed=seed + index,
            )
            for index, (t, o) in enumerate(paired)
        ]
        self.history = []

    def reset(self):
        for comparator in self.comparators:
            comparator.reset()
        self.history.clear()

    def observe(self, time_s, voltage_v):
        events = []
        for comparator in self.comparators:
            event = comparator.observe(time_s, voltage_v)
            if event is not None:
                events.append(event)
                self.history.append(event)
        return tuple(events)


def assert_same_stream(comparator, reference):
    """Input state, block cursor, unused draws and generator state."""
    assert comparator._state == reference._state
    index, rest, generator_state = reference.block_state()
    assert comparator._noise_index == index
    assert comparator._noise[comparator._noise_index:] == rest
    if generator_state is None:
        assert comparator._noise == []
    else:
        assert comparator._rng.bit_generator.state == generator_state


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
        # With no hysteresis a comparator above its trip point falls
        # exactly when the input drops below it: the sample at the
        # expected trip point does not trip, the next double down does.
        offset, sigma = milli_volts(1.0), milli_volts(4.0)
        comparator = ThresholdComparator(
            1.0, hysteresis_v=0.0, offset_v=offset, noise_sigma_v=sigma,
            seed=seed,
        )
        comparator.observe(0.0, 2.0)
        rng = np.random.default_rng(seed)
        float(rng.standard_normal())  # the first sample's draw
        for _ in range(3 * NOISE_BLOCK + 7):
            expected = 1.0 + offset + sigma * float(rng.standard_normal())
            at, below = copy.deepcopy(comparator), copy.deepcopy(comparator)
            assert at.observe(1.0, expected) is None
            event = below.observe(1.0, float(np.nextafter(expected, 0.0)))
            assert event == CrossingEvent(1.0, 1.0, "falling")
            assert comparator.observe(1.0, 2.0) is None

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


walk_steps = st.lists(
    st.floats(min_value=-6e-3, max_value=6e-3, allow_nan=False),
    min_size=NOISE_BLOCK + 1,
    max_size=4 * NOISE_BLOCK,
)


class TestBankAgainstScalarReference:
    """A noisy bank with offsets and drifted hysteresis, and a noiseless
    comparator, against the one-draw-per-sample reference over random
    voltage walks: crossings, history, input states, block cursors and
    generator states all agree, across block boundaries, a reset and a
    pickle round trip mid-block."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=walk_steps,
        start_v=st.floats(min_value=0.85, max_value=1.15),
        hysteresis_v=st.floats(min_value=0.0, max_value=1e-2),
        offsets_v=st.lists(
            st.floats(min_value=-5e-3, max_value=5e-3), min_size=3, max_size=3
        ),
        sigma_v=st.floats(min_value=1e-4, max_value=8e-3),
        seed=st.integers(min_value=0, max_value=2**20),
        reset_at=st.floats(min_value=0.0, max_value=1.0),
        pickle_at=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_walk_equals_the_scalar_reference(
        self, steps, start_v, hysteresis_v, offsets_v, sigma_v, seed,
        reset_at, pickle_at,
    ):
        thresholds = [0.9, 1.1, 1.0]  # caller's order; banks sort them
        bank = ComparatorBank(
            thresholds, hysteresis_v, offsets_v=offsets_v,
            noise_sigma_v=sigma_v, seed=seed,
        )
        reference = ScalarDrawBank(
            thresholds, hysteresis_v, offsets_v, sigma_v, seed
        )
        quiet = ThresholdComparator(1.0, hysteresis_v, offset_v=offsets_v[0], seed=seed)
        quiet_reference = ScalarDrawComparator(
            1.0, hysteresis_v, offset_v=offsets_v[0], seed=seed
        )
        reset_step = int(reset_at * len(steps))
        pickle_step = int(pickle_at * len(steps))
        v = start_v
        for step, dv in enumerate(steps):
            if step == reset_step:
                bank.reset()
                reference.reset()
                quiet.reset()
                quiet_reference.reset()
            if step == pickle_step:
                bank = pickle.loads(pickle.dumps(bank))
                quiet = pickle.loads(pickle.dumps(quiet))
            v += dv
            t = step * 1e-3
            assert bank.observe(t, v) == reference.observe(t, v)
            assert quiet.observe(t, v) == quiet_reference.observe(t, v)
        assert bank.history == reference.history
        for comparator, expected in zip(bank.comparators, reference.comparators):
            assert comparator.threshold_v == expected.threshold_v
            assert_same_stream(comparator, expected)
        assert_same_stream(quiet, quiet_reference)
