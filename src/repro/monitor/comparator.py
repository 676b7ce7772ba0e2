"""Threshold comparators with hysteresis.

Models the sub-microwatt comparators on the paper's test PCB (Fig. 10):
each watches the solar-node voltage against one threshold (the V0, V1,
V2 levels of Fig. 8) and timestamps crossings.  Hysteresis prevents
chatter from simulation noise and converter ripple, exactly as a
physical comparator's built-in hysteresis does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ModelParameterError

#: Noise draws taken from a comparator's generator at a time.
NOISE_BLOCK = 64


@dataclass(frozen=True)
class CrossingEvent:
    """One timestamped threshold crossing."""

    time_s: float
    threshold_v: float
    direction: str  # "falling" or "rising"

    def __post_init__(self) -> None:
        if self.direction not in ("falling", "rising"):
            raise ModelParameterError(
                f"direction must be 'falling' or 'rising', got {self.direction!r}"
            )


class ThresholdComparator:
    """A single comparator watching one threshold.

    Feed it samples via :meth:`observe`; it returns a
    :class:`CrossingEvent` when the monitored voltage crosses the
    threshold (with hysteresis), else ``None``.

    Parameters
    ----------
    threshold_v:
        Nominal comparison level.
    hysteresis_v:
        Total hysteresis width: after a falling trip, the input must
        rise above ``threshold + hysteresis`` before a rising trip can
        occur, and vice versa.
    power_w:
        The comparator's own draw (the paper's are < 0.1 uW); exposed so
        system accounting can include monitor overhead.
    offset_v:
        Static input-referred offset: the comparator actually trips at
        ``threshold + offset`` while *reporting* the nominal threshold
        in its crossing events -- exactly how a real offset lies to the
        downstream estimator.  Zero for an ideal part.
    noise_sigma_v:
        Standard deviation of per-sample Gaussian input noise on the
        trip point.  Requires ``seed`` for deterministic replay.
    seed:
        Seed for the noise generator; :meth:`reset` re-seeds it so a
        rerun reproduces the identical noise sequence.
    """

    def __init__(
        self,
        threshold_v: float,
        hysteresis_v: float = 5e-3,
        power_w: float = 0.1e-6,
        offset_v: float = 0.0,
        noise_sigma_v: float = 0.0,
        seed: "int | None" = None,
    ) -> None:
        if threshold_v <= 0.0:
            raise ModelParameterError(
                f"threshold must be positive, got {threshold_v}"
            )
        if hysteresis_v < 0.0:
            raise ModelParameterError(
                f"hysteresis must be >= 0, got {hysteresis_v}"
            )
        if power_w < 0.0:
            raise ModelParameterError(f"power must be >= 0, got {power_w}")
        if noise_sigma_v < 0.0:
            raise ModelParameterError(
                f"noise sigma must be >= 0, got {noise_sigma_v}"
            )
        if noise_sigma_v > 0.0 and seed is None:
            raise ModelParameterError(
                "comparator noise needs a seed for deterministic replay"
            )
        self.threshold_v = threshold_v
        self.hysteresis_v = hysteresis_v
        self.power_w = power_w
        self.offset_v = offset_v
        self.noise_sigma_v = noise_sigma_v
        self.seed = seed
        self._rng = np.random.default_rng(seed) if seed is not None else None
        self._noise: "list[float]" = []
        self._noise_index = 0
        self._state: "bool | None" = None  # True = input above threshold

    def reset(self) -> None:
        """Forget the input state (e.g. at simulation restart)."""
        self._state = None
        if self.seed is not None:
            self._rng = np.random.default_rng(self.seed)
            self._noise = []
            self._noise_index = 0

    def _trip_voltage(self) -> float:
        """The threshold the comparator actually trips at this sample."""
        trip = self.threshold_v + self.offset_v
        rng = self._rng
        if self.noise_sigma_v > 0.0 and rng is not None:
            trip += self.noise_sigma_v * self._next_noise(rng)
        return trip

    def _next_noise(self, rng: np.random.Generator) -> float:
        """The next standard-normal draw of the noise stream.

        Draws come in blocks of :data:`NOISE_BLOCK` and are used in
        order: a block of ``standard_normal(k)`` is the same stream as
        ``k`` scalar draws, one numpy call instead of ``k``.  The block
        and its cursor are plain attributes, so a pickled or copied
        comparator continues the same stream.
        """
        if self._noise_index == len(self._noise):
            self._noise = rng.standard_normal(NOISE_BLOCK).tolist()
            self._noise_index = 0
        draw = self._noise[self._noise_index]
        self._noise_index += 1
        return draw

    def observe(self, time_s: float, voltage_v: float) -> "CrossingEvent | None":
        """Feed one sample; report a crossing if one occurred.

        Crossings always report the *nominal* threshold: the downstream
        estimator believes the design value even when offset or noise
        has moved the physical trip point.
        """
        trip = self._trip_voltage()
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


class ComparatorBank:
    """The PCB's set of comparators observed together.

    Observing the bank fans one sample out to every comparator and
    collects all crossings.  Every crossing is also appended to
    :attr:`history` for the estimator to consume; the history is not
    bounded and grows for the whole run (until :meth:`reset`).
    """

    def __init__(
        self,
        thresholds_v: Sequence[float],
        hysteresis_v: float = 5e-3,
        offsets_v: "Sequence[float] | None" = None,
        noise_sigma_v: float = 0.0,
        seed: "int | None" = None,
    ) -> None:
        if not thresholds_v:
            raise ModelParameterError("comparator bank needs at least one threshold")
        if len(set(thresholds_v)) != len(thresholds_v):
            raise ModelParameterError("comparator thresholds must be distinct")
        ordered = sorted(thresholds_v, reverse=True)
        if offsets_v is None:
            offsets = [0.0] * len(ordered)
        else:
            if len(offsets_v) != len(thresholds_v):
                raise ModelParameterError(
                    f"need one offset per threshold: "
                    f"{len(offsets_v)} offsets for {len(thresholds_v)} thresholds"
                )
            # Offsets are paired with thresholds in the caller's order,
            # then re-sorted alongside them (highest threshold first).
            paired = sorted(
                zip(thresholds_v, offsets_v), key=lambda p: p[0], reverse=True
            )
            offsets = [o for _, o in paired]
        self.comparators = [
            ThresholdComparator(
                t,
                hysteresis_v,
                offset_v=offset,
                noise_sigma_v=noise_sigma_v,
                seed=None if seed is None else seed + index,
            )
            for index, (t, offset) in enumerate(zip(ordered, offsets))
        ]
        self.history: List[CrossingEvent] = []

    @property
    def thresholds_v(self) -> "tuple[float, ...]":
        """Thresholds, highest first (the paper's V0 > V1 > V2 order)."""
        return tuple(c.threshold_v for c in self.comparators)

    @property
    def total_power_w(self) -> float:
        """Aggregate comparator draw for system accounting."""
        return sum(c.power_w for c in self.comparators)

    def reset(self) -> None:
        """Clear input states and crossing history."""
        for comparator in self.comparators:
            comparator.reset()
        self.history.clear()

    def observe(self, time_s: float, voltage_v: float) -> "list[CrossingEvent]":
        """Feed one sample to every comparator; return new crossings."""
        events = []
        for comparator in self.comparators:
            event = comparator.observe(time_s, voltage_v)
            if event is not None:
                events.append(event)
                self.history.append(event)
        return events

    def last_falling_interval(
        self, upper_v: float, lower_v: float
    ) -> "tuple[float, float] | None":
        """Times of the most recent falling crossings of two thresholds.

        Returns ``(t_upper, t_lower)`` for the latest falling crossing
        of ``lower_v`` preceded by a falling crossing of ``upper_v``, or
        ``None`` if that pair has not happened yet.  This is the ``t``
        measurement of the paper's eq. (7).
        """
        t_lower = None
        for event in reversed(self.history):
            if event.direction != "falling":
                continue
            if t_lower is None and event.threshold_v == lower_v:
                t_lower = event.time_s
                continue
            if t_lower is not None and event.threshold_v == upper_v:
                return (event.time_s, t_lower)
        return None
