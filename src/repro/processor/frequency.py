"""Maximum clock frequency versus supply voltage.

The critical-path delay of a digital block is the time its drive
current needs to swing the path capacitance across the supply:
``f = Ion(V) / (Cpath * V)``.  We model the drive current with an
EKV-style smooth interpolation,

    Ion(V) proportional to ln(1 + exp((V - Vth) / (2 m vt)))^alpha,

which reduces to exponential subthreshold conduction below ``Vth`` and
to an alpha-power law above it -- one expression valid across the whole
0.2-1.0 V range of the paper's Fig. 11(a) without a stitched piecewise
model.  ``alpha`` < 2 captures 65 nm velocity saturation.

Frequency also appears *inverted* in the scheduling equations: the
paper's eq. (9)-(10) approximate ``f(V)`` as linear near the operating
point, so :meth:`FrequencyModel.linearize` provides exactly that local
model for the sprint analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ModelParameterError, OperatingRangeError
from repro.units import thermal_voltage


@dataclass(frozen=True)
class LinearFrequencyFit:
    """Local linear model ``f(V) ~ slope * V + intercept`` (paper eq. 9).

    ``slope`` is the paper's ``k1`` [Hz/V], ``intercept`` its ``k0`` [Hz].
    Valid near the fit window only.
    """

    slope_hz_per_v: float
    intercept_hz: float
    fit_low_v: float
    fit_high_v: float

    def frequency(self, voltage_v: float) -> float:
        """Evaluate the linear model (clamped at zero)."""
        return max(0.0, self.slope_hz_per_v * voltage_v + self.intercept_hz)

    def voltage_for_frequency(self, frequency_hz: float) -> float:
        """Invert the linear model: the supply needed for ``frequency_hz``."""
        if self.slope_hz_per_v <= 0.0:
            raise ModelParameterError("cannot invert a non-increasing linear fit")
        return (frequency_hz - self.intercept_hz) / self.slope_hz_per_v


@dataclass(frozen=True)
class FrequencyModel:
    """Smooth sub-to-super-threshold maximum-frequency model.

    Parameters
    ----------
    drive_scale_hz:
        Overall scale factor ``K`` [Hz]: frequency is
        ``K * g(V)^alpha / V`` with ``g`` the EKV interpolation in
        units of the subthreshold slope.
    threshold_v:
        Effective device threshold voltage ``Vth``.
    alpha:
        Velocity-saturation exponent (2 = long channel, ~1.3-1.6 for
        65 nm short channel).
    subthreshold_slope_factor:
        Non-ideality ``m`` of the subthreshold slope (>= 1).
    min_voltage_v:
        Lowest supply at which logic is functional (retention limit).
    """

    drive_scale_hz: float
    threshold_v: float = 0.25
    alpha: float = 1.5
    subthreshold_slope_factor: float = 1.35
    min_voltage_v: float = 0.05
    temperature_k: float = 300.15

    def __post_init__(self) -> None:
        if self.drive_scale_hz <= 0.0:
            raise ModelParameterError(
                f"drive scale must be positive, got {self.drive_scale_hz}"
            )
        if self.threshold_v <= 0.0:
            raise ModelParameterError(
                f"threshold voltage must be positive, got {self.threshold_v}"
            )
        if self.alpha <= 0.0:
            raise ModelParameterError(f"alpha must be positive, got {self.alpha}")
        if self.subthreshold_slope_factor < 1.0:
            raise ModelParameterError(
                f"slope factor must be >= 1, got {self.subthreshold_slope_factor}"
            )

    @cached_property
    def _ekv_scale_v(self) -> float:
        """The ``2 m vt`` denominator of the EKV interpolation [V]."""
        return 2.0 * self.subthreshold_slope_factor * thermal_voltage(
            self.temperature_k
        )

    def max_frequency(
        self, voltage_v: "float | np.ndarray"
    ) -> "float | np.ndarray":
        """Maximum stable clock at the given supply [Hz].

        Vectorised over numpy arrays.  Raises for voltages below the
        functional minimum; NaN passes through.  A Python or numpy
        float (or an int) takes :meth:`_max_frequency_scalar`, which
        returns its array element's exact bits.
        """
        if isinstance(voltage_v, (float, int)):
            return self._max_frequency_scalar(float(voltage_v))
        arr = np.atleast_1d(np.asarray(voltage_v, dtype=float))
        if np.any(arr < self.min_voltage_v):
            raise OperatingRangeError(
                f"supply below functional minimum {self.min_voltage_v} V"
            )
        normalized = (arr - self.threshold_v) / self._ekv_scale_v
        drive = np.power(
            np.log1p(np.exp(np.clip(normalized, -60.0, 60.0))), self.alpha
        )
        freq = self.drive_scale_hz * drive / arr
        if np.isscalar(voltage_v) or getattr(voltage_v, "ndim", 1) == 0:
            return float(freq[0])
        return freq

    def _max_frequency_scalar(self, voltage_v: float) -> float:
        """:meth:`max_frequency` at one float, without array machinery [Hz].

        The array path's expressions in the same order: plain float
        arithmetic, comparisons for the range check and the clip, and
        the same numpy ufuncs (``np.exp``, ``np.log1p``, ``np.power``)
        called on scalars, which give the vectorised elements' doubles.
        ``**`` or :mod:`math` would not: numpy's scalar ``**`` misses
        the array ``np.power`` by an ulp at some voltages.
        """
        if voltage_v < self.min_voltage_v:
            raise OperatingRangeError(
                f"supply below functional minimum {self.min_voltage_v} V"
            )
        normalized = (voltage_v - self.threshold_v) / self._ekv_scale_v
        if normalized < -60.0:
            normalized = -60.0
        elif normalized > 60.0:
            normalized = 60.0
        drive = float(np.power(np.log1p(np.exp(normalized)), self.alpha))
        return self.drive_scale_hz * drive / voltage_v

    def voltage_for_frequency(
        self, frequency_hz: float, v_max: float = 1.4
    ) -> float:
        """Lowest supply that reaches ``frequency_hz`` (bisection).

        Raises :class:`OperatingRangeError` when even ``v_max`` is too
        slow.
        """
        if frequency_hz <= 0.0:
            raise OperatingRangeError(
                f"target frequency must be positive, got {frequency_hz}"
            )
        if self.max_frequency(v_max) < frequency_hz:
            raise OperatingRangeError(
                f"{frequency_hz / 1e6:.1f} MHz unreachable below {v_max} V"
            )
        low, high = self.min_voltage_v, v_max
        for _ in range(200):
            mid = 0.5 * (low + high)
            if self.max_frequency(mid) < frequency_hz:
                low = mid
            else:
                high = mid
            if high - low < 1e-9:
                break
        return high

    def linearize(self, low_v: float, high_v: float) -> LinearFrequencyFit:
        """Least-squares linear fit of ``f(V)`` over ``[low_v, high_v]``.

        This is the paper's eq. (9) approximation "frequency is close to
        a linear function of Vdd" used by the sprint energy analysis.
        """
        if not self.min_voltage_v <= low_v < high_v:
            raise ModelParameterError(
                f"invalid linearization window [{low_v}, {high_v}]"
            )
        voltages = np.linspace(low_v, high_v, 32)
        freqs = self.max_frequency(voltages)
        slope, intercept = np.polyfit(voltages, freqs, 1)
        return LinearFrequencyFit(
            slope_hz_per_v=float(slope),
            intercept_hz=float(intercept),
            fit_low_v=low_v,
            fit_high_v=high_v,
        )
