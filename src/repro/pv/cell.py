"""Single-diode photovoltaic cell model.

The paper characterises an off-the-shelf IXYS KXOB22-04X3F
monocrystalline cell (22 x 7 mm, ~22% conversion efficiency, three
junctions in series) with a variable load under different light levels
(Fig. 2).  The optimization machinery in :mod:`repro.core` consumes only
the I-V / P-V curve family, so we reproduce the measurement with the
standard single-diode equivalent circuit:

    I(V) = Iph - I0 * (exp((V + I*Rs) / (n * Ns * Vt)) - 1) - (V + I*Rs) / Rsh

where ``Iph`` scales linearly with irradiance and the open-circuit
voltage therefore shifts logarithmically with light level -- exactly the
behaviour visible in the paper's measured curves.

The implicit equation (series resistance couples I and V) is solved with
one damped Newton iteration written twice: :meth:`SingleDiodeCell.
current_scalar` on floats, and :func:`newton_current` elementwise over
arrays, where each element stops on its own step.  A point whose Newton
loop exhausts its budget (its iterates cross the +-60 exponent clamp)
falls back to a bisection of the same clamped residual, also written
twice.  Both forms give the same double for the same point, so scalar
and array callers never disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConvergenceError, ModelParameterError
from repro.units import micro_amps, milli_amps, thermal_voltage

_NEWTON_MAX_ITERATIONS = 100
_NEWTON_TOLERANCE_A = 1e-12
#: Relative width of the band around ``I = 0`` inside which the
#: open-circuit bisection solves the current instead of trusting the
#: sign of the zero-current residual; 1000x the Newton tolerance.
_SIGN_BAND = 1e-9
#: Largest diode exponent ``(V + |I|*Rs)/s`` at which the Newton
#: solve's +-60 clamp is certain not to engage near the root.
_CLAMP_FREE_EXPONENT = 59.0
#: Iteration cap of the bracketed fallback solve; it stops long before
#: (the bracket halves each step down to 1e-12 A or adjacent doubles).
_BISECTION_MAX_ITERATIONS = 200
#: ``np.exp`` bound once at module level for the scalar solve's loop.
_exp = np.exp


def newton_current(
    voltage_v: np.ndarray,
    photo_current_a: "float | np.ndarray",
    saturation_current_a: "float | np.ndarray",
    diode_scale_v: "float | np.ndarray",
    series_resistance_ohm: "float | np.ndarray",
    shunt_resistance_ohm: "float | np.ndarray",
) -> np.ndarray:
    """Terminal currents of a batch of single-diode points [A].

    The array form of :meth:`SingleDiodeCell.current_scalar`.  Each
    parameter is a float shared by every point or an array that
    broadcasts against ``voltage_v`` (one cell per element);
    ``photo_current_a`` is ``Iph`` at each point's irradiance.  Every
    element is seeded, clipped and stepped with exactly the scalar
    loop's expression order, and freezes the moment its own applied
    step drops below tolerance -- precisely when the scalar loop would
    have returned.  Elementwise numpy arithmetic (``np.exp`` included)
    gives the same doubles as the same operations on floats, so each
    element equals its own scalar solve bit for bit.  Elements still
    moving after the loop take the scalar solve's bracketed fallback
    (:func:`_bracketed_current`), one element at a time.
    """
    v = voltage_v
    iph = photo_current_a
    i0 = saturation_current_a
    scale = diode_scale_v
    rs = series_resistance_ohm
    rsh = shunt_resistance_ohm

    exponent = np.minimum(np.maximum(v / scale, -60.0), 60.0)
    ideal = i0 * (np.exp(exponent) - 1.0)
    # Without series resistance there is no implicit coupling: those
    # elements take the closed form and start frozen.
    zero_rs = np.equal(rs, 0.0)
    current = np.where(
        zero_rs,
        iph - ideal - v / rsh,
        np.minimum(np.maximum(iph - ideal, -iph - 1e-3), iph),
    )
    frozen = np.broadcast_to(zero_rs, current.shape)
    for _ in range(_NEWTON_MAX_ITERATIONS):
        diode_v = v + current * rs
        exponent = np.minimum(np.maximum(diode_v / scale, -60.0), 60.0)
        exp_term = np.exp(exponent)
        f = iph - i0 * (exp_term - 1.0) - diode_v / rsh - current
        df = -i0 * exp_term * rs / scale - rs / rsh - 1.0
        step = f / df
        current = np.where(frozen, current, current - step)
        frozen = frozen | (np.abs(step) < _NEWTON_TOLERANCE_A)
        if np.all(frozen):
            return current
    # The few elements still moving take the scalar solve's bracketed
    # fallback one by one, so each equals its scalar solve by construction.
    shape = current.shape
    params = [
        np.broadcast_to(value, shape).ravel() for value in (v, iph, i0, scale, rs, rsh)
    ]
    for index in np.flatnonzero(~frozen):
        fallback = _bracketed_current(*(float(p[index]) for p in params))
        if fallback is None:
            raise ConvergenceError(
                "single-diode Newton iteration failed to converge; "
                f"max residual step {abs(float(step.flat[index])):.3e} A"
            )
        current.flat[index] = fallback
    return current


def _bracketed_current(
    voltage: float,
    iph: float,
    i0: float,
    scale: float,
    rs: float,
    rsh: float,
) -> "float | None":
    """Bisection on the Newton solve's clamped residual; ``None`` if it fails.

    The fallback for the points where the Newton loop exhausts its
    budget: its iterates cross the +-60 exponent clamp, where the
    clamped residual and the unclamped derivative disagree.  The
    clamped residual ``F(I) = Iph - I0*(exp(clamp((V+I*Rs)/s))-1) -
    (V+I*Rs)/Rsh - I`` is strictly decreasing in ``I`` (``Rs > 0``).
    At ``I = -|V|/Rs`` the diode voltage ``V + I*Rs`` is 0 (``V >= 0``)
    or ``2V < 0``, so ``F >= Iph >= 0``.  At ``I = Iph + I0 + |V|/Rsh``,
    ``F <= -I0*exp(.) - (V + |V|)/Rsh - I*Rs/Rsh < 0``.  Bisection on
    the sign of ``F`` halves that bracket until it is narrower than
    the Newton tolerance or its ends are adjacent doubles, and returns
    the last midpoint.  A non-finite bracket or a NaN residual returns
    ``None``.  :func:`newton_current` calls it once per stuck element.
    """
    lo = -abs(voltage) / rs
    hi = iph + i0 + abs(voltage) / rsh
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    for _ in range(_BISECTION_MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo < _NEWTON_TOLERANCE_A or not lo < mid < hi:
            return mid
        diode_v = voltage + mid * rs
        exponent = diode_v / scale
        if exponent < -60.0:
            exponent = -60.0
        elif exponent > 60.0:
            exponent = 60.0
        f = iph - i0 * (float(_exp(exponent)) - 1.0) - diode_v / rsh - mid
        if f > 0.0:
            lo = mid
        elif f <= 0.0:
            hi = mid
        else:
            return None
    return None


@dataclass(frozen=True)
class SingleDiodeCell:
    """A photovoltaic cell described by the single-diode model.

    Parameters
    ----------
    photo_current_full_sun_a:
        Photogenerated current at irradiance 1.0 (the paper's "outdoor
        strong light") in amperes.
    saturation_current_a:
        Diode reverse saturation current ``I0`` in amperes.  Together
        with the ideality factor it sets the open-circuit voltage.
    ideality_factor:
        Diode ideality factor ``n`` (dimensionless, typically 1-2).
    series_cells:
        Number of junctions in series (``Ns``); the KXOB22-04X3F has 3.
    series_resistance_ohm:
        Lumped series resistance ``Rs``.
    shunt_resistance_ohm:
        Lumped shunt resistance ``Rsh``.
    temperature_k:
        Junction temperature; sets the thermal voltage.

    All methods take an ``irradiance`` keyword in [0, ~1.2] where 1.0 is
    full sun.  Values slightly above 1.0 model direct summer sunlight.
    """

    photo_current_full_sun_a: float
    saturation_current_a: float
    ideality_factor: float = 1.5
    series_cells: int = 3
    series_resistance_ohm: float = 1.0
    shunt_resistance_ohm: float = 5000.0
    temperature_k: float = 300.15

    def __post_init__(self) -> None:
        if self.photo_current_full_sun_a <= 0.0:
            raise ModelParameterError(
                f"photo current must be positive, got {self.photo_current_full_sun_a}"
            )
        if self.saturation_current_a <= 0.0:
            raise ModelParameterError(
                f"saturation current must be positive, got {self.saturation_current_a}"
            )
        if self.ideality_factor <= 0.0:
            raise ModelParameterError(
                f"ideality factor must be positive, got {self.ideality_factor}"
            )
        if self.series_cells < 1:
            raise ModelParameterError(
                f"series cell count must be >= 1, got {self.series_cells}"
            )
        if self.series_resistance_ohm < 0.0:
            raise ModelParameterError(
                f"series resistance must be non-negative, got {self.series_resistance_ohm}"
            )
        if self.shunt_resistance_ohm <= 0.0:
            raise ModelParameterError(
                f"shunt resistance must be positive, got {self.shunt_resistance_ohm}"
            )

    # -- derived scales ----------------------------------------------------

    @cached_property
    def diode_scale_v(self) -> float:
        """The exponential slope ``n * Ns * Vt`` of the diode knee [V].

        Computed once per cell: :meth:`current_scalar` reads it at
        every call.
        """
        return (
            self.ideality_factor
            * self.series_cells
            * thermal_voltage(self.temperature_k)
        )

    def photo_current(self, irradiance: float) -> float:
        """Photogenerated current at the given irradiance [A]."""
        if irradiance < 0.0:
            raise ModelParameterError(f"irradiance must be >= 0, got {irradiance}")
        return self.photo_current_full_sun_a * irradiance

    def at_temperature(self, temperature_k: float) -> "SingleDiodeCell":
        """This cell re-evaluated at a different junction temperature.

        Outdoor cells run tens of kelvin above ambient; the dominant
        effect is the open-circuit voltage dropping roughly 2 mV/K per
        junction, driven by the saturation current's strong temperature
        dependence ``I0 ~ T^3 exp(-Eg / kT)`` (silicon bandgap
        ``Eg ~ 1.12 eV``).  Photocurrent has a weak positive
        coefficient (~0.05%/K), included for completeness.
        """
        if temperature_k <= 0.0:
            raise ModelParameterError(
                f"temperature must be positive, got {temperature_k}"
            )
        t_old = self.temperature_k
        bandgap_ev = 1.12
        vt_old = thermal_voltage(t_old)
        vt_new = thermal_voltage(temperature_k)
        ratio = temperature_k / t_old
        i0_new = (
            self.saturation_current_a
            * ratio**3
            * float(
                np.exp(
                    bandgap_ev / self.ideality_factor * (1.0 / vt_old - 1.0 / vt_new)
                )
            )
        )
        iph_new = self.photo_current_full_sun_a * (
            1.0 + 0.0005 * (temperature_k - t_old)
        )
        return SingleDiodeCell(
            photo_current_full_sun_a=iph_new,
            saturation_current_a=i0_new,
            ideality_factor=self.ideality_factor,
            series_cells=self.series_cells,
            series_resistance_ohm=self.series_resistance_ohm,
            shunt_resistance_ohm=self.shunt_resistance_ohm,
            temperature_k=temperature_k,
        )

    # -- terminal characteristics ------------------------------------------

    def current(
        self, voltage: "float | np.ndarray", irradiance: "float | np.ndarray" = 1.0
    ) -> "float | np.ndarray":
        """Terminal current at the given terminal voltage(s) [A].

        A scalar voltage (float, int, numpy scalar or 0-d array) is
        solved by :meth:`current_scalar` and returns a float; any other
        array-like goes through :func:`newton_current` and returns an
        array of the broadcast shape, whose every element equals its own
        scalar solve bit for bit.  With an array voltage the irradiance
        may be an array too, broadcasting against it (e.g. one row of
        voltages per irradiance).  Negative currents (the load pushing
        the cell past its open-circuit voltage) are reported faithfully
        rather than clipped, because the transient simulator relies on
        the restoring sign to find the stable operating point.
        """
        if isinstance(voltage, (int, float)) or np.ndim(voltage) == 0:
            return float(self.current_scalar(float(voltage), float(irradiance)))
        if np.any(np.less(irradiance, 0.0)):
            raise ModelParameterError(f"irradiance must be >= 0, got {irradiance}")
        return newton_current(
            np.asarray(voltage, dtype=float),
            self.photo_current_full_sun_a * np.asarray(irradiance, dtype=float),
            self.saturation_current_a,
            self.diode_scale_v,
            self.series_resistance_ohm,
            self.shunt_resistance_ohm,
        )

    def current_scalar(self, voltage: float, irradiance: float = 1.0) -> float:
        """Terminal current at one scalar voltage, without array machinery [A].

        The damped Newton iteration on
        ``f(I) = Iph - I0*(exp((V+I*Rs)/scale)-1) - (V+I*Rs)/Rsh - I = 0``
        in plain floats, cold-started from the ideal-diode seed.  It is
        the transient simulator's per-step PV call, and it reproduces the
        frozen per-point reference ``tests/golden/pv_current_reference.json``
        exactly.  Scalar ``np.exp`` is used rather than ``math.exp``
        because it is bit-identical to the vectorised ``np.exp`` element,
        which keeps :func:`newton_current` equal to this loop.  If the
        loop exhausts its budget, the point is solved by bisecting the
        same clamped residual (:func:`_bracketed_current`); only a
        non-finite input still raises :class:`ConvergenceError`.
        """
        # ``photo_current`` inlined: this is the per-step call.
        if irradiance < 0.0:
            raise ModelParameterError(f"irradiance must be >= 0, got {irradiance}")
        iph = self.photo_current_full_sun_a * irradiance
        scale = self.diode_scale_v
        i0 = self.saturation_current_a
        rsh = self.shunt_resistance_ohm

        exponent = voltage / scale
        if exponent < -60.0:
            exponent = -60.0
        elif exponent > 60.0:
            exponent = 60.0
        ideal = i0 * (float(_exp(exponent)) - 1.0)

        rs = self.series_resistance_ohm
        if rs == 0.0:
            return iph - ideal - voltage / rsh

        current = iph - ideal
        lo = -iph - 1e-3
        if current < lo:
            current = lo
        elif current > iph:
            current = iph
        # Loop-invariant subexpressions of ``df``, each computed exactly
        # as the full expression ``-i0 * e * rs / scale - rs / rsh - 1.0``
        # evaluates it, so the iterates keep their doubles.
        neg_i0 = -i0
        rs_over_rsh = rs / rsh
        for _ in range(_NEWTON_MAX_ITERATIONS):
            diode_v = voltage + current * rs
            exponent = diode_v / scale
            if exponent < -60.0:
                exponent = -60.0
            elif exponent > 60.0:
                exponent = 60.0
            exp_term = float(_exp(exponent))
            f = iph - i0 * (exp_term - 1.0) - diode_v / rsh - current
            df = neg_i0 * exp_term * rs / scale - rs_over_rsh - 1.0
            step = f / df
            current = current - step
            if abs(step) < _NEWTON_TOLERANCE_A:
                return current
        fallback = _bracketed_current(voltage, iph, i0, scale, rs, rsh)
        if fallback is None:
            raise ConvergenceError(
                "single-diode Newton iteration failed to converge; "
                f"max residual step {abs(step):.3e} A"
            )
        return fallback

    def power(
        self, voltage: "float | np.ndarray", irradiance: "float | np.ndarray" = 1.0
    ) -> "float | np.ndarray":
        """Delivered power ``V * I(V)`` at the terminal voltage(s) [W]."""
        return np.asarray(voltage, dtype=float) * self.current(voltage, irradiance)

    def open_circuit_voltage(
        self,
        irradiance: float = 1.0,
        tolerance_v: float = 1e-9,
        max_iterations: int = 200,
    ) -> float:
        """Open-circuit voltage ``Voc`` at the given irradiance [V].

        Solved by bisection on the sign of the terminal current; at zero
        irradiance the cell produces nothing and ``Voc`` is 0.  Raises
        :class:`~repro.errors.ConvergenceError` if the bracket has not
        shrunk below ``tolerance_v`` within ``max_iterations`` (the
        bracket halves every iteration, so the defaults always converge
        in ~31 iterations; a tighter budget exists for tests).

        Most steps need no Newton solve, because the sign of the root is
        known in closed form.  ``F(I) = Iph - I0*(exp((V+I*Rs)/s)-1) -
        (V+I*Rs)/Rsh - I`` is strictly decreasing in ``I`` and ``F(0) =
        g(V) := Iph - I0*(exp(V/s)-1) - V/Rsh``, so the root ``I*`` has
        the sign of ``g``.  On the segment between 0 and ``I*`` (and
        ``V`` below the ideal-diode bracket ``s*log1p(Iph/I0)``),
        ``|F'| <= L = 1 + Rs/Rsh + Rs*(Iph+I0)/s``, so ``|I*| >= |g|/L``
        (and ``|I*| <= |g|``, which bounds the exponent at the root).
        A converged :meth:`current_scalar` lies within about 1e-12 A of
        ``I*``, so when ``|g| > 1e-9*L`` its sign is the sign of ``g``
        and the step takes it from ``g``.  Inside that band, and wherever
        the solve's +-60 exponent clamp could engage at the root
        (``(V + |g|*Rs)/s`` near 60), the step calls
        :meth:`current_scalar` as before.  At ``Rs = 0``, ``g`` is
        exactly the closed-form current.  Every step picks the side the
        solve would, so ``Voc`` is the plain bisection's double.  That
        holds where the solve's Newton iterates cross the clamp (a large
        ``Rs`` or a tiny ``I0``) too: there the solve bisects its clamped
        residual to the same 1e-12 A instead of raising.
        """
        if tolerance_v <= 0.0:
            raise ModelParameterError(
                f"tolerance must be positive, got {tolerance_v}"
            )
        if max_iterations < 1:
            raise ModelParameterError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        iph = self.photo_current(irradiance)
        if iph == 0.0:
            return 0.0
        scale = self.diode_scale_v
        i0 = self.saturation_current_a
        rs = self.series_resistance_ohm
        rsh = self.shunt_resistance_ohm
        sign_band_a = _SIGN_BAND * (1.0 + rs / rsh + rs * (iph + i0) / scale)
        clamp_free_v = _CLAMP_FREE_EXPONENT * scale
        # Ideal-diode estimate as the upper bracket (shunt only lowers Voc).
        upper = scale * float(np.log1p(iph / i0))
        lower = 0.0
        converged = False
        for _ in range(max_iterations):
            mid = 0.5 * (lower + upper)
            g = 0.0  # past the clamp-free range: always solve
            if mid < clamp_free_v:
                g = iph - i0 * (float(np.exp(mid / scale)) - 1.0) - mid / rsh
            if abs(g) > sign_band_a and mid + abs(g) * rs < clamp_free_v:
                positive = g > 0.0
            else:
                positive = self.current_scalar(mid, irradiance) > 0.0
            if positive:
                lower = mid
            else:
                upper = mid
            if upper - lower < tolerance_v:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                "open-circuit bisection did not shrink the bracket below "
                f"{tolerance_v:g} V in {max_iterations} iterations "
                f"(bracket width {upper - lower:.3e} V)"
            )
        return 0.5 * (lower + upper)

    def short_circuit_current(self, irradiance: float = 1.0) -> float:
        """Short-circuit current ``Isc`` at the given irradiance [A]."""
        return float(self.current(0.0, irradiance))


def kxob22_cell() -> SingleDiodeCell:
    """The paper's solar cell, calibrated to the IXYS KXOB22-04X3F class.

    Calibration targets taken from the paper's measurements:

    * Fig. 8(b): short-circuit current up to ~16 mA, open-circuit voltage
      around 1.5 V at strong outdoor light.
    * Fig. 6(a): maximum power point near 14-15 mW at ~1.1-1.2 V.
    * Fig. 2 / Fig. 7(a): at half and quarter light the current scales
      proportionally while the knee voltage shifts down slightly.

    The resulting model at irradiance 1.0 yields Isc ~ 13 mA,
    Voc ~ 1.5 V and Pmpp ~ 14.5 mW at Vmpp ~ 1.2 V.
    """
    return SingleDiodeCell(
        photo_current_full_sun_a=milli_amps(13.2),
        saturation_current_a=micro_amps(0.03),
        ideality_factor=1.5,
        series_cells=3,
        series_resistance_ohm=1.5,
        shunt_resistance_ohm=8000.0,
    )
