"""Bounded scalar minimization: Brent's method on a fixed interval.

A port of scipy 1.17.1's ``_minimize_scalar_bounded`` (the solver behind
``scipy.optimize.minimize_scalar(method="bounded")``), expression by
expression on Python floats.  It mixes golden-section steps with
parabolic interpolation, never evaluates outside ``[low, high]``, and
stops once the bracket around the best point is within ``xatol``.
Because every arithmetic step is the one scipy performs, it returns
the same double; ``tests/golden/bounded_minimize_reference.json`` pins
that for both callers (:func:`repro.pv.mpp.find_mpp` and
:meth:`repro.processor.energy.ProcessorModel.conventional_mep`).
"""

from __future__ import annotations

import math
from typing import Callable

#: Function-evaluation budget (scipy's ``maxiter`` default).  The
#: best point so far is returned when it runs out.
MAXITER = 500


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def bounded_minimize(
    func: Callable[[float], float], low: float, high: float, xatol: float
) -> float:
    """The abscissa of a local minimum of ``func`` on ``[low, high]``.

    ``func`` is called with Python floats.  The bounds are coerced with
    ``float()`` first (grid bounds are often ``np.float64``, whose
    booleans would break the integer sign idiom below).  Raises
    :class:`ValueError` for non-finite or inverted bounds.
    """
    x1 = float(low)
    x2 = float(high)
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")

    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (
                (abs(p) < abs(0.5 * q * r))
                and (p > q * (a - xf))
                and (p < q * (b - xf))
            ):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = _sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = True

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = _sign(rat) + (rat == 0)
        x = xf + si * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= MAXITER:
            break

    return xf
