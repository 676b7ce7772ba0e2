"""The paper's stated values for the headline claims, and the error metric.

One entry per :class:`repro.experiments.headline.HeadlineClaims` field
that the paper states as a number, each cited to its row in
``EXPERIMENTS.md``.  Two fields have no entry: ``sc_extraction_gain``
(the paper only implies it exceeds the power gain) and
``mep_voltage_shift_v`` (stated in volts as an upper bound, "up to
+0.1 V", not as a share).
"""

from __future__ import annotations

from typing import Mapping

#: field -> (paper value as a fraction, citation)
PAPER_VALUES = {
    "sc_power_gain": (
        0.31, "EXPERIMENTS.md E6 (Fig. 6(b)): SC +31% delivered power vs raw"),
    "sc_speed_gain": (
        0.18, "EXPERIMENTS.md E6 (Fig. 6(b)): SC +18% speed vs raw"),
    "quarter_sun_window_gain": (
        -0.20, "EXPERIMENTS.md E7 (Fig. 7(a)): ~-20% at 25% light, bypass wins"),
    "mep_saving": (
        0.31, "EXPERIMENTS.md E8 (Fig. 7(b)): <= ~31% saving vs conventional MEP"),
    "sprint_energy_gain": (
        0.10, "EXPERIMENTS.md E11/E13 (Fig. 9(b), 11(b)): ~+10% from a 20% sprint"),
    "bypass_extension_fraction": (
        0.20, "EXPERIMENTS.md E13 (Fig. 11(b)): operation extended ~20% by bypass"),
}


def paper_err_pp(measured: Mapping[str, float]) -> float:
    """Mean absolute gap, in percentage points, over the given claims."""
    if not measured:
        raise ValueError("no claims to compare")
    gaps = [abs(value - PAPER_VALUES[name][0]) for name, value in measured.items()]
    return 100.0 * sum(gaps) / len(gaps)
