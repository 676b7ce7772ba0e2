"""Pre-characterised power-to-MPP lookup table.

The paper: "A look-up table is used to map the measured power to
corresponding MPP point, so that DVFS is adjusted to operate around the
new MPP point when significant energy source changes occur."

The table is characterised offline from the cell model: for a grid of
irradiances, record the measurable quantity (MPP power, which eq. (7)
estimates) alongside the operating targets (MPP voltage and the
irradiance itself).  At runtime the tracker looks up the nearest entry
by estimated input power.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ModelParameterError
from repro.pv.cell import SingleDiodeCell
from repro.pv.mpp import find_mpps


@dataclass(frozen=True)
class MppEntry:
    """One characterised operating condition."""

    input_power_w: float
    mpp_voltage_v: float
    irradiance: float


class MppLookupTable:
    """Nearest / interpolated lookup from input power to MPP targets."""

    def __init__(self, entries: Sequence[MppEntry]) -> None:
        if len(entries) < 2:
            raise ModelParameterError("LUT needs at least two entries")
        ordered = sorted(entries, key=lambda e: e.input_power_w)
        powers = [e.input_power_w for e in ordered]
        if any(b <= a for a, b in zip(powers, powers[1:])):
            raise ModelParameterError("LUT entries must have distinct powers")
        self.entries = tuple(ordered)
        self._powers = powers

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def power_range_w(self) -> "tuple[float, float]":
        """Smallest and largest characterised input power."""
        return (self._powers[0], self._powers[-1])

    def nearest(self, input_power_w: float) -> MppEntry:
        """The characterised entry closest in input power."""
        if input_power_w < 0.0:
            raise ModelParameterError(
                f"input power must be >= 0, got {input_power_w}"
            )
        index = bisect_left(self._powers, input_power_w)
        if index == 0:
            return self.entries[0]
        if index == len(self.entries):
            return self.entries[-1]
        before = self.entries[index - 1]
        after = self.entries[index]
        if input_power_w - before.input_power_w <= after.input_power_w - input_power_w:
            return before
        return after

    def interpolate(self, input_power_w: float) -> MppEntry:
        """Linear interpolation between bracketing entries (clamped)."""
        if input_power_w < 0.0:
            raise ModelParameterError(
                f"input power must be >= 0, got {input_power_w}"
            )
        powers = np.array(self._powers)
        v = float(
            np.interp(
                input_power_w, powers, [e.mpp_voltage_v for e in self.entries]
            )
        )
        s = float(
            np.interp(input_power_w, powers, [e.irradiance for e in self.entries])
        )
        return MppEntry(
            input_power_w=float(np.clip(input_power_w, powers[0], powers[-1])),
            mpp_voltage_v=v,
            irradiance=s,
        )


def build_mpp_lut(
    cell: SingleDiodeCell,
    min_irradiance: float = 0.02,
    max_irradiance: float = 1.2,
    points: int = 24,
) -> MppLookupTable:
    """Characterise a LUT over an irradiance range (offline step).

    Irradiances are spaced geometrically, matching the logarithmic way
    ambient light varies between indoor and full-sun conditions.
    """
    if points < 2:
        raise ModelParameterError(f"need at least 2 points, got {points}")
    if not 0.0 < min_irradiance < max_irradiance:
        raise ModelParameterError(
            f"invalid irradiance range [{min_irradiance}, {max_irradiance}]"
        )
    irradiances = np.geomspace(min_irradiance, max_irradiance, points).tolist()
    return MppLookupTable(
        [
            MppEntry(
                input_power_w=mpp.power_w,
                mpp_voltage_v=mpp.voltage_v,
                irradiance=irradiance,
            )
            for irradiance, mpp in zip(irradiances, find_mpps(cell, irradiances))
        ]
    )
