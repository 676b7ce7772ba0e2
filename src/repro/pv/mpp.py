"""Maximum power point computation.

Modern harvesters track the voltage at which the cell delivers maximum
power (the MPP); the paper's entire holistic argument is about how much
of that maximum actually reaches the processor.  This module computes
the true MPP of a :class:`~repro.pv.cell.SingleDiodeCell` by bounded
scalar optimisation (Brent's golden-section/parabolic search,
:func:`repro.minimize.bounded_minimize`), refined from a coarse grid
seed so the solver cannot get stuck on the flat current-limited
plateau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelParameterError
from repro.minimize import bounded_minimize
from repro.pv.cell import SingleDiodeCell


@dataclass(frozen=True)
class MaximumPowerPoint:
    """The cell's maximum power point at one irradiance."""

    voltage_v: float
    current_a: float
    power_w: float
    irradiance: float

    def __post_init__(self) -> None:
        if self.power_w < 0.0:
            raise ModelParameterError(
                f"MPP power must be non-negative, got {self.power_w}"
            )


def find_mpp(
    cell: SingleDiodeCell,
    irradiance: float = 1.0,
    grid_points: int = 64,
) -> MaximumPowerPoint:
    """Locate the maximum power point at the given irradiance.

    A coarse grid over ``[0, Voc]`` brackets the optimum, then a bounded
    scalar minimisation of ``-P(V)`` polishes it.  At zero irradiance,
    or a zero open-circuit voltage (an irradiance so small that the
    photocurrent underflows to 0), the MPP is degenerate (0 V, 0 W).
    """
    if grid_points < 8:
        raise ModelParameterError(f"grid_points must be >= 8, got {grid_points}")
    if irradiance == 0.0:
        return MaximumPowerPoint(0.0, 0.0, 0.0, irradiance)

    voc = cell.open_circuit_voltage(irradiance)
    if voc == 0.0:
        return MaximumPowerPoint(0.0, 0.0, 0.0, irradiance)
    grid = np.linspace(0.0, voc, grid_points)
    powers = cell.power(grid, irradiance)
    seed_index = int(np.argmax(powers))
    low = grid[max(seed_index - 1, 0)]
    high = grid[min(seed_index + 1, grid_points - 1)]
    if high <= low:
        high = low + 1e-6

    vmpp = bounded_minimize(
        lambda v: -float(cell.power(v, irradiance)), low, high, xatol=1e-7
    )
    impp = float(cell.current(vmpp, irradiance))
    return MaximumPowerPoint(
        voltage_v=vmpp,
        current_a=impp,
        power_w=vmpp * impp,
        irradiance=irradiance,
    )


def mpp_table(
    cell: SingleDiodeCell,
    irradiances: "np.ndarray | list",
) -> "list[MaximumPowerPoint]":
    """MPPs for a set of irradiances, e.g. to pre-characterise a LUT."""
    return [find_mpp(cell, float(s)) for s in np.asarray(irradiances, dtype=float)]


def fill_factor(cell: SingleDiodeCell, irradiance: float = 1.0) -> float:
    """Fill factor ``Pmpp / (Voc * Isc)`` -- a curve-quality scalar in (0, 1)."""
    if irradiance <= 0.0:
        raise ModelParameterError(
            f"fill factor needs positive irradiance, got {irradiance}"
        )
    mpp = find_mpp(cell, irradiance)
    voc = cell.open_circuit_voltage(irradiance)
    isc = cell.short_circuit_current(irradiance)
    denominator = voc * isc
    if denominator <= 0.0:
        return 0.0
    return mpp.power_w / denominator
