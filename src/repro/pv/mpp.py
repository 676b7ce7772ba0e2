"""Maximum power point computation.

Modern harvesters track the voltage at which the cell delivers maximum
power (the MPP); the paper's entire holistic argument is about how much
of that maximum actually reaches the processor.  This module computes
the true MPP of a :class:`~repro.pv.cell.SingleDiodeCell` by bounded
scalar optimisation (Brent's golden-section/parabolic search,
:func:`repro.minimize.bounded_minimize`), refined from a coarse grid
seed so the solver cannot get stuck on the flat current-limited
plateau.  :func:`find_mpps` is the one search: it characterizes a whole
set of irradiances (a forecast's slots, a LUT's rows) with their grids
solved in one array call, and :func:`find_mpp` is its one-element call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ModelParameterError
from repro.harvesters.base import Harvester
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
    cell: Harvester,
    irradiance: float = 1.0,
    grid_points: int = 64,
) -> MaximumPowerPoint:
    """Locate the maximum power point at the given irradiance.

    The one-element call of :func:`find_mpps`.
    """
    return find_mpps(cell, [irradiance], grid_points)[0]


def find_mpps(
    cell: Harvester,
    irradiances: "Sequence[float]",
    grid_points: int = 64,
) -> "list[MaximumPowerPoint]":
    """The maximum power points at several irradiances, in order.

    Per irradiance a coarse grid over ``[0, Voc]`` brackets the
    optimum, then a bounded scalar minimisation of ``-P(V)`` polishes
    it.  At zero irradiance, or a zero open-circuit voltage (an
    irradiance so small that the photocurrent underflows to 0), the
    MPP is degenerate (0 V, 0 W).

    A :class:`SingleDiodeCell` solves the grids of every lit irradiance
    in one ``power`` call, one irradiance per row (one array Newton
    solve), and evaluates the polish through
    :meth:`SingleDiodeCell.current_scalar` as ``-(v * I(v))``.  Both
    give exactly the doubles of the per-irradiance ``power`` calls, so
    each MPP is the one a lone search returns.  Any other harvester is
    searched row by row through its ``power`` and ``current``.
    """
    if grid_points < 8:
        raise ModelParameterError(f"grid_points must be >= 8, got {grid_points}")
    # Every row starts degenerate; the lit ones are searched below.
    mpps = [MaximumPowerPoint(0.0, 0.0, 0.0, g) for g in irradiances]
    lit = []
    vocs = []
    for row, irradiance in enumerate(irradiances):
        voc = 0.0 if irradiance == 0.0 else cell.open_circuit_voltage(irradiance)
        if voc != 0.0:
            lit.append(row)
            vocs.append(voc)
    if not lit:
        return mpps

    grids = np.stack([np.linspace(0.0, voc, grid_points) for voc in vocs])
    current_at: "Callable[[float, float], float]"
    power_at: "Callable[[float, float], float]"
    if isinstance(cell, SingleDiodeCell):
        powers = cell.power(grids, np.array([[irradiances[row]] for row in lit]))
        current_at = cell.current_scalar
        power_at = lambda v, g: v * current_at(v, g)  # noqa: E731
    else:
        powers = np.stack(
            [cell.power(grid, irradiances[row]) for grid, row in zip(grids, lit)]
        )
        current_at = lambda v, g: float(cell.current(v, g))  # noqa: E731
        power_at = lambda v, g: float(cell.power(v, g))  # noqa: E731
    seeds = np.argmax(powers, axis=1).tolist()

    for row, grid, seed_index in zip(lit, grids, seeds):
        irradiance = irradiances[row]
        g = float(irradiance)
        low = grid[max(seed_index - 1, 0)]
        high = grid[min(seed_index + 1, grid_points - 1)]
        if high <= low:
            high = low + 1e-6
        vmpp = bounded_minimize(lambda v: -power_at(v, g), low, high, xatol=1e-7)
        impp = current_at(vmpp, g)
        mpps[row] = MaximumPowerPoint(
            voltage_v=vmpp,
            current_a=impp,
            power_w=vmpp * impp,
            irradiance=irradiance,
        )
    return mpps


def mpp_table(
    cell: Harvester,
    irradiances: "np.ndarray | list",
) -> "list[MaximumPowerPoint]":
    """MPPs for a set of irradiances, e.g. to pre-characterise a LUT."""
    return find_mpps(cell, np.asarray(irradiances, dtype=float).tolist())


def fill_factor(cell: Harvester, irradiance: float = 1.0) -> float:
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
