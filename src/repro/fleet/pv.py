"""Batched single-diode PV solves for the fleet engine.

The Newton iteration itself lives in :func:`repro.pv.cell.newton_current`,
the array form of :meth:`~repro.pv.cell.SingleDiodeCell.current_scalar`
shared with :meth:`~repro.pv.cell.SingleDiodeCell.current`.  This module
holds only what is fleet-specific: per-lane parameters packed as
structure-of-arrays (:class:`CellParams`) and :func:`batched_current`,
which solves every lane of a batch one by one through
``current_scalar`` up to :data:`PER_LANE_MAX_LANES` lanes and as one
array Newton above; the batch width alone picks the path.
``tests/fleet/test_pv.py`` asserts lane-for-lane bit-identity with the
scalar solve on both sides of that crossover, over dense
voltage/irradiance grids and hypothesis-driven parameter draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelParameterError
from repro.pv.cell import SingleDiodeCell, newton_current

#: Widest batch :func:`batched_current` solves lane by lane.
#: numpy's fixed cost per call (a dozen calls per Newton iteration)
#: makes the array solve cost a flat ~100-140 us per step whatever the
#: batch, while a per-lane solve costs ~4.5 us.  Swept on (voltage,
#: irradiance) points of a holistic campaign (``docs/performance.md``,
#: "Fleet per-step cost at campaign batch sizes"), the two meet between
#: 28 and 32 lanes.
PER_LANE_MAX_LANES = 28


@dataclass(frozen=True)
class CellParams:
    """Per-lane single-diode parameters as structure-of-arrays.

    One entry per lane; heterogeneous cells (different fault draws,
    temperatures, calibrations) batch together because every parameter
    is a lane-indexed array.  ``cells`` keeps the models themselves for
    the per-lane solves of small batches.
    """

    photo_current_full_sun_a: np.ndarray
    saturation_current_a: np.ndarray
    diode_scale_v: np.ndarray
    series_resistance_ohm: np.ndarray
    shunt_resistance_ohm: np.ndarray
    cells: Tuple[SingleDiodeCell, ...]

    @property
    def lanes(self) -> int:
        """Number of lanes in the batch."""
        return int(self.photo_current_full_sun_a.shape[0])

    @classmethod
    def from_cells(
        cls, cells: Sequence[SingleDiodeCell]
    ) -> "Optional[CellParams]":
        """Pack per-lane cell models into arrays.

        Returns ``None`` when any entry is not a plain
        :class:`~repro.pv.cell.SingleDiodeCell` (a custom cell model
        with its own solver); the fleet engine then falls back to
        per-lane scalar solves, which is still exact.
        """
        if not cells:
            raise ModelParameterError("cannot batch an empty cell list")
        if any(type(cell) is not SingleDiodeCell for cell in cells):
            return None
        return cls(
            photo_current_full_sun_a=np.array(
                [cell.photo_current_full_sun_a for cell in cells]
            ),
            saturation_current_a=np.array(
                [cell.saturation_current_a for cell in cells]
            ),
            diode_scale_v=np.array([cell.diode_scale_v for cell in cells]),
            series_resistance_ohm=np.array(
                [cell.series_resistance_ohm for cell in cells]
            ),
            shunt_resistance_ohm=np.array(
                [cell.shunt_resistance_ohm for cell in cells]
            ),
            cells=tuple(cells),
        )


def batched_current(
    params: CellParams,
    voltage_v: np.ndarray,
    irradiance: np.ndarray,
) -> np.ndarray:
    """Terminal current per lane, bit-identical to the scalar solves.

    ``voltage_v``/``irradiance`` are lane-indexed arrays.  A batch of
    up to :data:`PER_LANE_MAX_LANES` lanes calls each lane's own
    cell's ``current_scalar``; wider batches go through
    :func:`repro.pv.cell.newton_current`.  Either way lane ``i`` equals
    ``cells[i].current_scalar(voltage_v[i], irradiance[i])`` bit for
    bit, and a negative irradiance raises
    :class:`~repro.errors.ModelParameterError`.
    """
    if params.lanes <= PER_LANE_MAX_LANES:
        return np.array(
            [
                cell.current_scalar(volts, irr)
                for cell, volts, irr in zip(
                    params.cells, voltage_v.tolist(), irradiance.tolist()
                )
            ]
        )
    if np.any(irradiance < 0.0):
        bad = float(irradiance[irradiance < 0.0][0])
        raise ModelParameterError(f"irradiance must be >= 0, got {bad}")
    return newton_current(
        voltage_v,
        params.photo_current_full_sun_a * irradiance,
        params.saturation_current_a,
        params.diode_scale_v,
        params.series_resistance_ohm,
        params.shunt_resistance_ohm,
    )
