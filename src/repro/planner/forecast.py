"""Binned energy-income forecasts for the planning layer.

The DP planner (:mod:`repro.planner.dp`) reasons about the future in
fixed-width time slots.  This module turns a continuous
:class:`~repro.pv.traces.IrradianceTrace` into that slotted view: per
slot, the exact mean irradiance over the slot window (the trace's
trapezoid integral, not a point sample) and the energy income the
harvester would collect at the maximum power point over the slot.

Forecasts are *beliefs*, and real forecasts are wrong, so imperfection
is first-class: :class:`ForecastErrorModel` applies a deterministic
seeded distortion (multiplicative bias plus per-slot Gaussian noise)
to a perfect forecast, producing the degraded view a receding-horizon
planner actually plans on while the true trace drives the world.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.system import EnergyHarvestingSoC
from repro.errors import ModelParameterError
from repro.pv.traces import IrradianceTrace

#: Irradiance below which the MPP solve is skipped and income is zero
#: (the single-diode solver needs some photocurrent to converge).
_DARK_IRRADIANCE = 1e-9


@dataclass(frozen=True, eq=False)
class EnergyForecast:
    """A slotted energy-income forecast.

    ``irradiance[i]`` is the mean irradiance over slot ``i`` (suns);
    ``income_j[i]`` is the predicted harvestable energy over that slot
    at the maximum power point.  ``start_s`` anchors slot 0 on the
    trace's time axis, so suffix views keep absolute time.
    """

    slot_s: float
    start_s: float
    irradiance: np.ndarray
    income_j: np.ndarray

    def __post_init__(self) -> None:
        if self.slot_s <= 0.0:
            raise ModelParameterError(
                f"slot width must be positive, got {self.slot_s}"
            )
        if len(self.irradiance) != len(self.income_j):
            raise ModelParameterError(
                f"irradiance ({len(self.irradiance)}) and income "
                f"({len(self.income_j)}) series disagree on slot count"
            )
        if len(self.income_j) == 0:
            raise ModelParameterError("forecast needs at least one slot")

    @property
    def slots(self) -> int:
        """Number of slots in the forecast."""
        return len(self.income_j)

    def slot_start_s(self, slot: int) -> float:
        """Absolute start time of ``slot``."""
        return self.start_s + slot * self.slot_s

    def suffix(self, first_slot: int) -> "EnergyForecast":
        """The forecast from ``first_slot`` on (receding-horizon view)."""
        if not 0 <= first_slot < self.slots:
            raise ModelParameterError(
                f"first_slot {first_slot} outside [0, {self.slots})"
            )
        return EnergyForecast(
            slot_s=self.slot_s,
            start_s=self.slot_start_s(first_slot),
            irradiance=self.irradiance[first_slot:],
            income_j=self.income_j[first_slot:],
        )

    def total_income_j(self) -> float:
        """Total predicted energy income over the horizon."""
        return float(np.sum(self.income_j))


def bin_trace(
    trace: IrradianceTrace,
    system: EnergyHarvestingSoC,
    slot_s: float,
    duration_s: "float | None" = None,
    start_s: float = 0.0,
) -> EnergyForecast:
    """Bin a trace into a slotted MPP energy-income forecast.

    Per slot the mean irradiance comes from the trace's exact
    piecewise-linear integral (:meth:`IrradianceTrace.mean`), and the
    income is ``MPP power at that mean x slot width`` -- the energy an
    ideal tracker would collect, which is what the paper's
    discharge-time MPP tracking approximates.  The last slot may cover
    a shorter window when ``duration_s`` is not a slot multiple; its
    income is scaled by the actual window width.  The lit slots' MPPs
    are characterized together, in one :meth:`EnergyHarvestingSoC.mpps`
    call.
    """
    if slot_s <= 0.0:
        raise ModelParameterError(
            f"slot width must be positive, got {slot_s}"
        )
    horizon = trace.duration_s if duration_s is None else duration_s
    if horizon <= 0.0:
        raise ModelParameterError(
            f"forecast horizon must be positive, got {horizon}"
        )
    slots = max(1, int(np.ceil(horizon / slot_s - 1e-12)))
    means = []
    widths = []
    for i in range(slots):
        t0 = start_s + i * slot_s
        t1 = min(start_s + (i + 1) * slot_s, start_s + horizon)
        means.append(float(trace.mean(t0, t1)))
        widths.append(t1 - t0)
    lit = [i for i, g in enumerate(means) if not g <= _DARK_IRRADIANCE]
    income = np.zeros(slots)
    for i, mpp in zip(lit, system.mpps([means[i] for i in lit])):
        income[i] = mpp.power_w * widths[i]
    return EnergyForecast(
        slot_s=slot_s,
        start_s=start_s,
        irradiance=np.array(means),
        income_j=income,
    )


@dataclass(frozen=True)
class ForecastErrorModel:
    """Deterministic seeded distortion of a perfect forecast.

    ``bias`` shifts every slot multiplicatively (``-0.2`` = the
    forecaster systematically under-predicts income by 20%);
    ``noise_sigma`` adds per-slot relative Gaussian noise.  The same
    ``(bias, noise_sigma, seed)`` triple always produces the same
    distorted forecast -- error injection never breaks replay.
    """

    bias: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bias <= -1.0:
            raise ModelParameterError(
                f"bias must be > -1 (income cannot go negative), "
                f"got {self.bias}"
            )
        if self.noise_sigma < 0.0:
            raise ModelParameterError(
                f"noise sigma must be >= 0, got {self.noise_sigma}"
            )

    @property
    def is_perfect(self) -> bool:
        """True when the model leaves the forecast untouched."""
        return self.bias == 0.0 and self.noise_sigma == 0.0

    def apply(self, forecast: EnergyForecast) -> EnergyForecast:
        """Return the distorted forecast (the input is untouched)."""
        if self.is_perfect:
            return forecast
        rng = np.random.default_rng(self.seed)
        factors = (1.0 + self.bias) * (
            1.0 + self.noise_sigma * rng.standard_normal(forecast.slots)
        )
        factors = np.clip(factors, 0.0, None)
        return EnergyForecast(
            slot_s=forecast.slot_s,
            start_s=forecast.start_s,
            irradiance=forecast.irradiance * factors,
            income_j=forecast.income_j * factors,
        )


PERFECT_FORECAST = ForecastErrorModel()
