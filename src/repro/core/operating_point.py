"""Holistic optimal voltage point (Section IV, eqs. 1-4).

The problem statement: maximize the processor clock

    max f_clk                                            (1)

subject to the power the whole chain draws staying within the cell's
maximum power point,

    P_in(V, f) <= P_mpp(irradiance)                      (2)
    f <= f_max(V)                                        (3)
    P_in = (P_dyn(V, f) + P_leak(V)) / eta_reg(V, P)     (4)

Conventional designs optimise each module locally: run the cell at MPP
(MPPT circuits) *or* pick the processor's best voltage -- but not the
composition.  The optimizer here sweeps the processor voltage and, for
each candidate, asks the regulator how much of the MPP power actually
arrives (folding in eta(V, P)), then takes the fastest feasible point.
It also evaluates the *unregulated* (bypass) alternative -- the direct
connection whose operating point is the I-V intersection of Fig. 6(a)
-- and reports whichever wins, which is how the low-light bypass
decision of Fig. 7(a) falls out naturally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.system import EnergyHarvestingSoC
from repro.errors import (
    InfeasibleOperatingPointError,
    ModelParameterError,
    OperatingRangeError,
)


@dataclass(frozen=True)
class OperatingPoint:
    """A resolved system operating point.

    ``extracted_power_w`` is what leaves the solar cell;
    ``delivered_power_w`` is what reaches the processor supply pins.
    The gap is converter loss (zero when bypassed).
    """

    processor_voltage_v: float
    frequency_hz: float
    delivered_power_w: float
    extracted_power_w: float
    node_voltage_v: float
    regulator_name: str
    bypassed: bool

    @property
    def conversion_efficiency(self) -> float:
        """``delivered / extracted`` (1.0 for bypass by construction)."""
        if self.extracted_power_w <= 0.0:
            return 0.0
        return self.delivered_power_w / self.extracted_power_w


class OperatingPointOptimizer:
    """Finds performance-optimal operating points for one system.

    Parameters
    ----------
    system:
        The composed SoC.
    grid_points:
        Resolution of the processor-voltage sweep.  Band-edge effects
        of the SC regulator need a reasonably fine grid; 240 covers the
        0.15-1.1 V range at ~4 mV.
    """

    def __init__(self, system: EnergyHarvestingSoC, grid_points: int = 240) -> None:
        if grid_points < 16:
            raise ModelParameterError(
                f"grid_points must be >= 16, got {grid_points}"
            )
        self.system = system
        self.grid_points = grid_points

    def _voltage_grid(self, low: float, high: float) -> np.ndarray:
        return np.linspace(low, high, self.grid_points)

    # -- unregulated (bypass) point ------------------------------------------------

    def unregulated_point(self, irradiance: float) -> OperatingPoint:
        """Best direct-connection point: the Fig. 6(a) intersection.

        The node settles where the cell's I-V curve meets the
        processor's current draw; with DVFS the processor can also
        throttle below the intersection voltage, so the optimum is
        ``max over V of min(f_max(V), f sustainable from P_pv(V))``.
        """
        processor = self.system.processor
        cell = self.system.cell
        voc = cell.open_circuit_voltage(irradiance)
        if voc <= processor.min_operating_v:
            raise InfeasibleOperatingPointError(
                f"open-circuit voltage {voc:.3f} V below processor minimum "
                f"{processor.min_operating_v:.3f} V at irradiance {irradiance}"
            )
        high = min(voc, processor.max_operating_v)
        grid = self._voltage_grid(processor.min_operating_v, high)
        p_pv = np.asarray(cell.power(grid, irradiance))
        harvesting = p_pv > 0.0
        f = np.asarray(
            processor.frequency_for_power(grid, np.where(harvesting, p_pv, 0.0))
        )
        feasible = harvesting & (f > 0.0)
        if not feasible.any():
            raise InfeasibleOperatingPointError(
                f"cell cannot sustain the processor at irradiance {irradiance}"
            )
        # argmax returns the first maximum, so ties go to the lowest voltage.
        best = int(np.argmax(np.where(feasible, f, 0.0)))
        v = float(grid[best])
        f_best = float(f[best])
        p_proc = float(processor.power(v, f_best))
        return OperatingPoint(
            processor_voltage_v=v,
            frequency_hz=f_best,
            delivered_power_w=p_proc,
            extracted_power_w=p_proc,
            node_voltage_v=v,
            regulator_name="bypass",
            bypassed=True,
        )

    # -- regulated point ----------------------------------------------------------

    def regulated_point(
        self, regulator_name: str, irradiance: float
    ) -> OperatingPoint:
        """Best regulated point for one converter (eqs. 1-4 solved).

        Assumes the MPP-tracking loop holds the node at the cell's MPP
        voltage, so the converter sees ``v_in = V_mpp`` and may draw up
        to ``P_mpp``.
        """
        regulator = self.system.regulator(regulator_name)
        processor = self.system.processor
        mpp = self.system.mpp(irradiance)
        if mpp.power_w <= 0.0:
            raise InfeasibleOperatingPointError(
                f"no harvestable power at irradiance {irradiance}"
            )
        low = max(processor.min_operating_v, regulator.min_output_v)
        high = min(processor.max_operating_v, regulator.max_output_v, mpp.voltage_v)
        if low >= high:
            raise InfeasibleOperatingPointError(
                f"{regulator_name}: no overlap between converter and "
                "processor voltage ranges"
            )
        grid = self._voltage_grid(low, high)
        available = regulator.max_output_power_grid(
            grid, mpp.power_w, v_in=mpp.voltage_v
        )
        usable = available > 0.0  # False at NaN: out of the converter's range
        f = np.asarray(
            processor.frequency_for_power(grid, np.where(usable, available, 0.0))
        )
        candidates = np.flatnonzero(usable & (f > 0.0))
        # Fastest first, lowest voltage first among equals.  A point
        # whose input power raises is skipped, so the winner is the
        # first fastest point that resolves.
        ranked = candidates[np.argsort(-f[candidates], kind="stable")]
        for index in ranked:
            v = float(grid[index])
            f_best = float(f[index])
            p_proc = float(processor.power(v, f_best))
            try:
                extracted = regulator.input_power(
                    v, p_proc, v_in=mpp.voltage_v
                )
            except OperatingRangeError:
                continue
            return OperatingPoint(
                processor_voltage_v=v,
                frequency_hz=f_best,
                delivered_power_w=p_proc,
                extracted_power_w=extracted,
                node_voltage_v=mpp.voltage_v,
                regulator_name=regulator_name,
                bypassed=False,
            )
        raise InfeasibleOperatingPointError(
            f"{regulator_name}: no feasible operating point at "
            f"irradiance {irradiance}"
        )

    # -- the holistic choice --------------------------------------------------------

    def best_point(
        self, regulator_name: str, irradiance: float
    ) -> OperatingPoint:
        """The holistic decision: regulated point or bypass, whichever
        clocks faster.

        This is the scheme of Section IV-B: at strong light the
        regulated point wins (MPP extraction beats converter loss); as
        light fades the converter overhead dominates and the bypass
        point takes over.
        """
        candidates = []
        try:
            candidates.append(self.regulated_point(regulator_name, irradiance))
        except InfeasibleOperatingPointError:
            pass
        try:
            candidates.append(self.unregulated_point(irradiance))
        except InfeasibleOperatingPointError:
            pass
        if not candidates:
            raise InfeasibleOperatingPointError(
                f"no operating point at all at irradiance {irradiance}"
            )
        return max(candidates, key=lambda p: p.frequency_hz)

    def output_power_curve(
        self,
        regulator_name: str,
        irradiance: float,
        voltages: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Regulated output power vs output voltage (Fig. 6(b)/7(a) curves).

        Returns ``(voltages, output_power)`` where output power is what
        the converter can deliver at each voltage from the cell's MPP
        power (NaN where the converter cannot regulate that voltage).
        """
        regulator = self.system.regulator(regulator_name)
        mpp = self.system.mpp(irradiance)
        if voltages is None:
            voltages = self._voltage_grid(
                regulator.min_output_v,
                min(regulator.max_output_v, mpp.voltage_v),
            )
        grid = np.asarray(voltages, dtype=float)
        return grid, regulator.max_output_power_grid(
            grid, mpp.power_w, v_in=mpp.voltage_v
        )
