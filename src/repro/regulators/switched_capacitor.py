"""Reconfigurable switched-capacitor regulator -- the paper's Fig. 4.

An SC converter moves charge through flying capacitors at a fixed
topological ratio ``k`` (the paper's bank implements 5:4, 3:2 and 2:1,
i.e. ``k`` in {4/5, 2/3, 1/2}).  Its physics:

* charge conservation makes the input current ``k * Iout``, so the
  *intrinsic* loss is the linear drop from the no-load voltage
  ``Vnl = k * Vin`` down to ``Vout`` -- efficiency can never exceed
  ``Vout / Vnl`` within a ratio band;
* the switch matrix has a finite output impedance ``Rout ~ 1/(fsw*Cfly)``,
  which caps the deliverable current near a band edge;
* gate charge and bottom-plate parasitics add a loss proportional to
  the delivered current (an effective series drop);
* the clock/controller draws a small load-independent power, which is
  what collapses light-load efficiency and drives the paper's low-light
  bypass result (Fig. 7(a)) and holistic-MEP shift (Fig. 7(b)).

The model picks, per query, the feasible ratio that minimises input
power -- the reconfiguration the paper refers to as "multiple
configurations must be used to cover large operating voltage range".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ModelParameterError, OperatingRangeError
from repro.regulators.base import Regulator
from repro.regulators.losses import FixedLoss, SwitchingLoss


#: The paper's ratio bank (Fig. 4 schematic labels): 5:4, 3:2 and 2:1.
PAPER_RATIOS: Tuple[Fraction, ...] = (
    Fraction(4, 5),
    Fraction(2, 3),
    Fraction(1, 2),
)


class SwitchedCapacitorRegulator(Regulator):
    """Multi-ratio switched-capacitor DC-DC converter.

    Parameters
    ----------
    ratios:
        Conversion fractions ``Vnl/Vin``, each in (0, 1].
    switching_drop_v:
        Effective series voltage drop modelling gate-charge and
        bottom-plate losses (proportional to load current).
    fixed_loss_w:
        Controller/clock loss at the reference input voltage.
    output_impedance_ohm:
        Minimum achievable output impedance of the switch matrix; caps
        the load current to ``(Vnl - Vout) / Rout`` within a band.
    """

    def __init__(
        self,
        nominal_input_v: float = 1.2,
        ratios: Sequence[Fraction] = PAPER_RATIOS,
        switching_drop_v: float = 0.05,
        fixed_loss_w: float = 1.0e-3,
        fixed_loss_reference_v: float = 1.2,
        output_impedance_ohm: float = 1.5,
        min_output_v: float = 0.15,
        max_output_v: float = 1.0,
        name: str = "SC",
    ) -> None:
        super().__init__(name, nominal_input_v, min_output_v, max_output_v)
        if not ratios:
            raise ModelParameterError("SC regulator needs at least one ratio")
        for ratio in ratios:
            if not 0 < ratio <= 1:
                raise ModelParameterError(f"ratio {ratio} outside (0, 1]")
        if output_impedance_ohm <= 0.0:
            raise ModelParameterError(
                f"output impedance must be positive, got {output_impedance_ohm}"
            )
        self.ratios = tuple(sorted(set(Fraction(r) for r in ratios)))
        self.switching = SwitchingLoss(switching_drop_v)
        self.fixed = FixedLoss(fixed_loss_w, reference_input_v=fixed_loss_reference_v)
        self.output_impedance_ohm = output_impedance_ohm
        # Float conversions hoisted out of the per-query ratio scan:
        # float(Fraction) is exact and deterministic, so precomputing it
        # changes nothing numerically -- it only removes the repeated
        # Fraction arithmetic from the simulator's hot path.
        self._ratio_bank: Tuple[Tuple[Fraction, float], ...] = tuple(
            (ratio, float(ratio)) for ratio in self.ratios
        )

    # -- per-ratio primitives -------------------------------------------------

    def no_load_voltage(self, ratio: Fraction, v_in: "float | None" = None) -> float:
        """``Vnl = k * Vin`` for a ratio band."""
        return float(ratio) * self._resolve_input(v_in)

    def current_limit(
        self, ratio: Fraction, v_out: float, v_in: "float | None" = None
    ) -> float:
        """Largest load current the band can source at ``v_out`` [A]."""
        headroom = self.no_load_voltage(ratio, v_in) - v_out
        if headroom <= 0.0:
            return 0.0
        return headroom / self.output_impedance_ohm

    def _band_input_power(
        self, ratio: Fraction, v_out: float, i_out: float, v_in: float
    ) -> float:
        """Input power of one ratio band at load current ``i_out``."""
        vnl = float(ratio) * v_in
        return (
            vnl * i_out
            + self.switching.power(i_out)
            + self.fixed.power(v_in)
        )

    def _best_band(
        self, v_out: float, i_out: float, v_in: float
    ) -> "Tuple[Fraction, float] | None":
        """Feasibility scan: the minimum-input-power band and its Pin.

        One fused pass over the precomputed float ratios, evaluating
        exactly the same expressions (in the same order) as the
        per-ratio primitives above, so the selected band and its input
        power are bit-identical to the unfused scan.
        """
        # Tolerance so a load sized exactly at a band's current limit
        # (as the inverse solver does) still selects that band.
        current_tolerance = 1e-9 + 1e-9 * i_out
        switching_w = self.switching.power(i_out)
        fixed_w = self.fixed.power(v_in)
        rout = self.output_impedance_ohm
        best: "Fraction | None" = None
        best_pin = float("inf")
        for ratio, ratio_f in self._ratio_bank:
            vnl = ratio_f * v_in
            headroom = vnl - v_out
            limit = headroom / rout if headroom > 0.0 else 0.0
            if limit < i_out - current_tolerance:
                continue
            if vnl <= v_out:
                continue
            pin = vnl * i_out + switching_w + fixed_w
            if pin < best_pin:
                best = ratio
                best_pin = pin
        if best is None:
            return None
        return (best, best_pin)

    def _no_feasible_band(
        self, v_out: float, p_out: float, v_in: float
    ) -> OperatingRangeError:
        return OperatingRangeError(
            f"{self.name}: no ratio can deliver {p_out * 1e3:.3f} mW at "
            f"{v_out:.3f} V from {v_in:.3f} V"
        )

    def select_ratio(
        self, v_out: float, p_out: float, v_in: "float | None" = None
    ) -> Fraction:
        """The feasible ratio with minimum input power for this load."""
        v_in = self._resolve_input(v_in)
        self.check_output_voltage(v_out)
        if p_out < 0.0:
            raise OperatingRangeError(
                f"{self.name}: output power must be >= 0, got {p_out}"
            )
        i_out = p_out / v_out if v_out > 0.0 else 0.0
        band = self._best_band(v_out, i_out, v_in)
        if band is None:
            raise self._no_feasible_band(v_out, p_out, v_in)
        return band[0]

    # -- Regulator interface ----------------------------------------------------

    def supports_output_voltage(
        self, v_out: float, v_in: "float | None" = None
    ) -> bool:
        """True when some ratio band can regulate ``v_out`` from ``v_in``.

        Exactly where :meth:`input_power` accepts the voltages at zero
        load: the output range and a band whose no-load voltage
        ``k * Vin`` exceeds ``v_out``.  A band's current limit shrinks
        as ``v_out`` nears its no-load voltage, so at a real load the
        answer is necessary, not sufficient: :meth:`input_power` may
        still raise.
        """
        v_in_resolved = self._resolve_input(v_in)
        return self.min_output_v <= v_out <= self.max_output_v and any(
            ratio_f * v_in_resolved > v_out for _, ratio_f in self._ratio_bank
        )

    def input_power(
        self, v_out: float, p_out: float, v_in: "float | None" = None
    ) -> float:
        v_in_resolved = self._resolve_input(v_in)
        self.check_output_voltage(v_out)
        if p_out < 0.0:
            raise OperatingRangeError(
                f"{self.name}: output power must be >= 0, got {p_out}"
            )
        i_out = p_out / v_out if v_out > 0.0 else 0.0
        band = self._best_band(v_out, i_out, v_in_resolved)
        if band is None:
            raise self._no_feasible_band(v_out, p_out, v_in_resolved)
        return self.derate_input_power(band[1])

    def max_output_power(
        self, v_out: float, p_in_available: float, v_in: "float | None" = None
    ) -> float:
        """Closed-form inverse, maximised over the ratio bank.

        Range-checks the arguments, then evaluates
        :meth:`max_output_power_grid` on the one voltage.
        """
        self.check_available_power(p_in_available)
        v_in_resolved = self._resolve_input(v_in)
        self.check_output_voltage(v_out)
        return float(
            self.max_output_power_grid(
                np.array([v_out], dtype=float), p_in_available, v_in_resolved
            )[0]
        )

    def max_output_power_grid(
        self,
        v_out: np.ndarray,
        p_in_available: float,
        v_in: "float | None" = None,
    ) -> np.ndarray:
        """The closed-form inverse over a voltage grid (NaN out of range).

        Within one band the deliverable current is limited both by the
        power budget ``(Pin - Pfix) / (Vnl + Vdrop)`` and by the switch
        matrix impedance; the best band wins.  Every element has the
        bits of a one-point evaluation.
        """
        voltages = np.asarray(v_out, dtype=float)
        v_in_resolved = self._grid_input_voltage(p_in_available, v_in)
        if v_in_resolved is None:
            return np.full(voltages.shape, np.nan)
        budget = self.derate_available_power(p_in_available) - self.fixed.power(
            v_in_resolved
        )
        best = np.zeros(voltages.shape)
        if budget > 0.0:
            for _, ratio_f in self._ratio_bank:
                vnl = ratio_f * v_in_resolved
                i_power = budget / (vnl + self.switching.drop_v)
                i_cap = (vnl - voltages) / self.output_impedance_ohm
                power = voltages * np.where(i_cap < i_power, i_cap, i_power)
                best = np.where((vnl > voltages) & (power > best), power, best)
        return np.where(self._output_range_mask(voltages), best, np.nan)


#: Input voltage of the paper's Fig. 4 efficiency characterisation.  The
#: test chip's supply range is 1.2-1.5 V (Section VII); the mid-range
#: value reproduces Fig. 4's anchors (67% full load / 64% half load at
#: 0.55 V) with this loss decomposition.
FIG4_BENCH_INPUT_V = 1.35


def paper_switched_capacitor(
    nominal_input_v: float = FIG4_BENCH_INPUT_V,
) -> SwitchedCapacitorRegulator:
    """The paper's 65 nm SC regulator (Fig. 4).

    Calibrated so that at the Fig. 4 bench input and 0.55 V output it
    reaches ~67% efficiency at full load (~10 mW) and ~64% at half
    load, with the light-load rolloff that the Fig. 7 bypass result and
    the holistic-MEP shift both rest on.
    """
    return SwitchedCapacitorRegulator(nominal_input_v=nominal_input_v)
