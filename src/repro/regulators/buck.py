"""Fully-integrated buck regulator -- the paper's Fig. 5 and test chip.

The test chip's buck converter (Section VII) regulates 0.3-0.8 V from a
1.2-1.5 V supply at 40-75% efficiency depending on voltage and load.
Unlike the switched-capacitor converter, a buck's conversion ratio is
continuous (set by duty cycle), so there are no ratio bands; instead:

* conduction loss ``Iout^2 * R`` through the power switches and the
  (low-Q, on-chip) inductor;
* a load-independent controller/PWM/gate-driver loss that scales with
  the square of the input voltage.

This produces Fig. 5's broad peak -- better than the SC converter at
high output power, "equal or less efficiency at low output power".
"""

from __future__ import annotations

from repro.errors import ModelParameterError, OperatingRangeError
from repro.regulators.base import Regulator
from repro.regulators.losses import ConductionLoss, FixedLoss


class BuckRegulator(Regulator):
    """Continuous-ratio inductive DC-DC converter.

    Parameters
    ----------
    conduction_resistance_ohm:
        Lumped switch + inductor series resistance.
    fixed_loss_w:
        Controller/PWM/gate-drive loss at the reference input voltage.
    max_duty:
        Highest usable duty cycle; output must stay below
        ``max_duty * Vin``.
    """

    def __init__(
        self,
        nominal_input_v: float = 1.2,
        conduction_resistance_ohm: float = 9.0,
        fixed_loss_w: float = 2.9e-3,
        max_duty: float = 0.95,
        min_output_v: float = 0.25,
        max_output_v: float = 0.85,
        name: str = "Buck",
    ) -> None:
        super().__init__(name, nominal_input_v, min_output_v, max_output_v)
        if not 0.0 < max_duty <= 1.0:
            raise ModelParameterError(f"max duty must be in (0, 1], got {max_duty}")
        self.conduction = ConductionLoss(conduction_resistance_ohm)
        self.fixed = FixedLoss(fixed_loss_w, reference_input_v=nominal_input_v)
        self.max_duty = max_duty

    def _check_duty(self, v_out: float, v_in: float) -> None:
        if v_out > self.max_duty * v_in:
            raise OperatingRangeError(
                f"{self.name}: output {v_out:.3f} V exceeds max duty "
                f"{self.max_duty:.2f} from input {v_in:.3f} V"
            )

    def supports_output_voltage(
        self, v_out: float, v_in: "float | None" = None
    ) -> bool:
        """True exactly where :meth:`input_power` accepts the voltages.

        The output range and the duty limit ``v_out <= max_duty * v_in``;
        a buck's range does not depend on the load.
        """
        v_in_resolved = self._resolve_input(v_in)
        return (
            self.min_output_v <= v_out <= self.max_output_v
            and not v_out > self.max_duty * v_in_resolved
        )

    def input_power(
        self, v_out: float, p_out: float, v_in: "float | None" = None
    ) -> float:
        v_in_resolved = self._resolve_input(v_in)
        # The range and duty checks are inlined (this is the engine's
        # per-step call); the check methods run only to raise.
        if not self.min_output_v <= v_out <= self.max_output_v:
            self.check_output_voltage(v_out)
        if v_out > self.max_duty * v_in_resolved:
            self._check_duty(v_out, v_in_resolved)
        if p_out < 0.0:
            raise OperatingRangeError(
                f"{self.name}: output power must be >= 0, got {p_out}"
            )
        i_out = p_out / v_out if v_out > 0.0 else 0.0
        return self.derate_input_power(
            p_out
            + self.conduction.power(i_out)
            + self.fixed.power(v_in_resolved)
        )

    def max_output_power(
        self, v_out: float, p_in_available: float, v_in: "float | None" = None
    ) -> float:
        """Closed-form inverse of the quadratic loss model.

        Solves ``Pout + R*(Pout/Vout)^2 + Pfix = Pin`` for the positive
        root.  There is deliberately no array form: the root is Python
        ``x ** 0.5`` (libm ``pow``), which numpy's array square roots
        miss by 1 ulp at some points, so grids use the base per-point
        :meth:`max_output_power_grid`.
        """
        self.check_available_power(p_in_available)
        v_in_resolved = self._resolve_input(v_in)
        self.check_output_voltage(v_out)
        self._check_duty(v_out, v_in_resolved)
        budget = self.derate_available_power(p_in_available) - self.fixed.power(
            v_in_resolved
        )
        if budget <= 0.0:
            return 0.0
        r = self.conduction.resistance_ohm
        if r == 0.0:
            return budget
        a = r / (v_out * v_out)
        # a*Pout^2 + Pout - budget = 0
        return (-1.0 + (1.0 + 4.0 * a * budget) ** 0.5) / (2.0 * a)


def paper_buck(nominal_input_v: float = 1.2) -> BuckRegulator:
    """The paper's 65 nm on-chip buck (Fig. 5, test chip of Section VII).

    Calibrated to ~63% efficiency at 0.55 V / full load (~10 mW), ~58%
    at half load, rising toward ~70% at 0.75 V, within the chip's
    reported 40-75% envelope.
    """
    return BuckRegulator(nominal_input_v=nominal_input_v)
