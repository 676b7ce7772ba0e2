"""Regulator bypass path: direct harvester-to-processor connection.

The paper's holistic policy *bypasses* the regulator in two situations:

* at low light, where converter overhead exceeds the MPP-tracking gain
  (Section IV-B / Fig. 7(a));
* at the end of a deadline sprint, to keep delivering energy after the
  solar node has sagged below what the regulator can sustain
  (Section VI-B / Fig. 9(b), measured in Fig. 11(b)).

In bypass the processor sits directly on the solar node, so the output
voltage *is* the input voltage (the passive-voltage-scaling setup of the
related work the paper cites) and conversion is lossless apart from a
small switch resistance.
"""

from __future__ import annotations

from repro.errors import ModelParameterError, OperatingRangeError
from repro.regulators.base import Regulator
from repro.regulators.losses import ConductionLoss


class BypassPath(Regulator):
    """Direct connection modelled as a near-ideal unity converter.

    The output voltage must equal the (live) input voltage; asking for
    any other output is a range error, which is exactly how the
    operating-point optimizers discover that bypass removes the freedom
    to choose the processor voltage.
    """

    def __init__(
        self,
        nominal_input_v: float = 1.2,
        switch_resistance_ohm: float = 0.5,
        min_output_v: float = 0.05,
        max_output_v: float = 2.0,
        name: str = "Bypass",
    ) -> None:
        super().__init__(name, nominal_input_v, min_output_v, max_output_v)
        self.switch = ConductionLoss(switch_resistance_ohm)

    #: Voltage mismatch tolerated between "input" and "output" [V].
    VOLTAGE_TOLERANCE_V = 1e-6

    def supports_output_voltage(
        self, v_out: float, v_in: "float | None" = None
    ) -> bool:
        """True exactly where :meth:`input_power` accepts the voltages:
        the output range, with the output equal to the input to within
        :attr:`VOLTAGE_TOLERANCE_V`."""
        v_in_resolved = self._resolve_input(v_in)
        return (
            self.min_output_v <= v_out <= self.max_output_v
            and not abs(v_out - v_in_resolved) > self.VOLTAGE_TOLERANCE_V
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
        if abs(v_out - v_in_resolved) > self.VOLTAGE_TOLERANCE_V:
            raise OperatingRangeError(
                f"{self.name}: bypass cannot regulate {v_out:.3f} V from "
                f"{v_in_resolved:.3f} V -- output follows input"
            )
        i_out = p_out / v_out if v_out > 0.0 else 0.0
        return self.derate_input_power(p_out + self.switch.power(i_out))

    def max_output_power(
        self, v_out: float, p_in_available: float, v_in: "float | None" = None
    ) -> float:
        """Closed-form inverse of the switch loss (scalar only, like
        :meth:`BuckRegulator.max_output_power`, for its ``x ** 0.5``)."""
        self.check_available_power(p_in_available)
        v_in_resolved = self._resolve_input(v_in)
        self.check_output_voltage(v_out)
        if abs(v_out - v_in_resolved) > self.VOLTAGE_TOLERANCE_V:
            return 0.0
        usable = self.derate_available_power(p_in_available)
        r = self.switch.resistance_ohm
        if r == 0.0:
            return usable
        a = r / (v_out * v_out)
        return (-1.0 + (1.0 + 4.0 * a * usable) ** 0.5) / (2.0 * a)

    @staticmethod
    def for_node_voltage(v_node: float) -> "BypassPath":
        """A bypass instance pinned to the given live node voltage."""
        if v_node <= 0.0:
            raise ModelParameterError(
                f"node voltage must be positive, got {v_node}"
            )
        return BypassPath(nominal_input_v=v_node)
