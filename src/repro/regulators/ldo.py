"""Linear (low-dropout) regulator model -- the paper's Fig. 3.

An LDO is a controlled series resistance: the pass device drops
``Vin - Vout`` at the full load current, so the intrinsic efficiency is
``Vout / Vin`` regardless of load -- the resistive-division line visible
in Fig. 3 (about 45% at 0.55 V from a 1.2 V input).  The only other
term is the error amplifier's quiescent current.

The paper's key observation about the LDO (Section IV-A): because its
efficiency scales *linearly* with output voltage, any extra power an
MPP-tracking LDO extracts from the cell is proportionally burned in the
pass device, so the LDO never beats direct connection -- and with its
quiescent current counted, delivers slightly less.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelParameterError, OperatingRangeError
from repro.regulators.base import Regulator
from repro.regulators.losses import QuiescentLoss
from repro.units import milli_amps


class LinearRegulator(Regulator):
    """Series pass-device regulator with quiescent bias.

    Parameters
    ----------
    dropout_v:
        Minimum headroom required between input and output.
    quiescent_current_a:
        Bias current of the control loop, drawn from the input rail.
    """

    def __init__(
        self,
        nominal_input_v: float = 1.2,
        min_output_v: float = 0.2,
        max_output_v: float = 1.0,
        dropout_v: float = 0.1,
        quiescent_current_a: float = 20e-6,
        name: str = "LDO",
    ) -> None:
        super().__init__(name, nominal_input_v, min_output_v, max_output_v)
        if dropout_v < 0.0:
            raise ModelParameterError(f"dropout must be >= 0, got {dropout_v}")
        self.dropout_v = dropout_v
        self.quiescent = QuiescentLoss(quiescent_current_a)

    def supports_output_voltage(
        self, v_out: float, v_in: "float | None" = None
    ) -> bool:
        """True exactly where :meth:`input_power` accepts the voltages.

        The output range and the dropout headroom
        ``v_out <= v_in - dropout_v``; neither depends on the load.
        """
        v_in_resolved = self._resolve_input(v_in)
        return (
            self.min_output_v <= v_out <= self.max_output_v
            and not v_out > v_in_resolved - self.dropout_v
        )

    def input_power(
        self, v_out: float, p_out: float, v_in: "float | None" = None
    ) -> float:
        """``Vin * (Iout + Iq)``: the full load current at input voltage."""
        v_in = self._resolve_input(v_in)
        self.check_output_voltage(v_out)
        if p_out < 0.0:
            raise OperatingRangeError(
                f"{self.name}: output power must be >= 0, got {p_out}"
            )
        self._check_headroom(v_out, v_in)
        i_out = p_out / v_out
        return self.derate_input_power(v_in * i_out + self.quiescent.power(v_in))

    def _check_headroom(self, v_out: float, v_in: float) -> None:
        if v_out > v_in - self.dropout_v:
            raise OperatingRangeError(
                f"{self.name}: output {v_out:.3f} V needs more headroom than "
                f"input {v_in:.3f} V provides (dropout {self.dropout_v:.2f} V)"
            )

    def max_output_power(
        self, v_out: float, p_in_available: float, v_in: "float | None" = None
    ) -> float:
        """Closed-form inverse (see :meth:`max_output_power_grid`).

        Range-checks the arguments, then evaluates the grid form on the
        one voltage.
        """
        self.check_available_power(p_in_available)
        v_in = self._resolve_input(v_in)
        self.check_output_voltage(v_out)
        self._check_headroom(v_out, v_in)
        return float(
            self.max_output_power_grid(
                np.array([v_out], dtype=float), p_in_available, v_in
            )[0]
        )

    def max_output_power_grid(
        self,
        v_out: np.ndarray,
        p_in_available: float,
        v_in: "float | None" = None,
    ) -> np.ndarray:
        """Closed-form inverse over a voltage grid: ``Pout = Vout * (Pin/Vin - Iq)``.

        NaN where ``Vout`` is out of range or lacks dropout headroom.
        """
        voltages = np.asarray(v_out, dtype=float)
        v_in_resolved = self._grid_input_voltage(p_in_available, v_in)
        if v_in_resolved is None:
            return np.full(voltages.shape, np.nan)
        usable = self.derate_available_power(p_in_available)
        i_available = usable / v_in_resolved - self.quiescent.current_a
        power = voltages * i_available
        regulable = self._output_range_mask(voltages) & ~(
            voltages > v_in_resolved - self.dropout_v
        )
        return np.where(regulable, np.where(power > 0.0, power, 0.0), np.nan)


def paper_ldo(nominal_input_v: float = 1.2) -> LinearRegulator:
    """The paper's 65 nm LDO (Fig. 3): ~45% efficient at 0.55 V out."""
    return LinearRegulator(
        nominal_input_v=nominal_input_v,
        min_output_v=0.2,
        max_output_v=1.0,
        dropout_v=0.1,
        quiescent_current_a=milli_amps(0.02),
    )
