"""Regulator interface shared by all converter models.

The holistic optimizers in :mod:`repro.core` interrogate a regulator
through exactly two questions:

1. *forward*: given an output voltage and output power, how much input
   power is drawn from the harvester node? (:meth:`Regulator.input_power`)
2. *inverse*: given the power available at the input (e.g. the solar
   cell's MPP power), how much can be delivered at a chosen output
   voltage? (:meth:`Regulator.max_output_power`)

Subclasses implement :meth:`Regulator.input_power`; the inverse is
provided generically by monotone bisection and may be overridden with a
closed form where one exists.  :meth:`Regulator.max_output_power_grid`
asks the inverse question over a whole output-voltage grid at once (the
operating-point sweeps); converters whose closed form evaluates over an
array with the scalar's exact bits override it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ConvergenceError,
    ModelParameterError,
    OperatingRangeError,
)

_BISECT_ITERATIONS = 200
_BISECT_TOLERANCE_W = 1e-12


@dataclass(frozen=True)
class RegulatorOperatingPoint:
    """A fully-resolved regulator operating condition."""

    input_voltage_v: float
    output_voltage_v: float
    output_power_w: float
    input_power_w: float

    @property
    def efficiency(self) -> float:
        """``Pout / Pin``; zero when no input power flows."""
        if self.input_power_w <= 0.0:
            return 0.0
        return self.output_power_w / self.input_power_w

    @property
    def loss_w(self) -> float:
        """Power dissipated inside the converter."""
        return self.input_power_w - self.output_power_w


class Regulator(abc.ABC):
    """Abstract DC-DC converter between the harvester node and the load.

    Parameters
    ----------
    name:
        Human-readable converter name used in reports.
    nominal_input_v:
        Default input voltage assumed when a call site does not pass an
        explicit ``v_in`` (the paper characterises its regulators from a
        1.2 V bench supply; in the full system the input is the live
        solar-node voltage).
    min_output_v / max_output_v:
        The converter's valid output range.
    """

    def __init__(
        self,
        name: str,
        nominal_input_v: float,
        min_output_v: float,
        max_output_v: float,
    ) -> None:
        if not name:
            raise ModelParameterError("regulator needs a non-empty name")
        if nominal_input_v <= 0.0:
            raise ModelParameterError(
                f"nominal input voltage must be positive, got {nominal_input_v}"
            )
        if not 0.0 < min_output_v < max_output_v:
            raise ModelParameterError(
                f"invalid output range [{min_output_v}, {max_output_v}]"
            )
        self.name = name
        self.nominal_input_v = nominal_input_v
        self.min_output_v = min_output_v
        self.max_output_v = max_output_v
        self._efficiency_derating = 1.0

    # -- aging / fault derating ----------------------------------------------

    @property
    def efficiency_derating(self) -> float:
        """Multiplicative efficiency derate in (0, 1]; 1.0 = pristine.

        Models aged switches, increased parasitics or a drifted clock:
        every input-power figure is scaled by ``1/derating`` so the
        converter delivers the same output from proportionally more
        input.  Set via :meth:`set_efficiency_derating` (the fault
        subsystem draws seeded values here).
        """
        return self._efficiency_derating

    def set_efficiency_derating(self, derating: float) -> None:
        """Apply an efficiency derate (see :attr:`efficiency_derating`)."""
        if not 0.0 < derating <= 1.0:
            raise ModelParameterError(
                f"{self.name}: derating must be in (0, 1], got {derating}"
            )
        self._efficiency_derating = derating

    def derate_input_power(self, p_in_ideal: float) -> float:
        """Scale a pristine-model input power by the derate."""
        return p_in_ideal / self._efficiency_derating

    def derate_available_power(self, p_in_available: float) -> float:
        """Input budget usable by the pristine model under the derate.

        The inverse of :meth:`derate_input_power`, for closed-form
        ``max_output_power`` implementations.
        """
        return p_in_available * self._efficiency_derating

    # -- range handling ------------------------------------------------------

    def check_output_voltage(self, v_out: float) -> None:
        """Raise :class:`OperatingRangeError` when ``v_out`` is unreachable."""
        if not self.min_output_v <= v_out <= self.max_output_v:
            raise OperatingRangeError(
                f"{self.name}: output {v_out:.3f} V outside "
                f"[{self.min_output_v:.3f}, {self.max_output_v:.3f}] V"
            )

    def _output_range_mask(self, v_out: np.ndarray) -> np.ndarray:
        """Where :meth:`check_output_voltage` would accept ``v_out``."""
        return (self.min_output_v <= v_out) & (v_out <= self.max_output_v)

    def supports_output_voltage(self, v_out: float, v_in: "float | None" = None) -> bool:
        """True when the converter can regulate ``v_out`` from ``v_in``.

        This generic form checks the output range and that the output
        does not exceed the input.  Converters whose
        :meth:`input_power` has further voltage conditions override it
        to answer True exactly where :meth:`input_power` accepts the
        voltages.  Where feasibility also depends on the load (the
        switched-capacitor ratio bands), the answer is necessary, not
        sufficient.
        """
        v_in = self._resolve_input(v_in)
        return self.min_output_v <= v_out <= min(self.max_output_v, v_in)

    def _resolve_input(self, v_in: "float | None") -> float:
        if v_in is None:
            return self.nominal_input_v
        if v_in <= 0.0:
            raise OperatingRangeError(
                f"{self.name}: input voltage must be positive, got {v_in}"
            )
        return v_in

    # -- the converter physics ------------------------------------------------

    @abc.abstractmethod
    def input_power(
        self, v_out: float, p_out: float, v_in: "float | None" = None
    ) -> float:
        """Input power [W] drawn to deliver ``p_out`` at ``v_out``.

        Must be strictly increasing in ``p_out`` for fixed voltages (the
        generic inverse relies on this monotonicity).  Raises
        :class:`OperatingRangeError` for unreachable voltages.
        """

    def efficiency(
        self, v_out: float, p_out: float, v_in: "float | None" = None
    ) -> float:
        """Conversion efficiency ``Pout / Pin`` at the operating point."""
        if p_out < 0.0:
            raise OperatingRangeError(
                f"{self.name}: output power must be >= 0, got {p_out}"
            )
        if p_out == 0.0:
            return 0.0
        p_in = self.input_power(v_out, p_out, v_in)
        if p_in <= 0.0:
            return 0.0
        return p_out / p_in

    def operating_point(
        self, v_out: float, p_out: float, v_in: "float | None" = None
    ) -> RegulatorOperatingPoint:
        """Resolve a complete :class:`RegulatorOperatingPoint`."""
        v_in_resolved = self._resolve_input(v_in)
        return RegulatorOperatingPoint(
            input_voltage_v=v_in_resolved,
            output_voltage_v=v_out,
            output_power_w=p_out,
            input_power_w=self.input_power(v_out, p_out, v_in),
        )

    def check_available_power(self, p_in_available: float) -> None:
        """Raise :class:`OperatingRangeError` for a negative input budget."""
        if p_in_available < 0.0:
            raise OperatingRangeError(
                f"{self.name}: available power must be >= 0, got {p_in_available}"
            )

    def _grid_input_voltage(
        self, p_in_available: float, v_in: "float | None"
    ) -> "float | None":
        """The resolved input voltage for a grid evaluation.

        ``None`` when the scalar arguments alone make
        :meth:`max_output_power` raise at every voltage (a negative
        budget or a non-positive input), so the whole grid is NaN.
        """
        if p_in_available < 0.0 or (v_in is not None and v_in <= 0.0):
            return None
        return self._resolve_input(v_in)

    def max_output_power(
        self, v_out: float, p_in_available: float, v_in: "float | None" = None
    ) -> float:
        """Largest deliverable ``Pout`` given ``p_in_available`` at the input.

        Generic monotone bisection on :meth:`input_power`.  Returns 0
        when even the zero-load overhead exceeds the available power.
        Subclasses with closed-form inverses should override this.
        """
        self.check_available_power(p_in_available)
        self.check_output_voltage(v_out)
        if self.input_power(v_out, 0.0, v_in) >= p_in_available:
            return 0.0

        # Exponential search for an upper bracket.
        high = max(p_in_available, 1e-9)
        for _ in range(60):
            if self.input_power(v_out, high, v_in) >= p_in_available:
                break
            high *= 2.0
        else:
            raise ConvergenceError(
                f"{self.name}: could not bracket max output power"
            )

        low = 0.0
        for _ in range(_BISECT_ITERATIONS):
            mid = 0.5 * (low + high)
            if self.input_power(v_out, mid, v_in) <= p_in_available:
                low = mid
            else:
                high = mid
            if high - low < _BISECT_TOLERANCE_W:
                break
        return low

    def max_output_power_grid(
        self,
        v_out: np.ndarray,
        p_in_available: float,
        v_in: "float | None" = None,
    ) -> np.ndarray:
        """:meth:`max_output_power` at every voltage of a 1-D grid [W].

        NaN wherever the scalar method raises
        :class:`OperatingRangeError`.  This generic form calls the
        scalar method point by point; converters whose closed form
        evaluates over an array with the scalar's exact bits override
        it.
        """
        voltages = np.asarray(v_out, dtype=float)
        powers = np.full(voltages.shape, np.nan)
        for i, v in enumerate(voltages):
            try:
                powers[i] = self.max_output_power(
                    float(v), p_in_available, v_in=v_in
                )
            except OperatingRangeError:
                continue
        return powers

    # -- introspection ----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"vin={self.nominal_input_v:.2f} V, "
            f"vout=[{self.min_output_v:.2f}, {self.max_output_v:.2f}] V)"
        )
