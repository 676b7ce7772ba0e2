"""Dynamic and leakage power of the microprocessor.

The paper's eq. (5) splits processor energy into a dynamic term that
depends only on supply voltage and a leakage term that is "a function
of leakage power and clock speed, both of which are functions of Vdd".
These two classes are those terms:

* :class:`DynamicPowerModel` -- the classic switched-capacitance model
  ``P = a * Ceff * V^2 * f``; per-cycle dynamic energy ``a * Ceff * V^2``
  is frequency independent.
* :class:`LeakageModel` -- subthreshold leakage with drain-induced
  barrier lowering (DIBL): the leakage *current* grows exponentially
  with supply, and the leakage *energy per cycle* ``V * Ileak / f``
  diverges at low voltage where the clock collapses, creating the
  minimum energy point of Figs. 7(b)/11(a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelParameterError, OperatingRangeError


@dataclass(frozen=True)
class DynamicPowerModel:
    """Switched-capacitance dynamic power.

    Parameters
    ----------
    effective_capacitance_f:
        ``Ceff``: total capacitance switched per clock cycle at activity
        1.0 -- the paper's eq. (8) lumped parameter ``C`` "to account
        for capacitance of internal circuit".
    activity:
        Workload activity factor scaling ``Ceff`` (1.0 = the
        characterisation workload).
    """

    effective_capacitance_f: float
    activity: float = 1.0

    def __post_init__(self) -> None:
        if self.effective_capacitance_f <= 0.0:
            raise ModelParameterError(
                f"effective capacitance must be positive, got "
                f"{self.effective_capacitance_f}"
            )
        if not 0.0 < self.activity <= 2.0:
            raise ModelParameterError(
                f"activity factor must be in (0, 2], got {self.activity}"
            )

    def energy_per_cycle(
        self, voltage_v: "float | np.ndarray"
    ) -> "float | np.ndarray":
        """Dynamic energy per clock cycle [J]: ``a * Ceff * V^2``.

        A float (or int) takes plain float arithmetic, which gives its
        array element's exact bits; so do :meth:`power` and
        :class:`LeakageModel`'s ``current`` and ``power``.
        """
        if isinstance(voltage_v, (float, int)):
            v = float(voltage_v)
            return self.activity * self.effective_capacitance_f * v * v
        v = np.asarray(voltage_v, dtype=float)
        return self.activity * self.effective_capacitance_f * v * v

    def power(
        self, voltage_v: "float | np.ndarray", frequency_hz: "float | np.ndarray"
    ) -> "float | np.ndarray":
        """Dynamic power [W] at the given supply and clock."""
        if isinstance(voltage_v, (float, int)) and isinstance(
            frequency_hz, (float, int)
        ):
            return self.energy_per_cycle(voltage_v) * float(frequency_hz)
        return self.energy_per_cycle(voltage_v) * np.asarray(
            frequency_hz, dtype=float
        )


@dataclass(frozen=True)
class LeakageModel:
    """Subthreshold leakage current with DIBL supply dependence.

    ``Ileak(V) = I0 * exp(V / Vdibl)`` -- the exponential supply
    sensitivity through drain-induced barrier lowering that makes
    leakage *power* grow super-linearly with voltage while leakage
    *energy per cycle* still diverges at low voltage.

    Parameters
    ----------
    reference_current_a:
        Leakage current extrapolated to V = 0 (``I0``).
    dibl_voltage_v:
        Exponential scale of the supply dependence.
    """

    reference_current_a: float
    dibl_voltage_v: float = 0.8

    def __post_init__(self) -> None:
        if self.reference_current_a < 0.0:
            raise ModelParameterError(
                f"leakage current must be >= 0, got {self.reference_current_a}"
            )
        if self.dibl_voltage_v <= 0.0:
            raise ModelParameterError(
                f"DIBL voltage must be positive, got {self.dibl_voltage_v}"
            )

    def current(self, voltage_v: "float | np.ndarray") -> "float | np.ndarray":
        """Leakage current at the given supply [A].

        The scalar ``np.exp`` of a float returns its array element's
        exact bits (``math.exp`` does not always).
        """
        if isinstance(voltage_v, (float, int)):
            return self.reference_current_a * float(
                np.exp(float(voltage_v) / self.dibl_voltage_v)
            )
        v = np.asarray(voltage_v, dtype=float)
        return self.reference_current_a * np.exp(v / self.dibl_voltage_v)

    def power(self, voltage_v: "float | np.ndarray") -> "float | np.ndarray":
        """Leakage power ``V * Ileak(V)`` [W]."""
        if isinstance(voltage_v, (float, int)):
            return float(voltage_v) * self.current(voltage_v)
        v = np.asarray(voltage_v, dtype=float)
        return v * self.current(v)

    def energy_per_cycle(
        self, voltage_v: "float | np.ndarray", frequency_hz: "float | np.ndarray"
    ) -> "float | np.ndarray":
        """Leakage energy charged to each cycle [J]: ``Pleak / f``.

        Raises when asked about a zero/negative clock -- leakage energy
        per cycle is undefined for a stopped clock (the caller should
        treat a stopped processor as pure leakage *power*).
        """
        f = np.asarray(frequency_hz, dtype=float)
        if np.any(f <= 0.0):
            raise OperatingRangeError(
                "leakage energy per cycle needs a positive clock frequency"
            )
        return self.power(voltage_v) / f
