"""Storage capacitor model.

The paper replaces the battery with "a small capacitor" at the solar
node; all of Section VI's scheduling mathematics is capacitor physics:

* eq. (6):  ``(Pin - Pout/eta) * t = C/2 * (V1^2 - V2^2)`` -- the energy
  balance during a monitored discharge;
* eq. (11): the sprint's extra intake is the area recovered under the
  node-voltage trajectory, ``C/2 * (Vstart^2 - Vend^2)`` terms.

This class is a stateful wrapper around those relations with defensive
bounds (a capacitor cannot discharge below zero, ESR drops during high
current draw), used both directly by the analytic schedulers and as the
node state inside the transient simulator.
"""

from __future__ import annotations

from repro.errors import ModelParameterError, OperatingRangeError


class Capacitor:
    """An ideal capacitor with optional equivalent series resistance.

    Parameters
    ----------
    capacitance_f:
        Capacitance in farads (the paper's bench uses tens of uF at the
        solar node).
    initial_voltage_v:
        Starting voltage.
    esr_ohm:
        Equivalent series resistance; drops terminal voltage under load.
    max_voltage_v:
        Rating above which :meth:`charge` refuses to go.
    leakage_current_a:
        Constant self-discharge current while the capacitor holds any
        voltage (dielectric absorption / soakage of an aged or cheap
        part).  Zero for the ideal capacitor; the fault models draw a
        seeded value here.
    """

    def __init__(
        self,
        capacitance_f: float,
        initial_voltage_v: float = 0.0,
        esr_ohm: float = 0.0,
        max_voltage_v: float = 5.0,
        leakage_current_a: float = 0.0,
    ) -> None:
        if capacitance_f <= 0.0:
            raise ModelParameterError(
                f"capacitance must be positive, got {capacitance_f}"
            )
        if initial_voltage_v < 0.0:
            raise ModelParameterError(
                f"initial voltage must be >= 0, got {initial_voltage_v}"
            )
        if esr_ohm < 0.0:
            raise ModelParameterError(f"ESR must be >= 0, got {esr_ohm}")
        if max_voltage_v <= 0.0:
            raise ModelParameterError(
                f"voltage rating must be positive, got {max_voltage_v}"
            )
        if initial_voltage_v > max_voltage_v:
            raise ModelParameterError(
                f"initial voltage {initial_voltage_v} exceeds rating {max_voltage_v}"
            )
        if leakage_current_a < 0.0:
            raise ModelParameterError(
                f"leakage current must be >= 0, got {leakage_current_a}"
            )
        self.capacitance_f = capacitance_f
        self.esr_ohm = esr_ohm
        self.max_voltage_v = max_voltage_v
        self.leakage_current_a = leakage_current_a
        self._voltage_v = initial_voltage_v

    # -- state ---------------------------------------------------------------

    @property
    def voltage_v(self) -> float:
        """Open-circuit voltage of the capacitor."""
        return self._voltage_v

    @property
    def charge_c(self) -> float:
        """Stored charge ``C * V`` [coulomb]."""
        return self.capacitance_f * self._voltage_v

    @property
    def energy_j(self) -> float:
        """Stored energy ``C * V^2 / 2`` [J]."""
        return 0.5 * self.capacitance_f * self._voltage_v * self._voltage_v

    def terminal_voltage(self, load_current_a: float) -> float:
        """Terminal voltage under a load current (ESR drop included)."""
        return self._voltage_v - load_current_a * self.esr_ohm

    # -- energy bookkeeping -----------------------------------------------------

    def energy_between(self, v_high: float, v_low: float) -> float:
        """Energy released traversing ``v_high -> v_low``: ``C/2 (Vh^2 - Vl^2)``.

        This is the right-hand side of the paper's eq. (6) and the
        capacitor term of eq. (11).  Negative when ``v_low > v_high``
        (charging).
        """
        return 0.5 * self.capacitance_f * (v_high * v_high - v_low * v_low)

    def apply_current(self, current_a: float, dt_s: float) -> float:
        """Integrate a net current for ``dt_s`` (positive = charging).

        The voltage is clamped to ``[0, rating]``; returns the new
        open-circuit voltage.  This is the simulator's node update.
        """
        if dt_s < 0.0:
            raise OperatingRangeError(f"time step must be >= 0, got {dt_s}")
        v = self._voltage_v
        if self.leakage_current_a > 0.0 and v > 0.0:
            current_a -= self.leakage_current_a
        v += current_a * dt_s / self.capacitance_f
        # ``min(max(v, 0.0), rating)`` without the builtins: a NaN and a
        # -0.0 pass through unchanged, exactly as they do there.
        if v < 0.0:
            v = 0.0
        if v > self.max_voltage_v:
            v = self.max_voltage_v
        self._voltage_v = v
        return v

    def apply_power(self, power_w: float, dt_s: float) -> float:
        """Integrate a net power for ``dt_s`` (positive = charging).

        Exact energy integration: ``V_new = sqrt(V^2 + 2 P dt / C)``,
        clamped at zero when discharge exhausts the store.
        """
        if dt_s < 0.0:
            raise OperatingRangeError(f"time step must be >= 0, got {dt_s}")
        if self.leakage_current_a > 0.0 and self._voltage_v > 0.0:
            power_w -= self.leakage_current_a * self._voltage_v
        squared = self._voltage_v * self._voltage_v + (
            2.0 * power_w * dt_s / self.capacitance_f
        )
        self._voltage_v = min(max(squared, 0.0) ** 0.5, self.max_voltage_v)
        return self._voltage_v

    def charge(self, target_v: float) -> None:
        """Set the capacitor to ``target_v`` (bench precharge)."""
        if not 0.0 <= target_v <= self.max_voltage_v:
            raise OperatingRangeError(
                f"target {target_v} V outside [0, {self.max_voltage_v}] V"
            )
        self._voltage_v = target_v

    def discharge_time(
        self, v_from: float, v_to: float, net_discharge_power_w: float
    ) -> float:
        """Time to traverse ``v_from -> v_to`` at a constant net power draw.

        The inverse of eq. (6): ``t = C (V1^2 - V2^2) / (2 P)``.  Used by
        the comparator-based power estimator and its tests.
        """
        if v_to >= v_from:
            raise OperatingRangeError(
                f"discharge requires v_to < v_from, got {v_from} -> {v_to}"
            )
        if net_discharge_power_w <= 0.0:
            raise OperatingRangeError(
                "discharge time requires a positive net discharge power"
            )
        return self.energy_between(v_from, v_to) / net_discharge_power_w

    def copy(self) -> "Capacitor":
        """An independent capacitor with identical state."""
        return Capacitor(
            capacitance_f=self.capacitance_f,
            initial_voltage_v=self._voltage_v,
            esr_ohm=self.esr_ohm,
            max_voltage_v=self.max_voltage_v,
            leakage_current_a=self.leakage_current_a,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Capacitor({self.capacitance_f * 1e6:.1f} uF @ "
            f"{self._voltage_v:.3f} V)"
        )
