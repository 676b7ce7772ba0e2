"""Deadline scheduling with "sprinting" and regulator bypass
(Section VI-B, eqs. 8-13).

Under a completion-time constraint the processor may have to consume
more than the harvester supplies; the node capacitor covers the
deficit and the job must finish before the node sags too low.  The
paper's analysis:

* eq. (8):  source energy for ``N`` cycles at supply ``V`` is
  ``N * C_proc * V^2 / eta``;
* eqs. (9)-(10): with ``f`` approximately linear in ``V``, the energy
  required from the source rises steeply as the deadline shrinks;
* eq. (11): the energy available within ``T`` is the solar intake
  ``P_in * T`` plus the capacitor's swing ``C/2 (Vstart^2 - Vend^2)``;
  the fastest feasible completion time is where the two curves cross
  (Fig. 9(a));
* eqs. (12)-(13): the *sprinting* schedule -- run slower while the node
  is still high, sprint once it has sagged -- keeps the solar node
  near its maximum-power voltage longer, harvesting extra energy
  (~10% at a 20% sprint factor), and *bypassing* the regulator at the
  end of the discharge unlocks the capacitor energy below the
  regulator's minimum input (~25% more of the stored energy).

:class:`SprintScheduler` implements the analysis; its companion
:class:`SprintController` executes the schedule inside the transient
simulator for the waveform-level reproductions (Figs. 9(b), 11(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.system import EnergyHarvestingSoC
from repro.errors import (
    InfeasibleOperatingPointError,
    ModelParameterError,
    OperatingRangeError,
)
from repro.processor.workloads import Workload
from repro.regulators.base import Regulator
from repro.sim.dvfs import ControlDecision, ControllerView, DvfsController
from repro.sim.engine import clamped_frequency_and_power
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


def min_input_voltage_for_output(
    regulator: Regulator, v_out: float, probe_power_w: float = 1e-3
) -> float:
    """Lowest input voltage from which the converter can regulate ``v_out``.

    Found by bisection on the converter's own range checking (duty
    limit for a buck, ratio availability for an SC bank).  This is the
    node voltage at which the paper's scheme throws the bypass switch.
    """
    def feasible(v_in: float) -> bool:
        try:
            regulator.input_power(v_out, probe_power_w, v_in=v_in)
            return True
        except OperatingRangeError:
            return False

    high = max(regulator.nominal_input_v * 2.0, v_out * 4.0)
    if not feasible(high):
        raise InfeasibleOperatingPointError(
            f"{regulator.name} cannot regulate {v_out:.3f} V from any input"
        )
    low = v_out * 0.5
    if feasible(low):
        return low
    for _ in range(80):
        mid = 0.5 * (low + high)
        if feasible(mid):
            high = mid
        else:
            low = mid
        if high - low < 1e-6:
            break
    return high


@dataclass(frozen=True)
class SprintPlan:
    """An executable sprint schedule.

    Phase changes are keyed to the measured node voltage, matching the
    comparator-driven control of the paper's bench (Fig. 11(b)): slow
    while the node is above ``accelerate_below_v``, sprint below it,
    bypass once the node cannot sustain the regulated output.
    """

    output_voltage_v: float
    slow_frequency_hz: float
    fast_frequency_hz: float
    accelerate_below_v: float
    bypass_below_v: float
    cycles: int
    sprint_factor: float

    def __post_init__(self) -> None:
        if self.slow_frequency_hz <= 0.0 or self.fast_frequency_hz <= 0.0:
            raise ModelParameterError("sprint frequencies must be positive")
        if self.fast_frequency_hz < self.slow_frequency_hz:
            raise ModelParameterError(
                "fast frequency must be >= slow frequency"
            )
        if self.bypass_below_v >= self.accelerate_below_v:
            raise ModelParameterError(
                "bypass threshold must lie below the acceleration threshold"
            )
        if not 0.0 <= self.sprint_factor < 1.0:
            raise ModelParameterError(
                f"sprint factor must be in [0, 1), got {self.sprint_factor}"
            )


class SprintScheduler:
    """Analytic deadline/energy analysis and sprint planning.

    Parameters
    ----------
    system:
        The composed SoC.
    regulator_name:
        Converter used during the regulated phases.
    sprint_factor:
        The paper's beta: fractional slow-down/speed-up around the
        deadline's average speed (0.2 in the measured demo).
    """

    def __init__(
        self,
        system: EnergyHarvestingSoC,
        regulator_name: str = "buck",
        sprint_factor: float = 0.2,
    ) -> None:
        if not 0.0 <= sprint_factor < 1.0:
            raise ModelParameterError(
                f"sprint factor must be in [0, 1), got {sprint_factor}"
            )
        self.system = system
        self.regulator_name = regulator_name
        self.regulator = system.regulator(regulator_name)
        self.sprint_factor = sprint_factor
        self._mep_cache: "dict[float | None, float]" = {}

    def _holistic_mep_voltage(self, v_in: "float | None") -> float:
        """The eq. (5) minimum-energy voltage for this converter (cached)."""
        if v_in not in self._mep_cache:
            from repro.core.mep import HolisticMepOptimizer

            optimizer = HolisticMepOptimizer(self.system, input_voltage_v=v_in)
            self._mep_cache[v_in] = optimizer.holistic_mep(
                self.regulator_name
            ).voltage_v
        return self._mep_cache[v_in]

    # -- eq. (8)/(10): energy required from the source ------------------------------

    def required_source_energy(
        self, workload: Workload, completion_time_s: float, v_in: "float | None" = None
    ) -> float:
        """Source energy to finish ``workload`` in ``completion_time_s``.

        Implements eq. (10): the deadline fixes the average frequency,
        the frequency fixes the minimum supply voltage, and the supply
        voltage fixes the per-cycle energy, inflated by the converter
        efficiency at that operating point.
        """
        if completion_time_s <= 0.0:
            raise ModelParameterError(
                f"completion time must be positive, got {completion_time_s}"
            )
        processor = self.system.processor
        f_required = workload.cycles / completion_time_s
        # The supply must reach the deadline's speed but should never
        # drop below the holistic MEP: past that point the right
        # strategy is to run at the MEP, finish early, and halt
        # (stretching the work out any slower only feeds leakage and
        # converter overhead).  The converter's minimum output is a
        # hard floor.
        v = max(
            processor.voltage_for_frequency(f_required),
            self._holistic_mep_voltage(v_in),
            self.regulator.min_output_v,
            processor.min_operating_v,
        )
        f_run = max(f_required, float(processor.max_frequency(v)))
        energy_per_cycle = float(processor.energy_per_cycle(v, f_run))
        power = float(processor.power(v, f_run))
        efficiency = self.regulator.efficiency(v, power, v_in=v_in)
        if efficiency <= 0.0:
            raise InfeasibleOperatingPointError(
                f"{self.regulator_name} cannot deliver "
                f"{power * 1e3:.2f} mW at {v:.3f} V"
            )
        return workload.cycles * energy_per_cycle / efficiency

    # -- eq. (11): energy available within T -----------------------------------------

    def available_energy(
        self,
        completion_time_s: float,
        irradiance: float,
        v_start: float,
        v_end: float,
    ) -> float:
        """Solar intake at MPP plus the capacitor swing (eq. 11)."""
        if completion_time_s <= 0.0:
            raise ModelParameterError(
                f"completion time must be positive, got {completion_time_s}"
            )
        if v_end > v_start:
            raise ModelParameterError(
                f"v_end {v_end} must not exceed v_start {v_start}"
            )
        mpp = self.system.mpp(irradiance)
        cap_energy = (
            0.5
            * self.system.node_capacitance_f
            * (v_start * v_start - v_end * v_end)
        )
        return mpp.power_w * completion_time_s + cap_energy

    # -- Fig. 9(a): the feasibility frontier --------------------------------------------

    def fastest_completion_time(
        self,
        workload: Workload,
        irradiance: float,
        v_start: float,
        v_end: float,
        t_max_s: float = 10.0,
    ) -> float:
        """The Ein/Eout intersection of Fig. 9(a), by bisection.

        Required energy grows as T shrinks while available energy
        shrinks, so the crossing is unique when it exists.
        """
        mpp_v = self.system.mpp(irradiance).voltage_v

        def slack(t: float) -> float:
            try:
                required = self.required_source_energy(workload, t, v_in=mpp_v)
            except (OperatingRangeError, InfeasibleOperatingPointError):
                return -float("inf")
            return self.available_energy(t, irradiance, v_start, v_end) - required

        if slack(t_max_s) < 0.0:
            raise InfeasibleOperatingPointError(
                f"workload infeasible even in {t_max_s} s at irradiance "
                f"{irradiance}"
            )
        low = workload.cycles / float(
            self.system.processor.max_frequency(
                self.system.processor.max_operating_v
            )
        )
        if slack(low) >= 0.0:
            return low
        high = t_max_s
        for _ in range(100):
            mid = 0.5 * (low + high)
            if slack(mid) >= 0.0:
                high = mid
            else:
                low = mid
            if high - low < 1e-9:
                break
        return high

    # -- planning ------------------------------------------------------------------------

    def plan(
        self,
        workload: Workload,
        v_start: float,
        accelerate_fraction: float = 0.4,
        bypass_margin_v: float = 0.02,
    ) -> SprintPlan:
        """Build the executable sprint schedule for a deadline workload.

        The regulated setpoint is sized for the sprint speed; the
        acceleration threshold is placed ``accelerate_fraction`` of the
        way down from the start voltage to the bypass voltage
        (matching the measured demo's 1.2 V -> 0.9 V slow phase).
        """
        if workload.deadline_s is None:
            raise ModelParameterError(
                "sprint planning needs a workload with a deadline"
            )
        if not 0.0 < accelerate_fraction < 1.0:
            raise ModelParameterError(
                f"accelerate fraction must be in (0, 1), got {accelerate_fraction}"
            )
        processor = self.system.processor
        f_avg = workload.cycles / workload.deadline_s
        f_slow = f_avg * (1.0 - self.sprint_factor)
        f_fast = f_avg * (1.0 + self.sprint_factor)
        try:
            v_out = processor.voltage_for_frequency(f_fast)
        except OperatingRangeError as exc:
            raise InfeasibleOperatingPointError(
                f"deadline needs {f_fast / 1e6:.0f} MHz, beyond the "
                "processor's reach"
            ) from exc
        v_out = max(v_out, self.regulator.min_output_v)
        if v_out > self.regulator.max_output_v:
            raise InfeasibleOperatingPointError(
                f"deadline needs {v_out:.3f} V, above the "
                f"{self.regulator_name} range"
            )
        bypass_below = (
            min_input_voltage_for_output(self.regulator, v_out) + bypass_margin_v
        )
        if bypass_below >= v_start:
            raise InfeasibleOperatingPointError(
                f"start voltage {v_start:.3f} V is already below the "
                f"regulator's minimum input {bypass_below:.3f} V"
            )
        accelerate_below = v_start - accelerate_fraction * (v_start - bypass_below)
        return SprintPlan(
            output_voltage_v=v_out,
            slow_frequency_hz=f_slow,
            fast_frequency_hz=f_fast,
            accelerate_below_v=accelerate_below,
            bypass_below_v=bypass_below,
            cycles=workload.cycles,
            sprint_factor=self.sprint_factor,
        )

    # -- eqs. (12)-(13): analytic gain estimates -----------------------------------------

    def analytic_extra_solar_energy(
        self,
        workload: Workload,
        irradiance: float,
        v_start: float,
        steps: int = 2000,
    ) -> "tuple[float, float]":
        """First-order estimate of the sprint's extra solar intake.

        Integrates the one-node energy balance for the constant-speed
        and the two-phase sprint schedules (same completion time) and
        returns ``(E_solar_constant, E_solar_sprint)``.  This is the
        quantity eq. (12) approximates; the full waveform-level number
        comes from the transient simulator.
        """
        if workload.deadline_s is None:
            raise ModelParameterError("needs a workload with a deadline")
        if steps < 16:
            raise ModelParameterError(f"steps must be >= 16, got {steps}")
        processor = self.system.processor
        cell = self.system.cell
        t_total = workload.deadline_s
        f_avg = workload.cycles / t_total

        # The schedules run at most three distinct frequencies, so each
        # f(V) inversion and its power are computed once per call, keyed
        # on the exact frequency (both depend on nothing else).
        supply: "dict[float, tuple[float, float]]" = {}

        def draw_power(frequency_hz: float, v_in: float) -> float:
            if frequency_hz not in supply:
                v = processor.voltage_for_frequency(frequency_hz)
                supply[frequency_hz] = (
                    v, float(processor.power(v, frequency_hz))
                )
            v, p = supply[frequency_hz]
            try:
                return self.regulator.input_power(v, p, v_in=v_in)
            except OperatingRangeError:
                # Below regulated range: fall back to bypass draw.
                v_eval = min(max(v_in, processor.min_operating_v),
                             processor.max_operating_v)
                return clamped_frequency_and_power(
                    processor, v_eval, frequency_hz, cache=None
                )[1]

        def integrate(schedule: "Callable[[float], float]") -> float:
            capacitance = self.system.node_capacitance_f
            v_node = v_start
            dt = t_total / steps
            solar = 0.0
            for i in range(steps):
                t = (i + 0.5) * dt
                p_pv = float(cell.power(v_node, irradiance))
                p_draw = draw_power(schedule(t), v_node)
                solar += p_pv * dt
                dv = (p_pv - p_draw) / (capacitance * max(v_node, 1e-3)) * dt
                v_node = max(v_node + dv, 1e-3)
            return solar

        constant = integrate(lambda t: f_avg)
        beta = self.sprint_factor
        sprint = integrate(
            lambda t: f_avg * (1.0 - beta)
            if t < 0.5 * t_total
            else f_avg * (1.0 + beta)
        )
        return constant, sprint

    def bypass_energy_extension(
        self, v_out: float, v_floor: "float | None" = None
    ) -> "tuple[float, float]":
        """Capacitor energy unlocked by the bypass switch (eq. 13 regime).

        Returns ``(regulated_only_j, with_bypass_j)``: the capacitor
        energy usable when discharge must stop at the regulator's
        minimum input, versus discharging on through the bypass down to
        the processor's own minimum (or ``v_floor``).
        """
        v_reg_min = min_input_voltage_for_output(self.regulator, v_out)
        if v_floor is None:
            v_floor = self.system.processor.min_operating_v
        if v_floor > v_reg_min:
            raise ModelParameterError(
                f"floor {v_floor} above regulator minimum input {v_reg_min}"
            )
        capacitance = self.system.node_capacitance_f
        v_start = self.regulator.nominal_input_v
        regulated = 0.5 * capacitance * (v_start**2 - v_reg_min**2)
        with_bypass = 0.5 * capacitance * (v_start**2 - v_floor**2)
        return regulated, with_bypass


class SprintController(DvfsController):
    """Executes a :class:`SprintPlan` inside the transient simulator.

    Phase logic (comparator-style, on node voltage):

    1. node above ``accelerate_below_v``: regulated, slow clock;
    2. node below it: regulated, sprint clock;
    3. node below ``bypass_below_v``: bypass switch closed, clock at
       whatever the sagging node sustains;
    4. work complete: halt (the paper then duty-cycles to restore the
       capacitor; the halt lets the node recharge, visible in the
       waveforms).

    The bypass transition is sticky (no flapping back when the node
    recovers slightly after the load change).

    When given a ``telemetry`` sink the controller traces its phase
    progression (``slow`` -> ``sprint`` -> ``bypass`` -> ``done``) and,
    when ``deadline_s`` is known, counts ``sprint.deadline_misses`` if
    the work completes past the deadline (or the run ends with work
    still outstanding at a decision past it).
    """

    def __init__(
        self,
        plan: SprintPlan,
        allow_bypass: bool = True,
        telemetry: "Telemetry | None" = None,
        deadline_s: "float | None" = None,
    ) -> None:
        self.plan = plan
        self.allow_bypass = allow_bypass
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.deadline_s = deadline_s
        self._bypassed = False
        self._phase: "str | None" = None
        self._miss_counted = False
        # The four actuations the plan can command, built once.
        self._halt = ControlDecision(mode="halt", frequency_hz=0.0)
        self._bypass = ControlDecision(
            mode="bypass", frequency_hz=plan.fast_frequency_hz
        )
        self._sprint = ControlDecision(
            mode="regulated",
            frequency_hz=plan.fast_frequency_hz,
            output_voltage_v=plan.output_voltage_v,
        )
        self._slow = ControlDecision(
            mode="regulated",
            frequency_hz=plan.slow_frequency_hz,
            output_voltage_v=plan.output_voltage_v,
        )

    def reset(self) -> None:
        self._bypassed = False
        self._phase = None
        self._miss_counted = False

    def _enter_phase(self, phase: str, view: ControllerView) -> None:
        if phase == self._phase:
            return
        tel = self.telemetry
        if self._phase is not None:
            tel.count("sprint.phase_changes")
        tel.event(
            "sprint.phase", view.time_s, track="sprint",
            phase=phase, node_v=view.node_voltage_v,
            cycles_done=float(view.cycles_done),
        )
        self._phase = phase

    def _check_deadline(self, view: ControllerView) -> None:
        # Fires once, at the first decision past the deadline with work
        # still outstanding -- whether or not the job later finishes.
        if (
            self.deadline_s is None
            or self._miss_counted
            or view.time_s <= self.deadline_s
            or view.cycles_done >= self.plan.cycles
        ):
            return
        self._miss_counted = True
        self.telemetry.count("sprint.deadline_misses")
        self.telemetry.event(
            "sprint.deadline_miss", view.time_s, track="sprint",
            deadline_s=self.deadline_s,
            overrun_s=view.time_s - self.deadline_s,
            cycles_done=float(view.cycles_done),
        )

    def decide(self, view: ControllerView) -> ControlDecision:
        plan = self.plan
        self._check_deadline(view)
        if view.cycles_done >= plan.cycles:
            self._enter_phase("done", view)
            return self._halt
        if self.allow_bypass and (
            self._bypassed or view.node_voltage_v <= plan.bypass_below_v
        ):
            self._bypassed = True
            self._enter_phase("bypass", view)
            return self._bypass
        if view.node_voltage_v <= plan.accelerate_below_v:
            self._enter_phase("sprint", view)
            return self._sprint
        self._enter_phase("slow", view)
        return self._slow
