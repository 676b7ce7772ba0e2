"""Plan -> DVFS-controller adapters.

A :class:`~repro.planner.dp.Plan` is slot-indexed; the transient
simulator wants a per-step :class:`~repro.sim.dvfs.DvfsController`.
The adapters here close that gap so a plan drives
:class:`~repro.sim.engine.TransientSimulator` and
:class:`~repro.fleet.engine.FleetSimulator` unchanged:

* :class:`PlanController` follows a fixed plan (the *oracle* when the
  plan was solved on the true trace);
* :class:`RecedingHorizonController` re-plans at every slot boundary
  from the **measured** node energy (``CV^2/2`` of the observed node
  voltage) against its forecast -- the planner policy.  It solves the
  forecast's DP once; each replan reads that solve's policy and value
  rows at the current slot and measured level.

Both are pure functions of the observable :class:`ControllerView`
plus deterministic internal slot state.  The fleet engine runs their
lanes through the scalar engine (only MPP trackers vectorize), so
scalar and fleet engines produce bit-identical runs (asserted in
``tests/planner/``).
Telemetry instrumentation follows the sprint controller's idiom:
``planner.replans``, ``planner.slot_advances``, ``planner.
deadline_misses`` counters and plan-vs-actual ``planner.energy_gap_j``
gauges ride the normal metrics pipeline.
"""

from __future__ import annotations

import abc

from repro.core.system import EnergyHarvestingSoC
from repro.errors import ModelParameterError
from repro.planner.dp import (
    EnergyGrid,
    Plan,
    PlannerAction,
    PlannerSpec,
    build_actions,
    solve_plan,
)
from repro.planner.forecast import (
    EnergyForecast,
    ForecastErrorModel,
    bin_trace,
)
from repro.processor.workloads import Workload
from repro.pv.traces import IrradianceTrace
from repro.sim.dvfs import ControlDecision, ControllerView, DvfsController
from repro.telemetry.session import NULL_TELEMETRY, Telemetry

#: Planner policy names accepted by :func:`make_planner_controller`.
PLANNER_MODES = ("receding", "oracle")

_HALT = ControlDecision(mode="halt", frequency_hz=0.0)


class _PlanFollower(DvfsController):
    """Shared per-step loop: guards, slot clock, energy gate, telemetry.

    A subclass picks each slot's action in :meth:`_enter_slot`; the
    action's decision is built once per slot, at the first step the
    store can back it, and returned as is until the slot ends.
    """

    def __init__(
        self,
        capacitance_f: float,
        total_cycles: "int | None",
        deadline_s: "float | None",
        telemetry: "Telemetry | None",
        start_s: float,
        slot_s: float,
        slots: int,
    ) -> None:
        if capacitance_f <= 0.0:
            raise ModelParameterError(
                f"capacitance must be positive, got {capacitance_f}"
            )
        self.capacitance_f = capacitance_f
        self.total_cycles = total_cycles
        self.deadline_s = deadline_s
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._start_s = start_s
        self._slot_s = slot_s
        self._last_slot = slots - 1
        self._miss_counted = False
        self._slot: "int | None" = None
        self._action: "PlannerAction | None" = None
        self._decision: "ControlDecision | None" = None

    def reset(self) -> None:
        self._miss_counted = False
        self._slot = None
        self._action = None
        self._decision = None

    def _measured_energy_j(self, view: ControllerView) -> float:
        return 0.5 * self.capacitance_f * view.node_voltage_v**2

    @abc.abstractmethod
    def _enter_slot(self, slot: int, view: ControllerView) -> PlannerAction:
        """The action to execute from ``slot``'s first step to its end."""

    def _count_deadline_miss(
        self, view: ControllerView, deadline_s: float
    ) -> None:
        # Fires once, at the first decision past the deadline with
        # work still outstanding (same semantics as the sprint
        # controller's ``sprint.deadline_misses``).
        self._miss_counted = True
        self.telemetry.count("planner.deadline_misses")
        self.telemetry.event(
            "planner.deadline_miss", view.time_s, track="planner",
            deadline_s=deadline_s,
            overrun_s=view.time_s - deadline_s,
            cycles_done=float(view.cycles_done),
        )

    def decide(self, view: ControllerView) -> ControlDecision:
        total = self.total_cycles
        if total is not None:
            if view.cycles_done >= total:
                return _HALT
            deadline = self.deadline_s
            if (
                deadline is not None
                and not self._miss_counted
                and view.time_s > deadline
            ):
                self._count_deadline_miss(view, deadline)
        slot = int((view.time_s - self._start_s) / self._slot_s)
        if slot < 0:
            slot = 0
        if slot > self._last_slot:
            slot = self._last_slot
        action = self._action
        if slot != self._slot or action is None:
            self._slot = slot
            action = self._action = self._enter_slot(slot, view)
            self._decision = None
        # Degrade to charge when the store cannot back the action --
        # the same fallback the grid-world replay uses, and the reason
        # "charge is always feasible" keeps every plan executable.
        if self._measured_energy_j(view) < action.min_energy_j:
            return _HALT
        decision = self._decision
        if decision is None:
            decision = self._decision = _decision_of(action)
        return decision


def _decision_of(action: PlannerAction) -> ControlDecision:
    if action.mode == "halt":
        return _HALT
    if action.mode == "bypass":
        return ControlDecision(mode="bypass", frequency_hz=action.frequency_hz)
    return ControlDecision(
        mode="regulated",
        frequency_hz=action.frequency_hz,
        output_voltage_v=action.processor_voltage_v,
    )


class PlanController(_PlanFollower):
    """Follow a fixed :class:`Plan` slot by slot.

    With a plan solved on the *true* trace this is the oracle policy;
    with a plan solved on a distorted forecast it shows what blind
    plan-following costs (the receding-horizon controller is the
    fix).  At each slot boundary the plan-vs-actual stored-energy gap
    is published as the ``planner.energy_gap_j`` gauge.
    """

    def __init__(
        self,
        plan: Plan,
        capacitance_f: float,
        total_cycles: "int | None" = None,
        deadline_s: "float | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        super().__init__(
            capacitance_f, total_cycles, deadline_s, telemetry,
            plan.start_s, plan.slot_s, plan.slots,
        )
        if plan.slots == 0:
            raise ModelParameterError("plan has no steps")
        self.plan = plan

    def _enter_slot(self, slot: int, view: ControllerView) -> PlannerAction:
        step = self.plan.steps[slot]
        self.telemetry.count("planner.slot_advances")
        self.telemetry.gauge(
            "planner.energy_gap_j",
            self._measured_energy_j(view) - step.energy_before_j,
        )
        return step.action


class RecedingHorizonController(_PlanFollower):
    """Re-plan from the measured state at every slot boundary.

    The controller holds a (possibly wrong) forecast; each time the
    simulated clock crosses into a new slot it measures the node
    energy from the observed voltage and executes, until the next
    boundary, the first action of the remaining-horizon DP from that
    state.  Backward induction over ``forecast.suffix(slot)`` yields
    exactly rows ``slot..`` of the full-horizon solve, so the forecast
    is solved once, at the first replan, and every replan is a lookup
    of ``policy[slot, level]`` and ``value[slot, level]``.  The solve
    depends only on the constructor arguments, so :meth:`reset` keeps
    it.  ``planner.replans`` counts the replans.
    """

    def __init__(
        self,
        forecast: EnergyForecast,
        actions: "tuple[PlannerAction, ...]",
        grid: EnergyGrid,
        capacitance_f: float,
        total_cycles: "int | None" = None,
        deadline_s: "float | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        super().__init__(
            capacitance_f, total_cycles, deadline_s, telemetry,
            forecast.start_s, forecast.slot_s, forecast.slots,
        )
        self.forecast = forecast
        self.actions = actions
        self.grid = grid
        self._plan: "Plan | None" = None

    def _solved(self) -> Plan:
        # The value and policy tables are all a replan reads; the
        # plan's own start state (empty store) is never executed.
        if self._plan is None:
            self._plan = solve_plan(
                self.forecast.income_j,
                self.actions,
                self.grid,
                0.0,
                self.forecast.slot_s,
                start_s=self.forecast.start_s,
            )
        return self._plan

    def _replan(self, slot: int, view: ControllerView) -> PlannerAction:
        energy = self._measured_energy_j(view)
        plan = self._solved()
        level = self.grid.index_of(energy)
        self.telemetry.count("planner.replans")
        self.telemetry.gauge("planner.measured_energy_j", energy)
        self.telemetry.gauge(
            "planner.expected_cycles", float(plan.value[slot, level])
        )
        return self.actions[int(plan.policy[slot, level])]

    def _enter_slot(self, slot: int, view: ControllerView) -> PlannerAction:
        action = self._replan(slot, view)
        self.telemetry.count("planner.slot_advances")
        return action


def make_planner_controller(
    system: EnergyHarvestingSoC,
    regulator_name: str,
    trace: IrradianceTrace,
    mode: str = "receding",
    spec: "PlannerSpec | None" = None,
    error: "ForecastErrorModel | None" = None,
    duration_s: "float | None" = None,
    workload: "Workload | None" = None,
    initial_voltage_v: "float | None" = None,
    telemetry: "Telemetry | None" = None,
) -> DvfsController:
    """Build a planner policy controller for a scenario.

    ``mode="receding"`` returns the practical planner: a
    :class:`RecedingHorizonController` planning on the (optionally
    ``error``-distorted) forecast binned from ``trace``.
    ``mode="oracle"`` solves one DP on the *undistorted* forecast from
    the known ``initial_voltage_v`` and follows it -- the upper bound
    every realizable policy is measured against.  The horizon is
    ``duration_s``, else the workload deadline, else the trace length.
    """
    if mode not in PLANNER_MODES:
        raise ModelParameterError(
            f"mode must be one of {PLANNER_MODES}, got {mode!r}"
        )
    spec = spec or PlannerSpec()
    actions, grid = build_actions(system, regulator_name, spec)
    horizon = duration_s
    if horizon is None and workload is not None:
        horizon = workload.deadline_s
    if horizon is None:
        horizon = trace.duration_s
    perfect = bin_trace(trace, system, spec.slot_s, duration_s=horizon)
    total_cycles = workload.cycles if workload is not None else None
    deadline_s = workload.deadline_s if workload is not None else None
    capacitance = system.node_capacitance_f
    if mode == "oracle":
        if initial_voltage_v is None:
            raise ModelParameterError(
                "oracle mode plans from a known start state; pass "
                "initial_voltage_v"
            )
        plan = solve_plan(
            perfect.income_j,
            actions,
            grid,
            0.5 * capacitance * initial_voltage_v**2,
            perfect.slot_s,
            start_s=perfect.start_s,
        )
        return PlanController(
            plan,
            capacitance_f=capacitance,
            total_cycles=total_cycles,
            deadline_s=deadline_s,
            telemetry=telemetry,
        )
    belief = error.apply(perfect) if error is not None else perfect
    return RecedingHorizonController(
        belief,
        actions,
        grid,
        capacitance_f=capacitance,
        total_cycles=total_cycles,
        deadline_s=deadline_s,
        telemetry=telemetry,
    )
