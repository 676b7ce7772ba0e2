"""Plan adapters: decision mapping, deadlines, engine bit-identity."""

import numpy as np
import pytest

import repro.planner.adapter as adapter
from repro.core.system import paper_system
from repro.errors import ModelParameterError
from repro.fleet.engine import FleetNode, FleetSimulator
from repro.planner.adapter import (
    PLANNER_MODES,
    PlanController,
    RecedingHorizonController,
    make_planner_controller,
)
from repro.planner.dp import PlannerSpec, build_actions, solve_plan
from repro.planner.forecast import ForecastErrorModel, bin_trace
from repro.processor.workloads import Workload
from repro.pv.traces import step_trace
from repro.sim.dvfs import ControlDecision, ControllerView, DvfsController
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.sim.result import results_bit_identical
from repro.telemetry.session import TelemetrySession
from repro.units import micro_seconds, milli_seconds

DURATION_S = 20e-3
TRACE = step_trace(0.35, 0.12, 8e-3, DURATION_S)
SPEC = PlannerSpec(slot_s=milli_seconds(1))


@pytest.fixture(scope="module")
def system():
    return paper_system()


def _oracle_plan(system, initial_voltage_v=1.2):
    actions, grid = build_actions(system, "sc", SPEC)
    forecast = bin_trace(TRACE, system, SPEC.slot_s, duration_s=DURATION_S)
    initial = 0.5 * system.node_capacitance_f * initial_voltage_v**2
    return solve_plan(
        forecast.income_j, actions, grid, initial, forecast.slot_s
    )


def _view(time_s, node_v, cycles=0.0):
    return ControllerView(
        time_s=time_s,
        node_voltage_v=node_v,
        processor_voltage_v=0.0,
        cycles_done=cycles,
        comparator_events=(),
    )


def _sim_config():
    return SimulationConfig(
        time_step_s=micro_seconds(50),
        stop_on_completion=False,
        stop_on_brownout=False,
        recover_from_brownout=True,
        recovery_voltage_v=1.05,
    )


class TestFactory:
    def test_rejects_unknown_mode(self, system):
        with pytest.raises(ModelParameterError):
            make_planner_controller(system, "sc", TRACE, mode="psychic")

    def test_oracle_requires_initial_voltage(self, system):
        with pytest.raises(ModelParameterError):
            make_planner_controller(system, "sc", TRACE, mode="oracle")

    @pytest.mark.parametrize("mode", PLANNER_MODES)
    def test_builds_both_modes(self, system, mode):
        controller = make_planner_controller(
            system, "sc", TRACE, mode=mode, spec=SPEC,
            initial_voltage_v=1.2,
        )
        expected = (
            RecedingHorizonController if mode == "receding"
            else PlanController
        )
        assert isinstance(controller, expected)


class TestPlanController:
    def test_follows_plan_slots(self, system):
        plan = _oracle_plan(system)
        controller = PlanController(
            plan, capacitance_f=system.node_capacitance_f
        )
        for slot in (0, 3, plan.slots - 1):
            view = _view(plan.start_s + (slot + 0.5) * plan.slot_s, 1.2)
            decision = controller.decide(view)
            action = plan.steps[slot].action
            if action.mode != "halt":
                assert decision.mode == action.mode
                assert decision.frequency_hz == action.frequency_hz

    def test_time_past_horizon_clamps_to_last_slot(self, system):
        plan = _oracle_plan(system)
        controller = PlanController(
            plan, capacitance_f=system.node_capacitance_f
        )
        controller.decide(_view(DURATION_S * 10, 1.2))  # must not raise

    def test_degrades_to_halt_when_store_cannot_back_action(self, system):
        plan = _oracle_plan(system)
        controller = PlanController(
            plan, capacitance_f=system.node_capacitance_f
        )
        slot = next(
            index for index, step in enumerate(plan.steps)
            if step.action.mode != "halt"
        )
        view = _view(plan.start_s + (slot + 0.5) * plan.slot_s, 0.01)
        assert controller.decide(view).mode == "halt"

    def test_halts_once_work_is_done(self, system):
        plan = _oracle_plan(system)
        controller = PlanController(
            plan,
            capacitance_f=system.node_capacitance_f,
            total_cycles=1000,
        )
        assert controller.decide(_view(1e-3, 1.2, cycles=1000)).mode == "halt"

    def test_deadline_miss_counted_once(self, system):
        plan = _oracle_plan(system)
        session = TelemetrySession()
        controller = PlanController(
            plan,
            capacitance_f=system.node_capacitance_f,
            total_cycles=10**9,
            deadline_s=5e-3,
            telemetry=session,
        )
        controller.decide(_view(6e-3, 1.2))
        controller.decide(_view(7e-3, 1.2))
        assert (
            session.metrics.as_dict()["planner.deadline_misses"] == 1.0
        )

    def test_reset_clears_slot_and_miss_state(self, system):
        plan = _oracle_plan(system)
        controller = PlanController(
            plan, capacitance_f=system.node_capacitance_f
        )
        controller.decide(_view(1e-3, 1.2))
        controller.reset()
        assert controller._slot is None

    def test_rejects_nonpositive_capacitance(self, system):
        plan = _oracle_plan(system)
        with pytest.raises(ModelParameterError):
            PlanController(plan, capacitance_f=0.0)


class TestRecedingTelemetry:
    def test_replans_once_per_slot(self, system):
        session = TelemetrySession()
        controller = make_planner_controller(
            system, "sc", TRACE, mode="receding", spec=SPEC,
            initial_voltage_v=1.2, telemetry=session,
        )
        # Three decisions inside slot 0, then one in slot 1.
        for t in (0.1e-3, 0.4e-3, 0.9e-3, 1.2e-3):
            controller.decide(_view(t, 1.2))
        assert session.metrics.as_dict()["planner.replans"] == 2.0


class TestRecedingSolvesOnce:
    def _controller(self, system, session=None):
        return make_planner_controller(
            system, "sc", TRACE, mode="receding", spec=SPEC,
            error=ForecastErrorModel(bias=-0.15, noise_sigma=0.2, seed=3),
            duration_s=DURATION_S, initial_voltage_v=1.2,
            telemetry=session,
        )

    def test_one_solve_per_run(self, system, monkeypatch):
        solves = []

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return solve_plan(*args, **kwargs)

        monkeypatch.setattr(adapter, "solve_plan", counting_solve)
        session = TelemetrySession()
        controller = self._controller(system, session)

        def run():
            return TransientSimulator(
                cell=system.cell,
                node_capacitor=system.new_node_capacitor(1.2),
                processor=system.processor,
                regulator=system.regulator("sc"),
                controller=controller,
                comparators=system.new_comparator_bank(),
                config=_sim_config(),
            ).run(TRACE, duration_s=DURATION_S)

        first = run()
        assert len(solves) == 1
        assert session.metrics.as_dict()["planner.replans"] == 20.0
        # The solve depends only on the constructor, so a reset (the
        # simulator resets its controller) keeps it.
        controller.reset()
        assert results_bit_identical(first, run())
        assert len(solves) == 1

    def test_replan_reads_the_suffix_solve(self, system):
        # Each replan must give the first action and expected cycles
        # of the DP solved on the forecast suffix from the measured
        # energy -- the definition the lookup replaces.
        session = TelemetrySession()
        controller = self._controller(system, session)
        forecast = controller.forecast
        for slot in range(0, forecast.slots, 3):
            suffix = forecast.suffix(slot)
            for node_v in (0.0, 0.3, 0.45, 0.6, 0.9, 1.2, 1.6, 1.7):
                view = _view(suffix.start_s, node_v)
                energy = 0.5 * system.node_capacitance_f * node_v**2
                reference = solve_plan(
                    suffix.income_j, controller.actions, controller.grid,
                    energy, suffix.slot_s, start_s=suffix.start_s,
                )
                action = controller._replan(slot, view)
                gauges = session.metrics.as_dict()
                assert action is reference.steps[0].action
                assert (
                    gauges["planner.expected_cycles"]
                    == reference.expected_cycles
                )


class TestEngineBitIdentity:
    @pytest.mark.parametrize("mode", PLANNER_MODES)
    def test_batch_of_one_matches_scalar(self, system, mode):
        workload = Workload(
            name="adapter", cycles=5_000_000, deadline_s=DURATION_S
        )
        error = (
            ForecastErrorModel(bias=-0.15, noise_sigma=0.2, seed=3)
            if mode == "receding"
            else None
        )

        def controller():
            return make_planner_controller(
                system, "sc", TRACE, mode=mode, spec=SPEC, error=error,
                duration_s=DURATION_S, workload=workload,
                initial_voltage_v=1.2,
            )

        scalar = TransientSimulator(
            cell=system.cell,
            node_capacitor=system.new_node_capacitor(1.2),
            processor=system.processor,
            regulator=system.regulator("sc"),
            controller=controller(),
            comparators=system.new_comparator_bank(),
            workload=workload,
            config=_sim_config(),
        ).run(TRACE, duration_s=DURATION_S)
        fleet = FleetSimulator(
            [
                FleetNode(
                    cell=system.cell,
                    capacitor=system.new_node_capacitor(1.2),
                    processor=system.processor,
                    regulator=system.regulator("sc"),
                    controller=controller(),
                    comparators=system.new_comparator_bank(),
                    workload=workload,
                )
            ],
            config=_sim_config(),
        ).run([TRACE], duration_s=DURATION_S)[0]
        assert results_bit_identical(scalar, fleet)


class CallLog(TelemetrySession):
    """A session that also keeps every count, gauge and event in order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def count(self, name, amount=1.0):
        self.calls.append(("count", name, amount))
        super().count(name, amount)

    def gauge(self, name, value):
        self.calls.append(("gauge", name, value))
        super().gauge(name, value)

    def event(self, name, time_s, track="sim", **attrs):
        self.calls.append(("event", name, time_s, track, attrs))
        super().event(name, time_s, track=track, **attrs)


_REFERENCE_HALT = ControlDecision(mode="halt", frequency_hz=0.0)


class ReferenceFollower(DvfsController):
    """The plan followers as they were before decisions were cached:
    every guard a method, every step's decision built afresh.  The
    oracle for the lean followers' decisions and telemetry."""

    def __init__(self, capacitance_f, total_cycles, deadline_s, telemetry):
        self.capacitance_f = capacitance_f
        self.total_cycles = total_cycles
        self.deadline_s = deadline_s
        self.telemetry = telemetry
        self.reset()

    def reset(self):
        self._miss_counted = False
        self._slot = None
        self._action = None

    def _measured_energy_j(self, view):
        return 0.5 * self.capacitance_f * view.node_voltage_v**2

    def _check_deadline(self, view):
        if (
            self.deadline_s is None
            or self.total_cycles is None
            or self._miss_counted
            or view.time_s <= self.deadline_s
            or view.cycles_done >= self.total_cycles
        ):
            return
        self._miss_counted = True
        self.telemetry.count("planner.deadline_misses")
        self.telemetry.event(
            "planner.deadline_miss", view.time_s, track="planner",
            deadline_s=self.deadline_s,
            overrun_s=view.time_s - self.deadline_s,
            cycles_done=float(view.cycles_done),
        )

    def _work_done(self, view):
        return (
            self.total_cycles is not None
            and view.cycles_done >= self.total_cycles
        )

    def _decision_for(self, action, view):
        if self._measured_energy_j(view) < action.min_energy_j:
            return _REFERENCE_HALT
        if action.mode == "halt":
            return _REFERENCE_HALT
        if action.mode == "bypass":
            return ControlDecision(
                mode="bypass", frequency_hz=action.frequency_hz
            )
        return ControlDecision(
            mode="regulated",
            frequency_hz=action.frequency_hz,
            output_voltage_v=action.processor_voltage_v,
        )

    def _slot_of(self, view, start_s, slot_s, slots):
        raw = int((view.time_s - start_s) / slot_s)
        return min(max(raw, 0), slots - 1)


class ReferencePlanController(ReferenceFollower):
    def __init__(self, plan, capacitance_f, total_cycles, deadline_s, telemetry):
        super().__init__(capacitance_f, total_cycles, deadline_s, telemetry)
        self.plan = plan

    def decide(self, view):
        self._check_deadline(view)
        if self._work_done(view):
            return _REFERENCE_HALT
        plan = self.plan
        slot = self._slot_of(view, plan.start_s, plan.slot_s, plan.slots)
        if slot != self._slot:
            self._slot = slot
            step = plan.steps[slot]
            self.telemetry.count("planner.slot_advances")
            self.telemetry.gauge(
                "planner.energy_gap_j",
                self._measured_energy_j(view) - step.energy_before_j,
            )
        return self._decision_for(plan.steps[slot].action, view)


class ReferenceReceding(ReferenceFollower):
    def __init__(self, lean, telemetry):
        super().__init__(
            lean.capacitance_f, lean.total_cycles, lean.deadline_s, telemetry
        )
        self.forecast = lean.forecast
        self.actions = lean.actions
        self.grid = lean.grid
        self.plan = solve_plan(
            self.forecast.income_j, self.actions, self.grid, 0.0,
            self.forecast.slot_s, start_s=self.forecast.start_s,
        )

    def decide(self, view):
        self._check_deadline(view)
        if self._work_done(view):
            return _REFERENCE_HALT
        forecast = self.forecast
        slot = self._slot_of(
            view, forecast.start_s, forecast.slot_s, forecast.slots
        )
        if slot != self._slot or self._action is None:
            self._slot = slot
            energy = self._measured_energy_j(view)
            level = self.grid.index_of(energy)
            self.telemetry.count("planner.replans")
            self.telemetry.gauge("planner.measured_energy_j", energy)
            self.telemetry.gauge(
                "planner.expected_cycles",
                float(self.plan.value[slot, level]),
            )
            self._action = self.actions[int(self.plan.policy[slot, level])]
            self.telemetry.count("planner.slot_advances")
        return self._decision_for(self._action, view)


LEAN_WORKLOAD = Workload(name="lean", cycles=2_000_000, deadline_s=12e-3)


def lean_pair(system, mode):
    """The lean follower and its reference, each with its own call log."""
    lean_log, reference_log = CallLog(), CallLog()
    lean = make_planner_controller(
        system, "sc", TRACE, mode=mode, spec=SPEC,
        error=ForecastErrorModel(bias=-0.15, noise_sigma=0.2, seed=3)
        if mode == "receding" else None,
        duration_s=DURATION_S, workload=LEAN_WORKLOAD,
        initial_voltage_v=1.2, telemetry=lean_log,
    )
    if mode == "oracle":
        reference = ReferencePlanController(
            lean.plan, lean.capacitance_f, lean.total_cycles,
            lean.deadline_s, reference_log,
        )
    else:
        reference = ReferenceReceding(lean, reference_log)
    return lean, lean_log, reference, reference_log


def lean_views():
    """Steps across every slot boundary and past the horizon, with a
    node voltage that swings the energy gate open and shut, cycles that
    reach the job's total after its deadline, and a few repeated and
    out-of-order times."""
    views = []
    cycles = 0.0
    for k in range(900):
        t = k * 27e-6
        node_v = 0.75 + 0.7 * np.sin(k / 17.0) * np.cos(k / 101.0)
        views.append(_view(t, float(node_v), cycles))
        cycles += 3_000.0 if k < 700 else 0.0
    views += [_view(2e-3, 1.2, 0.0), _view(0.0, 0.05, 0.0), _view(0.0, 1.6, 0.0)]
    return views


class TestLeanDecisions:
    """The followers build each action's decision once per slot; every
    step's decision, counter, gauge and event equals the reference that
    built it every step."""

    @pytest.mark.parametrize("mode", PLANNER_MODES)
    def test_every_step_equals_the_reference(self, system, mode):
        lean, lean_log, reference, reference_log = lean_pair(system, mode)
        views = lean_views()
        decisions = [lean.decide(view) for view in views]
        assert decisions == [reference.decide(view) for view in views]
        modes = {decision.mode for decision in decisions}
        assert {"halt", "regulated"} <= modes
        # The energy gate flips inside a slot, work completes and the
        # deadline passes with work outstanding.
        assert any(
            a.mode == "halt" and b.mode != "halt"
            for a, b in zip(decisions, decisions[1:])
        )
        assert lean_log.calls == reference_log.calls
        assert lean_log.metrics.as_dict() == reference_log.metrics.as_dict()
        assert lean_log.tracer.events == reference_log.tracer.events
        assert lean_log.metrics.as_dict()["planner.deadline_misses"] == 1.0
        assert [c[1] for c in lean_log.calls].count("planner.deadline_miss") == 1

    @pytest.mark.parametrize("mode", PLANNER_MODES)
    def test_reset_replays_the_reference(self, system, mode):
        lean, lean_log, reference, reference_log = lean_pair(system, mode)
        views = lean_views()
        for view in views[:300]:
            lean.decide(view)
            reference.decide(view)
        lean.reset()
        reference.reset()
        assert [lean.decide(v) for v in views] == [
            reference.decide(v) for v in views
        ]
        assert lean_log.calls == reference_log.calls

    @pytest.mark.parametrize("mode", PLANNER_MODES)
    def test_engine_run_equals_the_reference(self, system, mode):
        lean, lean_log, reference, reference_log = lean_pair(system, mode)

        def run(controller):
            return TransientSimulator(
                cell=system.cell,
                node_capacitor=system.new_node_capacitor(1.2),
                processor=system.processor,
                regulator=system.regulator("sc"),
                controller=controller,
                comparators=system.new_comparator_bank(),
                workload=LEAN_WORKLOAD,
                config=_sim_config(),
            ).run(TRACE, duration_s=DURATION_S)

        assert results_bit_identical(run(lean), run(reference))
        assert lean_log.calls == reference_log.calls
        assert lean_log.metrics.as_dict() == reference_log.metrics.as_dict()

    def test_decision_is_built_once_per_slot(self, system, monkeypatch):
        built = []
        original = adapter._decision_of

        def counting(action):
            built.append(action)
            return original(action)

        monkeypatch.setattr(adapter, "_decision_of", counting)
        lean, _, _, _ = lean_pair(system, "oracle")
        slots = set()
        for view in lean_views()[:700]:
            lean.decide(view)
            slots.add(lean._slot)
        assert 0 < len(built) <= len(slots)
