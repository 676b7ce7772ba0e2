"""Plan adapters: decision mapping, deadlines, engine bit-identity."""

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
from repro.sim.dvfs import ControllerView
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
