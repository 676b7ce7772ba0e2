"""Tests for the holistic energy manager (policy engine)."""

import pytest

from repro.baselines.mppt_only import MpptOnlyBaseline
from repro.core.operating_point import OperatingPoint
from repro.core.policies import Policy
from repro.core.scheduler import HolisticEnergyManager, OperatingPlan
from repro.core.system import paper_system
from repro.errors import InfeasibleOperatingPointError, ModelParameterError
from repro.processor.workloads import image_frame_workload
from repro.pv.traces import constant_trace
from repro.sim.dvfs import (
    BypassController,
    ConstantSpeedController,
    FixedOperatingPointController,
)
from repro.core.sprint import SprintController
from repro.sim.engine import SimulationConfig, TransientSimulator


@pytest.fixture(scope="module")
def system():
    return paper_system()


@pytest.fixture(scope="module")
def manager(system):
    return HolisticEnergyManager(system, regulator_name="sc")


class TestPlanning:
    def test_every_policy_plans_at_full_sun(self, manager):
        workload = image_frame_workload(15e-3)
        for policy in Policy:
            plan = manager.plan(policy, 1.0, workload=workload)
            assert plan.policy is policy
            assert plan.is_sprint == (policy is Policy.HOLISTIC_SPRINT)

    def test_holistic_performance_beats_every_baseline(self, manager):
        """The headline ordering: the Section IV point clocks faster
        than raw connection, the datasheet setpoint, and both MEPs."""
        holistic = manager.plan(Policy.HOLISTIC_PERFORMANCE, 1.0)
        for baseline in Policy.baselines():
            plan = manager.plan(baseline, 1.0)
            assert (
                holistic.operating_point.frequency_hz
                > plan.operating_point.frequency_hz
            )

    def test_holistic_mep_uses_less_source_energy(self, manager, system):
        """Energy per cycle at the source: holistic MEP < conventional
        MEP through the same converter."""
        conventional = manager.plan(Policy.CONVENTIONAL_MEP, 1.0)
        holistic = manager.plan(Policy.HOLISTIC_MEP, 1.0)
        conv_cost = (
            conventional.operating_point.extracted_power_w
            / conventional.operating_point.frequency_hz
        )
        hol_cost = (
            holistic.operating_point.extracted_power_w
            / holistic.operating_point.frequency_hz
        )
        assert hol_cost < conv_cost

    def test_sprint_policy_needs_deadline(self, manager):
        with pytest.raises(ModelParameterError):
            manager.plan(Policy.HOLISTIC_SPRINT, 1.0)
        with pytest.raises(ModelParameterError):
            manager.plan(
                Policy.HOLISTIC_SPRINT, 1.0, workload=image_frame_workload(None)
            )

    def test_conventional_regulated_pins_datasheet_voltage(self, manager):
        plan = manager.plan(Policy.CONVENTIONAL_REGULATED, 1.0)
        assert plan.operating_point.processor_voltage_v == pytest.approx(0.55)

    @pytest.mark.parametrize("regulator_name", ["sc", "buck"])
    @pytest.mark.parametrize("irradiance", [1.0, 0.5, 0.2, 0.1, 0.02])
    def test_conventional_regulated_is_the_mppt_only_point(
        self, system, regulator_name, irradiance
    ):
        """The plan is the MPPT-only baseline's datasheet point; where
        the baseline is infeasible (too dark for the datasheet voltage)
        the plan stalls there at f = 0."""
        manager = HolisticEnergyManager(system, regulator_name=regulator_name)
        point = manager.plan(
            Policy.CONVENTIONAL_REGULATED, irradiance
        ).operating_point
        baseline = MpptOnlyBaseline(system, regulator_name)
        try:
            expected = baseline.operating_point(irradiance)
        except InfeasibleOperatingPointError:
            expected = OperatingPoint(
                processor_voltage_v=baseline.setpoint_v,
                frequency_hz=0.0,
                delivered_power_w=0.0,
                extracted_power_w=0.0,
                node_voltage_v=system.mpp(irradiance).voltage_v,
                regulator_name=regulator_name,
                bypassed=False,
            )
        assert point == expected

    def test_plan_validation(self):
        with pytest.raises(ModelParameterError):
            OperatingPlan(policy=Policy.RAW_SOLAR, regulator_name="sc")


class TestControllerMaterialisation:
    def test_steady_plan_without_workload(self, manager):
        plan = manager.plan(Policy.HOLISTIC_PERFORMANCE, 1.0)
        controller = manager.controller(plan)
        assert isinstance(controller, FixedOperatingPointController)

    def test_steady_plan_with_workload(self, manager):
        workload = image_frame_workload(15e-3)
        plan = manager.plan(Policy.HOLISTIC_PERFORMANCE, 1.0)
        controller = manager.controller(plan, workload=workload)
        assert isinstance(controller, ConstantSpeedController)

    def test_raw_solar_gets_bypass_controller(self, manager):
        plan = manager.plan(Policy.RAW_SOLAR, 1.0)
        controller = manager.controller(plan)
        assert isinstance(controller, BypassController)

    def test_sprint_plan_gets_sprint_controller(self, manager):
        workload = image_frame_workload(15e-3)
        plan = manager.plan(Policy.HOLISTIC_SPRINT, 1.0, workload=workload)
        controller = manager.controller(plan)
        assert isinstance(controller, SprintController)

    def test_materialised_plan_runs_in_simulator(self, manager, system):
        """End to end: plan -> controller -> simulation completes work."""
        workload = image_frame_workload(None).with_deadline(None)
        plan = manager.plan(Policy.HOLISTIC_PERFORMANCE, 1.0)
        controller = manager.controller(plan, workload=workload)
        simulator = TransientSimulator(
            cell=system.cell,
            node_capacitor=system.new_node_capacitor(system.mpp(1.0).voltage_v),
            processor=system.processor,
            regulator=system.regulator("sc"),
            controller=controller,
            workload=workload,
            config=SimulationConfig(time_step_s=10e-6, record_every=8),
        )
        result = simulator.run(constant_trace(1.0, 0.05))
        assert result.completed
        assert not result.browned_out
