"""The policy engine: one entry point from (policy, conditions, work)
to an executable plan.

:class:`HolisticEnergyManager` is what a deployed node would run.  It
dispatches on :class:`~repro.core.policies.Policy`, uses the
Section IV/V/VI machinery to compute the operating point or sprint
schedule, and materialises a simulator controller so the plan can be
executed (or evaluated) directly.

The conventional baselines are planned here too, so every comparison in
the benches goes through one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.mppt_only import DATASHEET_SETPOINT_V, MpptOnlyBaseline
from repro.core.mep import HolisticMepOptimizer
from repro.core.operating_point import OperatingPoint, OperatingPointOptimizer
from repro.core.policies import Policy
from repro.core.sprint import SprintController, SprintPlan, SprintScheduler
from repro.core.system import EnergyHarvestingSoC
from repro.errors import InfeasibleOperatingPointError, ModelParameterError
from repro.processor.workloads import Workload
from repro.sim.dvfs import (
    BypassController,
    ConstantSpeedController,
    DvfsController,
    FixedOperatingPointController,
)
from repro.telemetry.session import Telemetry


@dataclass(frozen=True)
class OperatingPlan:
    """A fully-resolved plan for one policy under one condition."""

    policy: Policy
    regulator_name: str
    operating_point: "OperatingPoint | None" = None
    sprint_plan: "SprintPlan | None" = None

    def __post_init__(self) -> None:
        if self.operating_point is None and self.sprint_plan is None:
            raise ModelParameterError(
                "a plan needs an operating point or a sprint schedule"
            )

    @property
    def is_sprint(self) -> bool:
        """True for deadline sprint plans."""
        return self.sprint_plan is not None


class HolisticEnergyManager:
    """Plans and materialises controllers for every policy.

    Parameters
    ----------
    system:
        The composed SoC.
    regulator_name:
        The converter the regulated policies use ("sc" or "buck" in the
        paper's studies; "ldo" is available for the comparison).
    sprint_factor:
        Sprint beta for the deadline policy.
    """

    def __init__(
        self,
        system: EnergyHarvestingSoC,
        regulator_name: str = "sc",
        sprint_factor: float = 0.2,
    ) -> None:
        self.system = system
        self.regulator_name = regulator_name
        self.optimizer = OperatingPointOptimizer(system)
        self.mep_optimizer = HolisticMepOptimizer(system)
        self.sprint_scheduler = SprintScheduler(
            system, regulator_name=regulator_name, sprint_factor=sprint_factor
        )

    # -- planning ------------------------------------------------------------------

    def plan(
        self,
        policy: Policy,
        irradiance: float,
        workload: "Workload | None" = None,
        v_start: "float | None" = None,
    ) -> OperatingPlan:
        """Resolve a policy into an executable plan.

        ``workload`` is required for the sprint policy (it carries the
        deadline); ``v_start`` is the node precharge assumed by sprint
        planning (defaults to the cell's MPP voltage).
        """
        if policy is Policy.HOLISTIC_SPRINT:
            if workload is None or workload.deadline_s is None:
                raise ModelParameterError(
                    "the sprint policy needs a workload with a deadline"
                )
            if v_start is None:
                v_start = self.system.mpp(irradiance).voltage_v
            sprint_plan = self.sprint_scheduler.plan(workload, v_start)
            return OperatingPlan(
                policy=policy,
                regulator_name=self.regulator_name,
                sprint_plan=sprint_plan,
            )

        point = self._steady_point(policy, irradiance)
        return OperatingPlan(
            policy=policy,
            regulator_name=self.regulator_name,
            operating_point=point,
        )

    def _steady_point(self, policy: Policy, irradiance: float) -> OperatingPoint:
        processor = self.system.processor
        if policy is Policy.RAW_SOLAR:
            return self.optimizer.unregulated_point(irradiance)

        if policy is Policy.HOLISTIC_PERFORMANCE:
            return self.optimizer.best_point(self.regulator_name, irradiance)

        if policy is Policy.CONVENTIONAL_REGULATED:
            # The MPPT-only baseline's datasheet point; where leakage
            # eats all the converter delivers, the plan stalls (f = 0).
            try:
                return MpptOnlyBaseline(
                    self.system, self.regulator_name
                ).operating_point(irradiance)
            except InfeasibleOperatingPointError:
                return OperatingPoint(
                    processor_voltage_v=DATASHEET_SETPOINT_V,
                    frequency_hz=0.0,
                    delivered_power_w=0.0,
                    extracted_power_w=0.0,
                    node_voltage_v=self.system.mpp(irradiance).voltage_v,
                    regulator_name=self.regulator_name,
                    bypassed=False,
                )

        if policy in (Policy.CONVENTIONAL_MEP, Policy.HOLISTIC_MEP):
            if policy is Policy.CONVENTIONAL_MEP:
                mep = processor.conventional_mep()
            else:
                mep = self.mep_optimizer.holistic_mep(self.regulator_name)
            regulator = self.system.regulator(self.regulator_name)
            mpp = self.system.mpp(irradiance)
            f = float(processor.max_frequency(mep.voltage_v))
            p_proc = float(processor.power(mep.voltage_v, f))
            extracted = regulator.input_power(
                mep.voltage_v, p_proc, v_in=mpp.voltage_v
            )
            return OperatingPoint(
                processor_voltage_v=mep.voltage_v,
                frequency_hz=f,
                delivered_power_w=p_proc,
                extracted_power_w=extracted,
                node_voltage_v=mpp.voltage_v,
                regulator_name=self.regulator_name,
                bypassed=False,
            )

        raise ModelParameterError(f"unhandled policy {policy!r}")

    # -- materialisation ---------------------------------------------------------------

    def controller(
        self,
        plan: OperatingPlan,
        workload: "Workload | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> DvfsController:
        """A simulator controller executing the plan.

        For steady plans with a workload, the controller halts once the
        work completes (duty-cycled operation); without one it holds
        the point forever.  ``telemetry`` is forwarded to controllers
        that emit it (currently the sprint controller, which also picks
        up the workload's deadline for miss accounting).
        """
        if plan.sprint_plan is not None:
            deadline_s = workload.deadline_s if workload is not None else None
            return SprintController(
                plan.sprint_plan, telemetry=telemetry, deadline_s=deadline_s
            )

        point = plan.operating_point
        assert point is not None  # guaranteed by OperatingPlan validation
        if point.bypassed:
            frequency = point.frequency_hz

            def law(v_node: float, _f: float = frequency) -> float:
                return _f

            return BypassController(law)
        if workload is not None:
            return ConstantSpeedController(
                output_voltage_v=point.processor_voltage_v,
                frequency_hz=point.frequency_hz,
                total_cycles=workload.cycles,
            )
        return FixedOperatingPointController(
            output_voltage_v=point.processor_voltage_v,
            frequency_hz=point.frequency_hz,
        )
