"""Planner comparison figure: DP schedule vs the paper's heuristic.

A fig. 9-style deadline study on the dim-step scenario: the same
workload/deadline run closed-loop under three policies --

* ``planner``: the receding-horizon DP (re-planned each slot from the
  measured node energy against a biased, noisy forecast);
* ``oracle``: the one-shot DP plan solved on the true income series;
* ``heuristic``: the paper's sprint schedule (Section VI-B).

The exported series carry each policy's node-voltage and cumulative-
cycle trajectories plus the solved oracle schedule itself, so the
figure can show *why* the outcomes differ: the heuristic regulates
continuously (implicitly holding the node near MPP, harvesting more)
while the planner spends the stored energy at the efficient low-
voltage operating points and meets the deadline the heuristic misses.
Reproduction note: the bin model credits MPP income regardless of
action, so model-world cycle counts upper-bound what the plant
retires; ``BENCH_planner.json`` quantifies the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.sprint import SprintController, SprintScheduler
from repro.core.system import EnergyHarvestingSoC, paper_system
from repro.planner.adapter import make_planner_controller
from repro.planner.dp import PlannerSpec, build_actions, solve_plan
from repro.planner.forecast import ForecastErrorModel, bin_trace
from repro.processor.workloads import Workload
from repro.pv.traces import step_trace
from repro.sim.dvfs import DvfsController
from repro.sim.engine import SimulationConfig, TransientSimulator

#: Forecast distortion for the receding policy (matches the bench).
FORECAST_ERROR = ForecastErrorModel(bias=-0.15, noise_sigma=0.2, seed=3)


@dataclass(frozen=True)
class PolicyRun:
    """One policy's closed-loop trajectory and summary."""

    policy: str
    time_s: np.ndarray
    node_voltage_v: np.ndarray
    frequency_hz: np.ndarray
    final_cycles: float
    harvested_energy_j: float
    completion_time_s: "float | None"
    deadline_missed: bool
    brownouts: int


@dataclass(frozen=True)
class PlannerComparison:
    """The full figure payload: three policies plus the oracle plan."""

    duration_s: float
    deadline_s: float
    workload_cycles: int
    slot_s: float
    runs: Tuple[PolicyRun, ...]
    plan_slot_start_s: np.ndarray
    plan_action_names: Tuple[str, ...]
    plan_energy_before_j: np.ndarray
    oracle_expected_cycles: float


def _controller(
    system: EnergyHarvestingSoC,
    trace: "object",
    policy: str,
    spec: PlannerSpec,
    workload: Workload,
    duration_s: float,
) -> DvfsController:
    if policy == "heuristic":
        plan = SprintScheduler(system, "sc").plan(workload, 1.2)
        return SprintController(plan, deadline_s=workload.deadline_s)
    return make_planner_controller(
        system,
        "sc",
        trace,  # type: ignore[arg-type]
        mode="receding" if policy == "planner" else "oracle",
        spec=spec,
        error=FORECAST_ERROR if policy == "planner" else None,
        duration_s=duration_s,
        workload=workload,
        initial_voltage_v=1.2,
    )


def planner_comparison(
    system: "EnergyHarvestingSoC | None" = None,
    bright: float = 0.35,
    dim_to: float = 0.12,
    dim_time_s: float = 24e-3,
    duration_s: float = 80e-3,
    workload_cycles: int = 12_000_000,
    time_step_s: float = 20e-6,
) -> PlannerComparison:
    """Run the three policies on the dim-step deadline scenario."""
    if system is None:
        system = paper_system()
    trace = step_trace(bright, dim_to, dim_time_s, duration_s)
    spec = PlannerSpec()
    workload = Workload(
        name="planner-compare",
        cycles=workload_cycles,
        deadline_s=duration_s,
    )
    runs = []
    for policy in ("planner", "oracle", "heuristic"):
        simulator = TransientSimulator(
            cell=system.cell,
            node_capacitor=system.new_node_capacitor(1.2),
            processor=system.processor,
            regulator=system.regulator("sc"),
            controller=_controller(
                system, trace, policy, spec, workload, duration_s
            ),
            comparators=system.new_comparator_bank(),
            workload=workload,
            config=SimulationConfig(
                time_step_s=time_step_s,
                record_every=4,
                stop_on_completion=False,
                stop_on_brownout=False,
                recover_from_brownout=True,
                recovery_voltage_v=1.05,
            ),
        )
        result = simulator.run(trace, duration_s=duration_s)
        done = result.completion_time_s
        runs.append(
            PolicyRun(
                policy=policy,
                time_s=np.array(result.time_s, dtype=float),
                node_voltage_v=np.array(result.node_voltage_v, dtype=float),
                frequency_hz=np.array(result.frequency_hz, dtype=float),
                final_cycles=float(result.final_cycles),
                harvested_energy_j=float(result.harvested_energy_j()),
                completion_time_s=done,
                deadline_missed=done is None or done > duration_s,
                brownouts=int(result.brownout_count),
            )
        )

    actions, grid = build_actions(system, "sc", spec)
    forecast = bin_trace(trace, system, spec.slot_s, duration_s=duration_s)
    oracle_plan = solve_plan(
        forecast.income_j,
        actions,
        grid,
        0.5 * system.node_capacitance_f * 1.2**2,
        forecast.slot_s,
    )
    return PlannerComparison(
        duration_s=duration_s,
        deadline_s=duration_s,
        workload_cycles=workload_cycles,
        slot_s=spec.slot_s,
        runs=tuple(runs),
        plan_slot_start_s=np.array(
            [step.start_s for step in oracle_plan.steps], dtype=float
        ),
        plan_action_names=tuple(
            step.action.name for step in oracle_plan.steps
        ),
        plan_energy_before_j=np.array(
            [step.energy_before_j for step in oracle_plan.steps], dtype=float
        ),
        oracle_expected_cycles=oracle_plan.expected_cycles,
    )
