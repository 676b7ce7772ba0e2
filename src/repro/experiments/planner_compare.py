"""Planner comparison figure: DP schedule vs the paper's heuristic.

A fig. 9-style deadline study on the dim-step scenario: the same
workload/deadline run closed-loop under three policies --

* ``planner``: the receding-horizon DP (re-planned each slot from the
  measured node energy against a biased, noisy forecast);
* ``oracle``: the one-shot DP plan solved on the true income series;
* ``heuristic``: the paper's sprint schedule (Section VI-B).

The exported series carry each policy's node-voltage and clock-
frequency trajectories plus the solved oracle schedule itself, so the
figure can show *why* the outcomes differ: the heuristic regulates
continuously (implicitly holding the node near MPP, harvesting more)
while the planner spends the stored energy at the efficient low-
voltage operating points and meets the deadline the heuristic misses.
The runs are the planner bench's ``fig6_dim_step`` scenario through
the bench's own runner, :func:`repro.planner.bench.run_policy`, so
the figure and ``BENCH_planner.json`` share one closed-loop path.
Reproduction note: the bin model credits MPP income regardless of
action, so model-world cycle counts upper-bound what the plant
retires; ``BENCH_planner.json`` quantifies the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.system import EnergyHarvestingSoC, paper_system
from repro.planner.bench import (
    DURATION_S,
    SIM_POLICIES,
    WORKLOAD_CYCLES,
    PolicyRun,
    _scenario_traces,
    run_policy,
)
from repro.planner.dp import PlannerSpec, build_actions, solve_plan
from repro.planner.forecast import bin_trace
from repro.processor.workloads import Workload


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


def planner_comparison(
    system: "EnergyHarvestingSoC | None" = None,
) -> PlannerComparison:
    """Run the three policies on the dim-step deadline scenario."""
    if system is None:
        system = paper_system()
    trace = _scenario_traces()["fig6_dim_step"]
    spec = PlannerSpec()
    workload = Workload(
        name="planner-compare",
        cycles=WORKLOAD_CYCLES,
        deadline_s=DURATION_S,
    )
    runs = tuple(
        run_policy(system, trace, policy, workload, record_every=4)
        for policy in SIM_POLICIES
    )

    actions, grid = build_actions(system, "sc", spec)
    forecast = bin_trace(trace, system, spec.slot_s, duration_s=DURATION_S)
    oracle_plan = solve_plan(
        forecast.income_j,
        actions,
        grid,
        0.5 * system.node_capacitance_f * 1.2**2,
        forecast.slot_s,
    )
    return PlannerComparison(
        duration_s=DURATION_S,
        deadline_s=DURATION_S,
        workload_cycles=WORKLOAD_CYCLES,
        slot_s=spec.slot_s,
        runs=runs,
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
