"""Planner benchmark: planned vs paper heuristic vs oracle.

Runs the fig6/fig8-style scenario matrix (dim-step, MPPT-dim, cloud
burst, volatile walk, sunset ramp) at two levels:

* **model world** -- the DP's own slotted grid: oracle (DP on the
  true income), receding horizon (re-planned each slot against a
  biased, noisy forecast) and the myopic greedy baseline, with the
  oracle-bounds chain (oracle >= receding >= greedy on completed
  cycles) *asserted*, not assumed -- cycle rewards are integer-valued
  so the chain holds exactly in doubles;
* **sim world** -- the same scenarios through
  :class:`~repro.sim.engine.TransientSimulator`: the receding-horizon
  adapter, the oracle plan follower and the paper's sprint heuristic,
  recording retired cycles, harvested energy, deadline misses and
  brownouts.  The sim numbers are *measured*, and they disagree with
  the model world in an instructive way: the bin model credits MPP
  income regardless of action, but an idle or bypassed node drifts
  off the MPP voltage, so the continuously-regulating heuristic
  harvests more in closed loop.  That gap is recorded honestly in the
  report note rather than tuned away.

:func:`run_policy` is the one closed-loop policy runner: the sim
world here and the ``planner`` figure
(:mod:`repro.experiments.planner_compare`) both call it.  The report
holds no timing, so apart from its platform fields it is a pure
function of the code.  ``repro bench --planner`` writes it as
``BENCH_planner.json``.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.sprint import SprintController, SprintScheduler
from repro.core.system import EnergyHarvestingSoC, paper_system
from repro.errors import ModelParameterError
from repro.planner.adapter import make_planner_controller
from repro.planner.dp import (
    PlannerSpec,
    build_actions,
    greedy_plan,
    realized_cycles,
    solve_plan,
)
from repro.planner.forecast import ForecastErrorModel, bin_trace
from repro.planner.horizon import execute_receding_horizon
from repro.processor.workloads import Workload
from repro.pv.traces import (
    IrradianceTrace,
    cloud_trace,
    ramp_trace,
    random_walk_trace,
    step_trace,
)
from repro.sim.dvfs import DvfsController
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.units import micro_seconds

#: The sim-world policies each scenario is run under.
SIM_POLICIES: Tuple[str, ...] = ("planner", "oracle", "heuristic")

#: Forecast distortion the receding-horizon planner works against:
#: 15% pessimistic bias plus 20% multiplicative noise, seeded.
DEFAULT_ERROR = ForecastErrorModel(bias=-0.15, noise_sigma=0.2, seed=3)

#: Shared horizon of every scenario (the paper's transient window).
DURATION_S = 80e-3

#: Transient-simulator step of every closed-loop policy run.
TIME_STEP_S = micro_seconds(20)

#: Workload sized so completion discriminates between policies (the
#: model oracle retires 19--34M cycles across the matrix).
WORKLOAD_CYCLES = 12_000_000


def _scenario_traces() -> "Dict[str, IrradianceTrace]":
    """The benchmark's scenario matrix (dim regimes -- see module doc).

    Bright scenarios do not discriminate: with abundant income the
    myopic policy is already near-optimal.  In dim regimes the DP's
    cycles-per-joule reasoning (bypass at low voltage retires ~4x the
    cycles per joule of full-throttle regulated sprints) is what the
    chain measures.
    """
    return {
        "fig6_dim_step": step_trace(0.35, 0.12, 24e-3, DURATION_S),
        "fig8_mppt_dim": step_trace(0.5, 0.15, 40e-3, DURATION_S),
        "cloud_burst": cloud_trace(
            0.4, 0.05, 20e-3, 30e-3, DURATION_S, edge_s=5e-3
        ),
        "volatile_walk": random_walk_trace(
            7, DURATION_S, mean=0.25, volatility=0.15, breakpoints=40
        ),
        "sunset_ramp": ramp_trace(0.5, 0.02, DURATION_S),
    }


@dataclass(frozen=True)
class ModelOutcome:
    """Grid-world comparison on one scenario (exact integer cycles)."""

    oracle_cycles: float
    receding_cycles: float
    greedy_cycles: float
    bounds_hold: bool
    replans: int
    forecast_bias_j: float


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
class ScenarioResult:
    """Model- and sim-world outcomes for one scenario."""

    name: str
    model: ModelOutcome
    legs: Tuple[PolicyRun, ...]

    def leg(self, policy: str) -> PolicyRun:
        """The sim leg for ``policy`` (raises if absent)."""
        for entry in self.legs:
            if entry.policy == policy:
                return entry
        raise ModelParameterError(f"no sim leg for policy {policy!r}")


@dataclass(frozen=True)
class PlannerReport:
    """The full benchmark outcome (serialized to BENCH JSON)."""

    duration_s: float
    time_step_s: float
    slot_s: float
    levels: int
    workload_cycles: int
    scenarios: Tuple[ScenarioResult, ...]
    all_bounds_hold: bool
    note: str

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (sorted by the writer)."""
        return {
            "bench": "planner",
            "duration_s": self.duration_s,
            "time_step_s": self.time_step_s,
            "slot_s": self.slot_s,
            "levels": self.levels,
            "workload_cycles": self.workload_cycles,
            "scenarios": {
                scenario.name: {
                    "model": {
                        "oracle_cycles": scenario.model.oracle_cycles,
                        "receding_cycles": scenario.model.receding_cycles,
                        "greedy_cycles": scenario.model.greedy_cycles,
                        "bounds_hold": scenario.model.bounds_hold,
                        "replans": scenario.model.replans,
                        "forecast_bias_j": scenario.model.forecast_bias_j,
                        "receding_vs_oracle": round(
                            scenario.model.receding_cycles
                            / scenario.model.oracle_cycles,
                            4,
                        ),
                        "greedy_vs_oracle": round(
                            scenario.model.greedy_cycles
                            / scenario.model.oracle_cycles,
                            4,
                        ),
                    },
                    "sim": {
                        leg.policy: {
                            "final_cycles": leg.final_cycles,
                            "harvested_energy_j": leg.harvested_energy_j,
                            "deadline_missed": leg.deadline_missed,
                            "brownouts": leg.brownouts,
                        }
                        for leg in scenario.legs
                    },
                }
                for scenario in self.scenarios
            },
            "all_bounds_hold": self.all_bounds_hold,
            "note": self.note,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }


def _model_outcome(
    system: EnergyHarvestingSoC,
    trace: IrradianceTrace,
    spec: PlannerSpec,
) -> ModelOutcome:
    actions, grid = build_actions(system, "sc", spec)
    initial = 0.5 * system.node_capacitance_f * 1.2**2
    forecast = bin_trace(trace, system, spec.slot_s, duration_s=DURATION_S)
    oracle = solve_plan(
        forecast.income_j, actions, grid, initial, forecast.slot_s
    )
    oracle_realized, _ = realized_cycles(
        [step.action for step in oracle.steps],
        forecast.income_j,
        grid,
        initial,
    )
    if oracle_realized != oracle.expected_cycles:
        raise ModelParameterError(
            "oracle forward pass diverged from its value function: "
            f"{oracle_realized} != {oracle.expected_cycles}"
        )
    belief = DEFAULT_ERROR.apply(forecast)
    receding = execute_receding_horizon(
        forecast, belief, actions, grid, initial
    )
    greedy = greedy_plan(
        forecast.income_j, actions, grid, initial, forecast.slot_s
    )
    greedy_realized, _ = realized_cycles(
        [step.action for step in greedy.steps],
        forecast.income_j,
        grid,
        initial,
    )
    bounds = (
        oracle.expected_cycles
        >= receding.total_cycles
        >= greedy_realized
    )
    return ModelOutcome(
        oracle_cycles=oracle.expected_cycles,
        receding_cycles=receding.total_cycles,
        greedy_cycles=greedy_realized,
        bounds_hold=bool(bounds),
        replans=receding.replans,
        forecast_bias_j=receding.forecast_bias_j(),
    )


def run_policy(
    system: EnergyHarvestingSoC,
    trace: IrradianceTrace,
    policy: str,
    workload: Workload,
    record_every: int,
) -> PolicyRun:
    """Run one of :data:`SIM_POLICIES` closed-loop over ``DURATION_S``.

    ``planner`` is the receding-horizon adapter against
    :data:`DEFAULT_ERROR`, ``oracle`` follows the DP plan solved on the
    true income, and ``heuristic`` is the paper's sprint schedule
    (Section VI-B).  The node starts at 1.2 V, every run lasts the full
    horizon and a brownout halts and recharges to 1.05 V.
    ``record_every`` thins the recorded trajectory.
    """
    controller: DvfsController
    if policy == "heuristic":
        plan = SprintScheduler(system, "sc").plan(workload, 1.2)
        controller = SprintController(plan, deadline_s=workload.deadline_s)
    else:
        controller = make_planner_controller(
            system,
            "sc",
            trace,
            mode="receding" if policy == "planner" else "oracle",
            spec=PlannerSpec(),
            error=DEFAULT_ERROR if policy == "planner" else None,
            duration_s=DURATION_S,
            workload=workload,
            initial_voltage_v=1.2,
        )
    simulator = TransientSimulator(
        cell=system.cell,
        node_capacitor=system.new_node_capacitor(1.2),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=controller,
        comparators=system.new_comparator_bank(),
        workload=workload,
        config=SimulationConfig(
            time_step_s=TIME_STEP_S,
            record_every=record_every,
            stop_on_completion=False,
            stop_on_brownout=False,
            recover_from_brownout=True,
            recovery_voltage_v=1.05,
        ),
    )
    result = simulator.run(trace, duration_s=DURATION_S)
    done = result.completion_time_s
    missed = done is None or (
        workload.deadline_s is not None and done > workload.deadline_s
    )
    return PolicyRun(
        policy=policy,
        time_s=np.array(result.time_s, dtype=float),
        node_voltage_v=np.array(result.node_voltage_v, dtype=float),
        frequency_hz=np.array(result.frequency_hz, dtype=float),
        final_cycles=float(result.final_cycles),
        harvested_energy_j=float(result.harvested_energy_j()),
        completion_time_s=done,
        deadline_missed=bool(missed),
        brownouts=int(result.brownout_count),
    )


def run_planner_benchmark() -> PlannerReport:
    """Run the full planner benchmark (see module doc)."""
    system = paper_system()
    spec = PlannerSpec()
    workload = Workload(
        name="planner-bench",
        cycles=WORKLOAD_CYCLES,
        deadline_s=DURATION_S,
    )

    scenarios: "List[ScenarioResult]" = []
    for name, trace in _scenario_traces().items():
        model = _model_outcome(system, trace, spec)
        legs = tuple(
            run_policy(system, trace, policy, workload, record_every=1)
            for policy in SIM_POLICIES
        )
        scenarios.append(ScenarioResult(name=name, model=model, legs=legs))

    all_bounds = all(s.model.bounds_hold for s in scenarios)
    heuristic_wins = sum(
        1
        for s in scenarios
        if s.leg("heuristic").harvested_energy_j
        > s.leg("planner").harvested_energy_j
    )
    note = (
        "model-world oracle >= receding >= greedy holds exactly on "
        f"{sum(s.model.bounds_hold for s in scenarios)}/{len(scenarios)} "
        "scenarios (integer cycle rewards, exact double sums); in the "
        f"transient simulator the paper heuristic out-harvests the "
        f"planner on {heuristic_wins}/{len(scenarios)} scenarios because "
        "continuous regulation implicitly holds the node near MPP while "
        "the planner's halt/bypass slots let it drift -- the bin "
        "model's MPP income is an upper bound on plant harvest; "
        "recorded honestly, not tuned away"
    )
    return PlannerReport(
        duration_s=DURATION_S,
        time_step_s=TIME_STEP_S,
        slot_s=spec.slot_s,
        levels=spec.levels,
        workload_cycles=WORKLOAD_CYCLES,
        scenarios=tuple(scenarios),
        all_bounds_hold=bool(all_bounds),
        note=note,
    )


def write_report(report: PlannerReport, path: "str | Path") -> Path:
    """Serialize the report as sorted, indented JSON; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    return target
