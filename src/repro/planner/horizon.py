"""Receding-horizon re-optimization: re-plan each slot as forecast
becomes actual.

A one-shot plan commits to a belief about the future; a receding-
horizon (model-predictive) executor re-plans at every slot boundary
from the *measured* stored energy, with the current slot's income
replaced by its actual value as it arrives.  Under a perfect forecast
this is exactly the oracle (Bellman's principle: executing the first
action of each suffix-optimal plan reproduces the optimal trajectory,
bit for bit given the deterministic tie-break); under a wrong forecast
it is the practical policy whose regret the benchmarks measure.

Backward induction over a forecast suffix yields exactly the trailing
rows of the full-horizon solve, so neither executor re-solves a
suffix: the forecast is solved once and each replan costs at most one
DP row.

The executor here runs entirely in the grid world (used by the
invariant tests and the bench's model-level comparison); the
simulator-facing version lives in :mod:`repro.planner.adapter`, which
reads the forecast's solve from measured node voltage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ModelParameterError
from repro.planner.dp import (
    BellmanBackup,
    EnergyGrid,
    PlanStep,
    PlannerAction,
    solve_plan,
)
from repro.planner.forecast import EnergyForecast
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


@dataclass(frozen=True, eq=False)
class HorizonOutcome:
    """Realized trajectory of a receding-horizon execution.

    ``steps`` carries the realized (not planned) on-grid state;
    ``replans`` counts replans (one per slot);
    ``forecast_income_j`` / ``actual_income_j`` are the per-slot
    belief/actual pair whose gap drove the re-planning.
    """

    steps: "Tuple[PlanStep, ...]"
    total_cycles: float
    final_energy_j: float
    replans: int
    forecast_income_j: np.ndarray
    actual_income_j: np.ndarray

    @property
    def slots(self) -> int:
        """Number of executed slots."""
        return len(self.steps)

    def forecast_bias_j(self) -> float:
        """Total forecast-minus-actual income over the horizon."""
        return float(
            np.sum(self.forecast_income_j) - np.sum(self.actual_income_j)
        )


def execute_receding_horizon(
    actual: EnergyForecast,
    forecast: EnergyForecast,
    actions: "Sequence[PlannerAction]",
    grid: EnergyGrid,
    initial_energy_j: float,
    telemetry: "Telemetry | None" = None,
) -> HorizonOutcome:
    """Run the receding-horizon loop over a slotted world.

    Per slot ``t``: take the suffix DP over the effective income
    (actual for the arriving slot ``t``, forecast for ``t+1`` onward)
    from the realized stored energy, execute its first action, then
    advance the true state with the *actual* income.  Rows ``t+1..``
    of that suffix DP are the forecast's own, so the forecast is
    solved once and each replan computes the one row that differs --
    slot ``t`` at the actual income, against the cached ``value[t+1]``
    -- a :meth:`~repro.planner.dp.BellmanBackup.row` per slot instead
    of a suffix solve.  Every executed action was feasible at its
    realized state, so the whole trajectory is an admissible policy
    of the true-income MDP -- which is why the oracle (DP on the true
    series) bounds it from above, exactly.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    if actual.slots != forecast.slots:
        raise ModelParameterError(
            f"actual ({actual.slots}) and forecast ({forecast.slots}) "
            "disagree on slot count"
        )
    if actual.slot_s != forecast.slot_s:
        raise ModelParameterError(
            f"actual ({actual.slot_s}) and forecast ({forecast.slot_s}) "
            "disagree on slot width"
        )
    if np.any(np.asarray(actual.income_j) < 0.0):
        raise ModelParameterError("actual income must be >= 0 in every slot")
    slots = actual.slots
    level = grid.index_of(initial_energy_j)
    belief = solve_plan(
        forecast.income_j,
        actions,
        grid,
        grid.energy_at(level),
        forecast.slot_s,
        start_s=forecast.start_s,
    )
    backup = BellmanBackup(actions, grid)
    steps: "List[PlanStep]" = []
    total = 0.0
    replans = 0
    for t in range(slots):
        energy_before = grid.energy_at(level)
        _, policy_row = backup.row(belief.value[t + 1], actual.income_j[t])
        replans += 1
        action = actions[int(policy_row[level])]
        tel.count("planner.replans")
        tel.gauge(
            "planner.forecast_gap_j",
            float(forecast.income_j[t] - actual.income_j[t]),
        )
        total += action.cycles
        steps.append(
            PlanStep(
                slot=t,
                start_s=actual.slot_start_s(t),
                action=action,
                energy_before_j=energy_before,
                cumulative_cycles=total,
            )
        )
        nxt = min(
            max(energy_before - action.draw_j + actual.income_j[t], 0.0),
            grid.capacity_j,
        )
        level = grid.index_of(nxt)
    return HorizonOutcome(
        steps=tuple(steps),
        total_cycles=total,
        final_energy_j=grid.energy_at(level),
        replans=replans,
        forecast_income_j=np.array(forecast.income_j, dtype=float),
        actual_income_j=np.array(actual.income_j, dtype=float),
    )
