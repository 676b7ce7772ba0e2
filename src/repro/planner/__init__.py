"""Forecast-aware DP energy planning (ROADMAP item 2).

The paper's sprinting scheduler decides charge/sprint/bypass from the
current capacitor state only.  This package solves the schedule
*globally* over a slotted energy-income forecast:

* :mod:`repro.planner.forecast` -- bin an irradiance trace into
  per-slot MPP energy income, with seeded bias/noise injection so
  imperfect forecasts are first-class;
* :mod:`repro.planner.dp` -- backward value iteration over the
  quantized (time-slot, stored-energy) grid with deterministic
  tie-breaking, plus the greedy baseline in the same action space;
* :mod:`repro.planner.horizon` -- receding-horizon re-optimization,
  re-planning each slot as forecast becomes actual from one solve of
  the forecast plus one DP row per replan;
* :mod:`repro.planner.adapter` -- plan -> ``DvfsController`` bridges
  so plans drive the transient and fleet simulators unchanged (the
  ``planner`` / ``oracle`` campaign schemes).

``python -m repro planner`` prints a solved schedule;
``python -m repro bench --planner`` writes ``BENCH_planner.json``.
"""

from repro.planner.adapter import (
    PLANNER_MODES,
    PlanController,
    RecedingHorizonController,
    make_planner_controller,
)
from repro.planner.dp import (
    CHARGE_ACTION,
    EnergyGrid,
    Plan,
    PlanStep,
    PlannerAction,
    PlannerSpec,
    build_actions,
    greedy_plan,
    realized_cycles,
    solve_plan,
)
from repro.planner.forecast import (
    PERFECT_FORECAST,
    EnergyForecast,
    ForecastErrorModel,
    bin_trace,
)
from repro.planner.horizon import (
    HorizonOutcome,
    execute_receding_horizon,
)

__all__ = [
    "EnergyForecast",
    "ForecastErrorModel",
    "PERFECT_FORECAST",
    "bin_trace",
    "PlannerAction",
    "PlannerSpec",
    "EnergyGrid",
    "Plan",
    "PlanStep",
    "CHARGE_ACTION",
    "build_actions",
    "solve_plan",
    "greedy_plan",
    "realized_cycles",
    "HorizonOutcome",
    "execute_receding_horizon",
    "PlanController",
    "RecedingHorizonController",
    "make_planner_controller",
    "PLANNER_MODES",
]
