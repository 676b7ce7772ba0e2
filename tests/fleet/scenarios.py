"""Shared scenario matrix + equality helpers for the fleet tests.

Each :class:`Scenario` knows how to build *fresh* simulator parts (a
stateful controller, a charged capacitor, a comparator bank) so the
same scenario can be instantiated once for the scalar engine and once
per fleet lane without shared mutable state.  The memoizing MPP
tracker and the characterized system are module-level singletons --
both are value-transparent caches, shared exactly as the campaign and
the benches share them.

The equality helpers spell out the contract of the differential
harness: *bit* identity on every recorded array and scalar, exact
equality on events and telemetry metrics, and NaN-aware equality on
``summary()`` (an incomplete run reports ``completion_time_s = nan``,
and ``nan != nan`` would otherwise fail scalar-vs-itself).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.core.duty_cycle import DutyCycleController
from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
from repro.core.operating_point import OperatingPointOptimizer
from repro.core.sprint import SprintController, SprintScheduler
from repro.faults.campaign import CampaignConfig, _make_controller
from repro.faults.models import (
    FaultSpec,
    draw_faults,
    faulted_comparator_bank,
    faulted_node_capacitor,
    faulted_system,
    faulted_trace,
)
from repro.fleet.engine import FleetNode, FleetSimulator, vectorizable
from repro.parallel.cache import characterized_system
from repro.planner.adapter import PlanController, RecedingHorizonController
from repro.planner.dp import PlannerSpec, build_actions, solve_plan
from repro.planner.forecast import ForecastErrorModel, bin_trace
from repro.processor.workloads import Workload, image_frame_workload
from repro.pv.cell import SingleDiodeCell
from repro.pv.traces import IrradianceTrace, cloud_trace, step_trace
from repro.sim.dvfs import (
    BypassController,
    ConstantSpeedController,
    FixedOperatingPointController,
)
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.sim.result import SimulationResult, results_bit_identical
from repro.sim.transitions import DvfsTransitionModel
from repro.storage.capacitor import Capacitor
from repro.telemetry.session import Telemetry, TelemetrySession
from repro.units import micro_seconds, milli_seconds

SYSTEM, LUT = characterized_system()

#: One memoizing tracker shared by every MPPT lane (value-transparent:
#: the operating-point memo is a pure function of irradiance).
TRACKER = DischargeTimeMppTracker(SYSTEM, "sc", lut=LUT)

#: The design-time fixed operating point (bright-light optimum).
FIXED_POINT = OperatingPointOptimizer(SYSTEM).best_point("sc", 1.0)

PartsBuilder = Callable[[Optional[Telemetry]], Dict[str, Any]]


@dataclass(frozen=True)
class Scenario:
    """One differential scenario: a config, a trace and fresh parts."""

    name: str
    config: SimulationConfig
    trace: IrradianceTrace
    parts: PartsBuilder
    duration_s: Optional[float] = None


def run_scalar_lane(
    scenario: Scenario, telemetry: "Optional[Telemetry]" = None
) -> "Tuple[SimulationResult, Capacitor]":
    """Run one scenario through the scalar reference engine.

    Returns the result and the node capacitor the run left charged to
    its final voltage.
    """
    parts = dict(scenario.parts(telemetry))
    capacitor = parts.pop("capacitor")
    simulator = TransientSimulator(
        config=scenario.config,
        telemetry=telemetry,
        node_capacitor=capacitor,
        **parts,
    )
    result = simulator.run(scenario.trace, duration_s=scenario.duration_s)
    return result, capacitor


def run_scalar(
    scenario: Scenario, telemetry: "Optional[Telemetry]" = None
) -> SimulationResult:
    """Run one scenario through the scalar reference engine."""
    return run_scalar_lane(scenario, telemetry)[0]


def run_batch(
    scenarios: Sequence[Scenario], with_metrics: bool = False
) -> "Tuple[FleetSimulator, List[SimulationResult], List[Optional[TelemetrySession]]]":
    """Run scenarios as lanes of one fleet batch (shared config).

    Every scenario in the batch must share the same
    :class:`SimulationConfig` and effective duration -- that is the
    homogeneity the campaign sharder guarantees.
    """
    configs = {id(scenario.config) for scenario in scenarios}
    assert len(configs) == 1, "batch lanes must share one config"
    durations = {scenario.duration_s for scenario in scenarios}
    assert len(durations) == 1, "batch lanes must share one duration"
    sessions: "List[Optional[TelemetrySession]]" = [
        TelemetrySession() if with_metrics else None for _ in scenarios
    ]
    nodes = [
        FleetNode(telemetry=session, **scenario.parts(session))
        for scenario, session in zip(scenarios, sessions)
    ]
    simulator = FleetSimulator(nodes, config=scenarios[0].config)
    results = simulator.run(
        [scenario.trace for scenario in scenarios],
        duration_s=next(iter(durations)),
    )
    return simulator, results, sessions


def lane_vectorizes(scenario: Scenario) -> bool:
    """Whether the per-lane classifier admits ``scenario``'s lane.

    The lane then runs in the fleet's vectorized core unless its
    batch's config may stop a lane early (``stop_on_brownout`` or
    ``stop_on_completion``), which sends the whole batch to the scalar
    engine.
    """
    duration_s = scenario.duration_s or scenario.trace.duration_s
    steps = int(math.ceil(duration_s / scenario.config.time_step_s))
    return vectorizable(
        FleetNode(**scenario.parts(None)), scenario.trace, steps
    )


# -- equality helpers ---------------------------------------------------------


def values_equal(a: Any, b: Any) -> bool:
    """Exact equality that treats NaN as equal to NaN (bit-level intent)."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b
    return bool(a == b)


def trees_equal(a: Any, b: Any) -> bool:
    """Recursive :func:`values_equal` over dict/list/tuple trees."""
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            trees_equal(a[key], b[key]) for key in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            trees_equal(x, y) for x, y in zip(a, b)
        )
    return values_equal(a, b)


def assert_summaries_identical(
    a: SimulationResult, b: SimulationResult
) -> None:
    """Exact (NaN-aware) equality of the two ``summary()`` dicts."""
    sa, sb = a.summary(), b.summary()
    assert set(sa) == set(sb), (sorted(sa), sorted(sb))
    for key in sorted(sa):
        assert values_equal(sa[key], sb[key]), (key, sa[key], sb[key])


def assert_results_identical(
    a: SimulationResult, b: SimulationResult
) -> None:
    """The full differential contract between the two engines."""
    assert results_bit_identical(a, b)
    assert a.events == b.events
    assert a.metrics == b.metrics
    assert_summaries_identical(a, b)


def assert_capacitor_written_back(
    simulator: FleetSimulator, lane: int, capacitor: Capacitor
) -> None:
    """Lane ``lane``'s capacitor ends where the scalar run left its own.

    The capacitor's final voltage is the one piece of node state a run
    leaves behind; ``capacitor`` is the scalar run's (see
    :func:`run_scalar_lane`).  Compared bit for bit.
    """
    fleet_v = simulator.nodes[lane].capacitor.voltage_v
    assert float(fleet_v).hex() == float(capacitor.voltage_v).hex(), (
        lane,
        fleet_v,
        capacitor.voltage_v,
    )


# -- the scenario matrix ------------------------------------------------------

#: Shared config of the stop-free matrix scenarios (fig6/fig8/sprint
#: lanes can therefore mix in one batch).
MATRIX_CONFIG = SimulationConfig(
    time_step_s=10e-6, record_every=4, stop_on_brownout=False
)

#: Matrix trace: bright then dimmed, the Fig. 8 stress shape.
MATRIX_TRACE = step_trace(1.0, 0.3, 4e-3, 12e-3)


def _fig6_fixed_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    return {
        "cell": SYSTEM.cell,
        "capacitor": SYSTEM.new_node_capacitor(1.2),
        "processor": SYSTEM.processor,
        "regulator": SYSTEM.regulator("sc"),
        "controller": FixedOperatingPointController(
            FIXED_POINT.processor_voltage_v, FIXED_POINT.frequency_hz
        ),
        "comparators": SYSTEM.new_comparator_bank(),
    }


def _fig8_mppt_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    return {
        "cell": SYSTEM.cell,
        "capacitor": SYSTEM.new_node_capacitor(SYSTEM.mpp(1.0).voltage_v),
        "processor": SYSTEM.processor,
        "regulator": SYSTEM.regulator("sc"),
        "controller": MppTrackingController(
            TRACKER, initial_irradiance=1.0, telemetry=telemetry
        ),
        "comparators": SYSTEM.new_comparator_bank(),
    }


def _blind_mppt_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    """An MPPT lane without comparators: it never re-tunes on a falling
    pair, so a deep dim browns it out (the core's death and recovery
    branches) where :func:`_fig8_mppt_parts` rides the dim out."""
    parts = _fig8_mppt_parts(telemetry)
    parts["comparators"] = None
    return parts


def short_job(make_parts: PartsBuilder, cycles: int) -> PartsBuilder:
    """``make_parts`` plus a ``cycles``-cycle workload (early completion)."""

    def parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
        lane_parts = make_parts(telemetry)
        lane_parts["workload"] = Workload("short", cycles)
        return lane_parts

    return parts


def _transitions_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    parts = _fig8_mppt_parts(telemetry)
    parts["transitions"] = DvfsTransitionModel()
    return parts


def _sprint_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    workload = image_frame_workload(10e-3)
    scheduler = SprintScheduler(SYSTEM, "buck", sprint_factor=0.2)
    v_start = SYSTEM.mpp(1.0).voltage_v
    plan = scheduler.plan(workload, v_start)
    return {
        "cell": SYSTEM.cell,
        "capacitor": SYSTEM.new_node_capacitor(v_start),
        "processor": SYSTEM.processor,
        "regulator": SYSTEM.regulator("buck"),
        "controller": SprintController(
            plan,
            allow_bypass=True,
            telemetry=telemetry,
            deadline_s=workload.deadline_s,
        ),
        "comparators": SYSTEM.new_comparator_bank(),
        "workload": workload,
    }


#: The stop-free matrix: one shared config, mixable lanes.
MATRIX_SCENARIOS: "Tuple[Scenario, ...]" = (
    Scenario("fig6_fixed", MATRIX_CONFIG, MATRIX_TRACE, _fig6_fixed_parts),
    Scenario("fig8_mppt", MATRIX_CONFIG, MATRIX_TRACE, _fig8_mppt_parts),
    Scenario(
        "fig8_transitions", MATRIX_CONFIG, MATRIX_TRACE, _transitions_parts
    ),
    Scenario("fig9_sprint", MATRIX_CONFIG, MATRIX_TRACE, _sprint_parts),
)


# -- controller lanes ---------------------------------------------------------
#
# One lane per stock controller class, all sharing MATRIX_CONFIG /
# MATRIX_TRACE so the whole set mixes in a single heterogeneous batch.
# Only the MPPT lane runs in the vectorized core; the other six are
# fallback lanes that the differential matrix still checks against
# scalar.  The planner artifacts (action set, value grid, forecast,
# oracle plan) are immutable and shared across lanes exactly like the
# MPP tracker; the controllers built from them are fresh per lane.

PLANNER_SPEC = PlannerSpec(slot_s=milli_seconds(1))
PLANNER_ACTIONS, PLANNER_GRID = build_actions(SYSTEM, "sc", PLANNER_SPEC)
PLANNER_FORECAST = bin_trace(
    MATRIX_TRACE, SYSTEM, PLANNER_SPEC.slot_s, duration_s=12e-3
)
ORACLE_PLAN = solve_plan(
    PLANNER_FORECAST.income_j,
    PLANNER_ACTIONS,
    PLANNER_GRID,
    0.5 * SYSTEM.node_capacitance_f * 1.2**2,
    PLANNER_FORECAST.slot_s,
)

#: Mid-light optimum for the duty-cycle lane (distinct from the
#: bright-light FIXED_POINT so the lanes are distinguishable).
DUTY_POINT = OperatingPointOptimizer(SYSTEM).best_point("sc", 0.5)

#: Cycle budget of the planner lanes.
PLANNER_CYCLES = 400_000


def _bypass_law(v_node: float) -> float:
    """Voltage-proportional clock: exercises the per-step law calls."""
    return v_node * 2e7


def _constant_speed_parts(
    telemetry: "Optional[Telemetry]",
) -> Dict[str, Any]:
    parts = _fig6_fixed_parts(telemetry)
    parts["controller"] = ConstantSpeedController(
        output_voltage_v=FIXED_POINT.processor_voltage_v,
        frequency_hz=FIXED_POINT.frequency_hz,
        total_cycles=250_000,
    )
    return parts


def _bypass_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    parts = _fig6_fixed_parts(telemetry)
    parts["controller"] = BypassController(_bypass_law)
    return parts


def _duty_cycle_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    parts = _fig6_fixed_parts(telemetry)
    parts["controller"] = DutyCycleController(DUTY_POINT, 20_000, 1.1, 0.9)
    return parts


def _plan_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    parts = _fig6_fixed_parts(telemetry)
    parts["controller"] = PlanController(
        ORACLE_PLAN,
        capacitance_f=SYSTEM.node_capacitance_f,
        total_cycles=PLANNER_CYCLES,
        deadline_s=10e-3,
        telemetry=telemetry,
    )
    return parts


def _receding_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    parts = _fig6_fixed_parts(telemetry)
    belief = ForecastErrorModel(bias=-0.1, noise_sigma=0.15, seed=7).apply(
        PLANNER_FORECAST
    )
    parts["controller"] = RecedingHorizonController(
        belief,
        PLANNER_ACTIONS,
        PLANNER_GRID,
        capacitance_f=SYSTEM.node_capacitance_f,
        total_cycles=PLANNER_CYCLES,
        deadline_s=10e-3,
        telemetry=telemetry,
    )
    return parts


#: One lane per controller class (scenario name = controller kind).
CONTROLLER_SCENARIOS: "Tuple[Scenario, ...]" = (
    Scenario("fixed", MATRIX_CONFIG, MATRIX_TRACE, _fig6_fixed_parts),
    Scenario(
        "constant_speed", MATRIX_CONFIG, MATRIX_TRACE, _constant_speed_parts
    ),
    Scenario("bypass", MATRIX_CONFIG, MATRIX_TRACE, _bypass_parts),
    Scenario("duty_cycle", MATRIX_CONFIG, MATRIX_TRACE, _duty_cycle_parts),
    Scenario("mppt", MATRIX_CONFIG, MATRIX_TRACE, _fig8_mppt_parts),
    Scenario("plan", MATRIX_CONFIG, MATRIX_TRACE, _plan_parts),
    Scenario("receding", MATRIX_CONFIG, MATRIX_TRACE, _receding_parts),
)

class CustomCell(SingleDiodeCell):
    """A cell subclass: the batched PV solve only admits plain cells."""


class CallableTrace:
    """A bare callable trace without ``step_samples``."""

    def __init__(self, trace: IrradianceTrace) -> None:
        self._trace = trace
        self.duration_s = trace.duration_s

    def __call__(self, time_s: float) -> float:
        return self._trace(time_s)


def _custom_cell_parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
    parts = _fig8_mppt_parts(telemetry)
    parts["cell"] = CustomCell(**asdict(SYSTEM.cell))
    return parts


#: Every controller lane plus more fallback lanes: the sprint
#: controller, and MPPT lanes that a cell subclass, a DVFS transition
#: model or a trace without ``step_samples`` keeps out of the core.
HETERO_SCENARIOS: "Tuple[Scenario, ...]" = CONTROLLER_SCENARIOS + (
    Scenario(
        "sprint_fallback", MATRIX_CONFIG, MATRIX_TRACE, _sprint_parts
    ),
    Scenario(
        "custom_cell_fallback",
        MATRIX_CONFIG,
        MATRIX_TRACE,
        _custom_cell_parts,
    ),
    Scenario(
        "transitions_fallback",
        MATRIX_CONFIG,
        MATRIX_TRACE,
        _transitions_parts,
    ),
    Scenario(
        "callable_trace_fallback",
        MATRIX_CONFIG,
        cast(IrradianceTrace, CallableTrace(MATRIX_TRACE)),
        _fig8_mppt_parts,
    ),
)

#: The heterogeneous lanes that run in the vectorized core.
VECTORIZED_LANES = frozenset({"mppt"})

#: A dim deep enough to brown out an MPPT lane without comparators
#: (at t ~ 11 ms) while :func:`_fig8_mppt_parts` rides it out.
DEATH_TRACE = step_trace(1.0, 0.01, 4e-3, 20e-3)

#: A passing cloud that browns the comparator-less MPPT lane out and
#: lets it recharge past the recovery threshold.
RECOVERY_TRACE = cloud_trace(
    1.0, 0.01, 4e-3, 8e-3, 30e-3, edge_s=micro_seconds(500)
)

#: Config of the brownout-recovery lanes.
RECOVERY_CONFIG = SimulationConfig(
    time_step_s=10e-6,
    record_every=4,
    stop_on_brownout=False,
    recover_from_brownout=True,
    recovery_voltage_v=1.05,
)

#: Early-exit scenarios on MPPT lanes the classifier admits: death by
#: brownout and a short job's completion.  The vectorized core runs
#: every lane to the end of the grid, so a batch under either config
#: runs all its lanes on the scalar engine.
STOP_SCENARIOS: "Tuple[Scenario, ...]" = (
    Scenario(
        "stop_on_brownout",
        SimulationConfig(
            time_step_s=micro_seconds(10),
            record_every=4,
            stop_on_brownout=True,
        ),
        DEATH_TRACE,
        _blind_mppt_parts,
    ),
    Scenario(
        "stop_on_completion",
        SimulationConfig(
            time_step_s=10e-6,
            record_every=4,
            stop_on_brownout=False,
            stop_on_completion=True,
        ),
        MATRIX_TRACE,
        short_job(_fig8_mppt_parts, 50_000),
    ),
)

#: Brownout-recovery scenario: the comparator-less MPPT lane under a
#: passing cloud browns out, halts through the recovery gate,
#: recharges past the threshold and is released -- exercising the
#: outage span both ways in the vectorized core.
RECOVERY_SCENARIO = Scenario(
    "brownout_recovery", RECOVERY_CONFIG, RECOVERY_TRACE, _blind_mppt_parts
)

ALL_SCENARIOS: "Tuple[Scenario, ...]" = (
    MATRIX_SCENARIOS + STOP_SCENARIOS + (RECOVERY_SCENARIO,)
)


# -- seeded fault-campaign lanes ---------------------------------------------

CAMPAIGN_SPEC = FaultSpec(
    comparator_offset_sigma_v=80e-3, flicker_depth_max=0.6
)
CAMPAIGN_CONFIG = CampaignConfig(
    runs=4, duration_s=30e-3, dim_time_s=12e-3
)
CAMPAIGN_SIM_CONFIG = SimulationConfig(
    time_step_s=CAMPAIGN_CONFIG.time_step_s,
    stop_on_completion=False,
    stop_on_brownout=False,
    recover_from_brownout=True,
    recovery_voltage_v=CAMPAIGN_CONFIG.recovery_voltage_v,
)

#: Cycle budget for the campaign-lane workload (fixed, not the
#: reference probe -- the engines are what is under test).
CAMPAIGN_CYCLES = 200_000


def campaign_scenario(seed: int) -> Scenario:
    """A seeded fault-campaign lane as a differential scenario."""
    comparator_count = len(SYSTEM.comparator_thresholds_v)

    def parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
        draw = draw_faults(
            CAMPAIGN_SPEC, seed, comparator_count=comparator_count
        )
        system = faulted_system(draw)
        return {
            "cell": system.cell,
            "capacitor": faulted_node_capacitor(
                system, draw, CAMPAIGN_CONFIG.initial_voltage_v
            ),
            "processor": system.processor,
            "regulator": system.regulator(CAMPAIGN_CONFIG.regulator_name),
            "controller": _make_controller(
                CAMPAIGN_CONFIG, system, LUT, telemetry=telemetry
            ),
            "comparators": faulted_comparator_bank(system, draw),
            "workload": Workload(name="campaign", cycles=CAMPAIGN_CYCLES),
        }

    draw = draw_faults(
        CAMPAIGN_SPEC, seed, comparator_count=comparator_count
    )
    trace = faulted_trace(CAMPAIGN_CONFIG.base_trace(), draw)
    return Scenario(
        f"campaign_seed{seed}",
        CAMPAIGN_SIM_CONFIG,
        trace,
        parts,
        duration_s=CAMPAIGN_CONFIG.duration_s,
    )
