"""repro: holistic energy management for battery-less energy-harvesting SoCs.

A from-scratch Python reproduction of *"Holistic Energy Management with
uProcessor Co-Optimization in Fully Integrated Battery-less IoTs"*
(Hester, Jia, Gu -- SOCC 2018): the full system stack -- photovoltaic
harvester, on-chip regulators, microprocessor energy model, storage
capacitor, comparator-based energy monitor, transient simulator -- plus
the paper's contributions: the holistic optimal voltage point, the
holistic minimum energy point, discharge-time MPP tracking, and
sprint/bypass deadline scheduling.

Quickstart::

    import repro

    system = repro.paper_system()
    manager = repro.HolisticEnergyManager(system, regulator_name="sc")
    plan = manager.plan(repro.Policy.HOLISTIC_PERFORMANCE, irradiance=1.0)
    point = plan.operating_point
    print(f"{point.frequency_hz/1e6:.0f} MHz at {point.processor_voltage_v:.2f} V")

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
per-figure reproductions.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core import (
        DischargeTimeMppTracker,
        EnergyHarvestingSoC,
        HolisticEnergyManager,
        HolisticMepOptimizer,
        MepComparison,
        MppTrackingController,
        OperatingPlan,
        OperatingPoint,
        OperatingPointOptimizer,
        Policy,
        SprintController,
        SprintPlan,
        SprintScheduler,
        paper_system,
    )
    from repro.errors import (
        BrownoutError,
        ConvergenceError,
        InfeasibleOperatingPointError,
        JournalError,
        ModelParameterError,
        OperatingRangeError,
        QuarantineError,
        ReproError,
        ResilienceError,
        SimulationError,
        TelemetryError,
    )
    from repro.faults import (
        CampaignConfig,
        CampaignSummary,
        FaultDraw,
        FaultSpec,
        IntermittentCampaignConfig,
        IntermittentCampaignSummary,
        draw_faults,
        run_intermittent_campaign,
        run_transient_campaign,
    )
    from repro.fleet import FleetNode, FleetSimulator
    from repro.planner import (
        EnergyForecast,
        ForecastErrorModel,
        Plan,
        PlanController,
        PlannerAction,
        PlannerSpec,
        RecedingHorizonController,
        bin_trace,
        build_actions,
        execute_receding_horizon,
        greedy_plan,
        make_planner_controller,
        solve_plan,
    )
    from repro.parallel import (
        ProgressReporter,
        campaign_run_id,
        run_sharded,
        stable_fingerprint,
    )
    from repro.resilience import (
        CampaignJournal,
        ChaosSpec,
        ResilienceConfig,
        RetryPolicy,
        RunFailure,
        SupervisedOutcome,
        run_supervised,
    )
    from repro.processor import (
        ProcessorModel,
        Workload,
        image_frame_workload,
        paper_processor,
    )
    from repro.pv import (
        FULL_SUN,
        HALF_SUN,
        INDOOR,
        QUARTER_SUN,
        IrradianceTrace,
        LightCondition,
        SingleDiodeCell,
        constant_trace,
        find_mpp,
        kxob22_cell,
        step_trace,
    )
    from repro.regulators import (
        BuckRegulator,
        BypassPath,
        LinearRegulator,
        Regulator,
        SwitchedCapacitorRegulator,
        paper_buck,
        paper_ldo,
        paper_switched_capacitor,
    )
    from repro.sim import (
        SimulationConfig,
        SimulationResult,
        TransientSimulator,
    )
    from repro.storage import Capacitor
    from repro.telemetry import (
        MetricsRegistry,
        NullTelemetry,
        Telemetry,
        TelemetrySession,
        Tracer,
        write_chrome_trace,
        write_jsonl,
    )

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # system composition and policies
    "EnergyHarvestingSoC",
    "paper_system",
    "HolisticEnergyManager",
    "OperatingPlan",
    "Policy",
    # holistic optimizers
    "OperatingPoint",
    "OperatingPointOptimizer",
    "HolisticMepOptimizer",
    "MepComparison",
    "DischargeTimeMppTracker",
    "MppTrackingController",
    "SprintScheduler",
    "SprintPlan",
    "SprintController",
    # substrates
    "SingleDiodeCell",
    "kxob22_cell",
    "find_mpp",
    "LightCondition",
    "FULL_SUN",
    "HALF_SUN",
    "QUARTER_SUN",
    "INDOOR",
    "IrradianceTrace",
    "constant_trace",
    "step_trace",
    "Regulator",
    "LinearRegulator",
    "SwitchedCapacitorRegulator",
    "BuckRegulator",
    "BypassPath",
    "paper_ldo",
    "paper_switched_capacitor",
    "paper_buck",
    "ProcessorModel",
    "paper_processor",
    "Workload",
    "image_frame_workload",
    "Capacitor",
    "TransientSimulator",
    "SimulationConfig",
    "SimulationResult",
    # fault injection and robustness campaigns
    "FaultSpec",
    "FaultDraw",
    "draw_faults",
    "CampaignConfig",
    "CampaignSummary",
    "IntermittentCampaignConfig",
    "IntermittentCampaignSummary",
    "run_transient_campaign",
    "run_intermittent_campaign",
    # forecast-aware DP energy planning
    "EnergyForecast",
    "ForecastErrorModel",
    "bin_trace",
    "PlannerAction",
    "PlannerSpec",
    "Plan",
    "build_actions",
    "solve_plan",
    "greedy_plan",
    "execute_receding_horizon",
    "make_planner_controller",
    "PlanController",
    "RecedingHorizonController",
    # batched fleet simulation
    "FleetNode",
    "FleetSimulator",
    # parallel execution
    "run_sharded",
    "ProgressReporter",
    "stable_fingerprint",
    "campaign_run_id",
    # crash-tolerant supervised execution
    "run_supervised",
    "ResilienceConfig",
    "RetryPolicy",
    "RunFailure",
    "SupervisedOutcome",
    "CampaignJournal",
    "ChaosSpec",
    # telemetry
    "Telemetry",
    "NullTelemetry",
    "TelemetrySession",
    "Tracer",
    "MetricsRegistry",
    "write_chrome_trace",
    "write_jsonl",
    # errors
    "ReproError",
    "ModelParameterError",
    "OperatingRangeError",
    "InfeasibleOperatingPointError",
    "ConvergenceError",
    "SimulationError",
    "BrownoutError",
    "ResilienceError",
    "JournalError",
    "QuarantineError",
    "TelemetryError",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.core": (
            "DischargeTimeMppTracker", "EnergyHarvestingSoC",
            "HolisticEnergyManager", "HolisticMepOptimizer", "MepComparison",
            "MppTrackingController", "OperatingPlan", "OperatingPoint",
            "OperatingPointOptimizer", "Policy", "SprintController",
            "SprintPlan", "SprintScheduler", "paper_system",
        ),
        "repro.errors": (
            "BrownoutError", "ConvergenceError",
            "InfeasibleOperatingPointError", "JournalError",
            "ModelParameterError", "OperatingRangeError", "QuarantineError",
            "ReproError", "ResilienceError", "SimulationError",
            "TelemetryError",
        ),
        "repro.faults": (
            "CampaignConfig", "CampaignSummary", "FaultDraw", "FaultSpec",
            "IntermittentCampaignConfig", "IntermittentCampaignSummary",
            "draw_faults", "run_intermittent_campaign",
            "run_transient_campaign",
        ),
        "repro.fleet": ("FleetNode", "FleetSimulator"),
        "repro.planner": (
            "EnergyForecast", "ForecastErrorModel", "Plan", "PlanController",
            "PlannerAction", "PlannerSpec", "RecedingHorizonController",
            "bin_trace", "build_actions", "execute_receding_horizon",
            "greedy_plan", "make_planner_controller", "solve_plan",
        ),
        "repro.parallel": (
            "ProgressReporter", "campaign_run_id", "run_sharded",
            "stable_fingerprint",
        ),
        "repro.resilience": (
            "CampaignJournal", "ChaosSpec", "ResilienceConfig", "RetryPolicy",
            "RunFailure", "SupervisedOutcome", "run_supervised",
        ),
        "repro.processor": (
            "ProcessorModel", "Workload", "image_frame_workload",
            "paper_processor",
        ),
        "repro.pv": (
            "FULL_SUN", "HALF_SUN", "INDOOR", "QUARTER_SUN",
            "IrradianceTrace", "LightCondition", "SingleDiodeCell",
            "constant_trace", "find_mpp", "kxob22_cell", "step_trace",
        ),
        "repro.regulators": (
            "BuckRegulator", "BypassPath", "LinearRegulator", "Regulator",
            "SwitchedCapacitorRegulator", "paper_buck", "paper_ldo",
            "paper_switched_capacitor",
        ),
        "repro.sim": (
            "SimulationConfig", "SimulationResult", "TransientSimulator",
        ),
        "repro.storage": ("Capacitor",),
        "repro.telemetry": (
            "MetricsRegistry", "NullTelemetry", "Telemetry",
            "TelemetrySession", "Tracer", "write_chrome_trace", "write_jsonl",
        ),
    },
)
