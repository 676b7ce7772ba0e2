"""Builders for the golden-regression payloads.

Shared by the regression test (``tests/test_golden_regression.py``)
and the fixture regenerator (``python -m tests.golden.regen``), so the
committed JSON and the freshly computed values always come from the
same code path.  Every payload is a plain JSON-serialisable tree of
floats/strings/bools -- scalars chosen to pin the *physics* (operating
points, gains, campaign statistics), not incidental array layouts.
"""

from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np

from repro.experiments.fig6_operating_points import (
    fig6a_power_curves,
    fig6b_regulated_comparison,
)
from repro.faults import CampaignConfig, FaultSpec, run_transient_campaign
from repro.pv.cell import SingleDiodeCell, kxob22_cell
from repro.units import micro_amps

#: The canonical 5-seed campaign: sensing faults over the dimmed-light
#: stress, small enough to run in seconds, rich enough that any drift
#: in the fault models, simulator or aggregation shows up.
CAMPAIGN_SPEC = FaultSpec(
    comparator_offset_sigma_v=80e-3, flicker_depth_max=0.6
)
CAMPAIGN_CONFIG = CampaignConfig(
    runs=5, duration_s=40e-3, dim_time_s=15e-3
)


def _point_payload(point) -> "dict[str, object]":
    return {
        "processor_voltage_v": point.processor_voltage_v,
        "frequency_hz": point.frequency_hz,
        "delivered_power_w": point.delivered_power_w,
        "extracted_power_w": point.extracted_power_w,
        "node_voltage_v": point.node_voltage_v,
        "regulator_name": point.regulator_name,
        "bypassed": point.bypassed,
    }


def fig6_payload() -> "dict[str, object]":
    """Fig. 6 operating points: curves summary + per-converter bests."""
    curves = fig6a_power_curves()
    comparisons = fig6b_regulated_comparison()
    return {
        "unregulated": _point_payload(curves.unregulated),
        "mpp_voltage_v": curves.mpp_voltage_v,
        "mpp_power_w": curves.mpp_power_w,
        "pv_power_mean_w": float(np.mean(curves.pv_power_w)),
        "processor_power_mean_w": float(np.mean(curves.processor_power_w)),
        "converters": {
            entry.regulator_name: {
                "point": _point_payload(entry.point),
                "power_gain": entry.power_gain,
                "speed_gain": entry.speed_gain,
                "extraction_gain": entry.extraction_gain,
                "output_curve_mean_w": float(
                    np.nanmean(entry.output_curve_w)
                ),
            }
            for entry in comparisons
        },
    }


def result_payload(result) -> "dict[str, object]":
    """A transient result as scalars, events and per-array summaries.

    Each recorded array is pinned by its length, sum, min, max and
    every 10th sample: enough to catch any drift of a single step,
    small enough to commit.
    """
    payload: "dict[str, object]" = {"arrays": {}}
    for spec in fields(result):
        value = getattr(result, spec.name)
        if isinstance(value, np.ndarray):
            payload["arrays"][spec.name] = {
                "length": int(value.size),
                "sum": value.sum().item(),
                "min": value.min().item(),
                "max": value.max().item(),
                "every_10th": value[::10].tolist(),
            }
        elif spec.name == "events":
            payload["events"] = [[name, t] for name, t in value]
        elif spec.name != "metrics":
            payload[spec.name] = value
    return payload


#: Cells covering the single-diode solver's branches: the paper cell, a
#: hot derated copy, a zero-series-resistance cell (closed-form branch)
#: and a lossy cell with a hard knee.
PV_REFERENCE_CELLS = {
    "kxob22": kxob22_cell(),
    "hot": kxob22_cell().at_temperature(330.0),
    "no-rs": SingleDiodeCell(
        photo_current_full_sun_a=5e-3,
        saturation_current_a=micro_amps(0.01),
        ideality_factor=1.2,
        series_cells=2,
        series_resistance_ohm=0.0,
        shunt_resistance_ohm=3000.0,
    ),
    "lossy": SingleDiodeCell(
        photo_current_full_sun_a=20e-3,
        saturation_current_a=micro_amps(0.05),
        series_resistance_ohm=4.0,
        shunt_resistance_ohm=1000.0,
    ),
}
PV_REFERENCE_IRRADIANCES = (0.0, 0.05, 0.3, 1.0, 1.2)
PV_REFERENCE_VOLTAGES = np.linspace(-0.2, 2.0, 551)


def pv_current_reference_payload() -> "dict[str, object]":
    """Per-point single-diode currents over a dense voltage grid.

    ``currents[cell][repr(irradiance)][k]`` is the terminal current at
    ``PV_REFERENCE_VOLTAGES[k]``, each solved as its own one-point call
    (repr floats, so the JSON round-trips every bit).  The fixture was
    frozen from the historical array solver, so it is the reference the
    scalar Newton solve must reproduce exactly.
    """
    voltages = PV_REFERENCE_VOLTAGES.tolist()
    return {
        "voltage_grid": {"start": -0.2, "stop": 2.0, "points": len(voltages)},
        "currents": {
            name: {
                repr(irr): [float(cell.current(v, irr)) for v in voltages]
                for irr in PV_REFERENCE_IRRADIANCES
            }
            for name, cell in PV_REFERENCE_CELLS.items()
        },
    }


#: ``find_mpp`` reference: the paper cell at four temperatures, from
#: deep dusk to above full sun.
MINIMIZE_REFERENCE_TEMPERATURES_K = (273.15, 300.15, 330.0, 350.0)
MINIMIZE_REFERENCE_IRRADIANCES = (
    0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.85, 1.0, 1.2,
)
#: ``conventional_mep`` reference: activity factors across the model's
#: (0, 2] range, each over the full window and three sub-windows
#: (``None`` = the processor's own operating window).
MEP_REFERENCE_ACTIVITIES = (0.1, 0.3, 0.6, 1.0, 1.5, 2.0)
MEP_REFERENCE_WINDOWS = (None, (0.15, 0.4), (0.2, 0.8), (0.3, 1.0))


def bounded_minimize_reference_payload() -> "dict[str, object]":
    """The bounded minimizer's answers through its two callers.

    ``find_mpp[repr(T)][repr(irradiance)]`` holds the MPP voltage,
    current and power of the paper cell at temperature ``T``;
    ``conventional_mep[repr(activity)][window]`` holds the conventional
    MEP of the paper processor (``window`` is ``"full"`` or
    ``"low,high"`` in repr floats).  The fixture was frozen from
    scipy's ``minimize_scalar(method="bounded")``, so it is the
    reference the in-repo port must reproduce exactly.
    """
    from repro.processor.energy import paper_processor
    from repro.pv.mpp import find_mpp

    def window_key(window: "tuple[float, float] | None") -> str:
        return "full" if window is None else f"{window[0]!r},{window[1]!r}"

    mpps = {}
    for temperature in MINIMIZE_REFERENCE_TEMPERATURES_K:
        cell = kxob22_cell().at_temperature(temperature)
        mpps[repr(temperature)] = {}
        for irradiance in MINIMIZE_REFERENCE_IRRADIANCES:
            mpp = find_mpp(cell, irradiance)
            mpps[repr(temperature)][repr(irradiance)] = {
                "voltage_v": mpp.voltage_v,
                "current_a": mpp.current_a,
                "power_w": mpp.power_w,
            }
    meps = {}
    for activity in MEP_REFERENCE_ACTIVITIES:
        processor = paper_processor().with_activity(activity)
        meps[repr(activity)] = {}
        for window in MEP_REFERENCE_WINDOWS:
            low, high = (None, None) if window is None else window
            mep = processor.conventional_mep(low, high)
            meps[repr(activity)][window_key(window)] = {
                "voltage_v": mep.voltage_v,
                "energy_per_cycle_j": mep.energy_per_cycle_j,
                "frequency_hz": mep.frequency_hz,
            }
    return {"find_mpp": mpps, "conventional_mep": meps}


def fig8_reference_payload() -> "dict[str, object]":
    """Scalar-engine runs that pin the PV fast path end to end.

    * ``fig8_mppt`` -- the paper's Fig. 8 dim-and-retrack scenario
      (MPP tracker, comparator bank, SC regulator, 12 ms at 5 us);
    * ``steady`` / ``dimming`` -- a fixed operating point under
      constant and stepped light;
    * ``dark_brownout`` -- a dark discharge that ends in the
      stop-on-brownout record branch;
    * ``teg_brownout`` -- a thermoelectric harvester, which has no
      ``current_scalar`` and so takes the generic ``current`` path.

    The fixture was frozen from the historical reference loop (array
    PV solves, per-step trace lookup, no decision memo), so it checks
    that the fast path's single scalar solve, precomputed irradiance
    samples and decision memo change no recorded value.
    """
    from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
    from repro.core.system import EnergyHarvestingSoC, paper_system
    from repro.harvesters import wearable_teg
    from repro.parallel.cache import characterized_system
    from repro.processor.workloads import Workload
    from repro.pv.traces import constant_trace, step_trace
    from repro.sim.dvfs import FixedOperatingPointController
    from repro.sim.engine import SimulationConfig, TransientSimulator
    from repro.units import micro_seconds

    runs = {}

    system, _lut = characterized_system()
    tracker = DischargeTimeMppTracker(system, "sc")
    runs["fig8_mppt"] = TransientSimulator(
        cell=system.cell,
        node_capacitor=system.new_node_capacitor(system.mpp(1.0).voltage_v),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=MppTrackingController(tracker, initial_irradiance=1.0),
        comparators=system.new_comparator_bank(),
        config=SimulationConfig(
            time_step_s=micro_seconds(5.0),
            record_every=4,
            stop_on_brownout=False,
        ),
    ).run(step_trace(1.0, 0.3, 4e-3, 12e-3))

    def fixed_point_run(system, trace, setpoint=(0.8, 400e6),
                        capacitor_v=1.2, workload=None, comparators=None,
                        **flags):
        return TransientSimulator(
            cell=system.cell,
            node_capacitor=system.new_node_capacitor(capacitor_v),
            processor=system.processor,
            regulator=system.regulator("sc"),
            controller=FixedOperatingPointController(*setpoint),
            comparators=comparators,
            workload=workload,
            config=SimulationConfig(**flags),
        ).run(trace)

    solar = paper_system()
    runs["steady"] = fixed_point_run(solar, constant_trace(1.0, 20e-3))
    runs["dimming"] = fixed_point_run(
        solar, step_trace(1.0, 0.2, 5e-3, 30e-3), stop_on_brownout=False
    )
    runs["dark_brownout"] = fixed_point_run(
        solar,
        constant_trace(0.0, 0.2),
        capacitor_v=1.1,
        workload=Workload("t", 10**9),
        stop_on_brownout=True,
    )

    teg = EnergyHarvestingSoC(
        cell=wearable_teg(),
        processor=solar.processor,
        regulators=solar.regulators,
        comparator_thresholds_v=(0.70, 0.60, 0.50),
    )
    runs["teg_brownout"] = fixed_point_run(
        teg,
        step_trace(1.0, 0.2, 3e-3, 10e-3),
        setpoint=(0.6, 200e6),
        comparators=teg.new_comparator_bank(),
        stop_on_brownout=True,
    )
    return {name: result_payload(result) for name, result in runs.items()}

def campaign_payload() -> "dict[str, object]":
    """The canonical 5-seed transient campaign, summary + records."""
    summary = run_transient_campaign(CAMPAIGN_SPEC, CAMPAIGN_CONFIG)
    return {
        "summary": summary.as_dict(),
        "records": [asdict(record) for record in summary.records],
    }


def fleet_16node_payload() -> "dict[str, object]":
    """16 heterogeneous-seed fault lanes through the fleet engine.

    One batch of 16 seeded campaign lanes (each with its own faulted
    system, capacitor, trace and comparator bank) run by
    :class:`~repro.fleet.engine.FleetSimulator` with per-lane
    telemetry.  The fixture pins every lane's ``summary()`` -- the
    headline physics plus the sorted ``metrics.*`` telemetry keys --
    so drift in the batched PV solve, the batched integrator or the
    per-lane bookkeeping shows up seed by seed.
    """
    from repro.faults.campaign import _make_controller
    from repro.faults.models import (
        draw_faults,
        faulted_comparator_bank,
        faulted_node_capacitor,
        faulted_system,
        faulted_trace,
    )
    from repro.fleet.engine import FleetNode, FleetSimulator
    from repro.parallel.cache import characterized_system
    from repro.processor.workloads import Workload
    from repro.sim.engine import SimulationConfig
    from repro.telemetry.session import TelemetrySession

    reference_system, lut = characterized_system()
    comparator_count = len(reference_system.comparator_thresholds_v)
    config = CAMPAIGN_CONFIG
    sim_config = SimulationConfig(
        time_step_s=config.time_step_s,
        stop_on_completion=False,
        stop_on_brownout=False,
        recover_from_brownout=True,
        recovery_voltage_v=config.recovery_voltage_v,
    )
    seeds = list(range(1, 17))
    nodes, traces = [], []
    for seed in seeds:
        session = TelemetrySession()
        draw = draw_faults(
            CAMPAIGN_SPEC, seed, comparator_count=comparator_count
        )
        system = faulted_system(draw)
        nodes.append(
            FleetNode(
                cell=system.cell,
                capacitor=faulted_node_capacitor(
                    system, draw, config.initial_voltage_v
                ),
                processor=system.processor,
                regulator=system.regulator(config.regulator_name),
                controller=_make_controller(
                    config, system, lut, telemetry=session
                ),
                comparators=faulted_comparator_bank(system, draw),
                workload=Workload(name="golden_fleet", cycles=200_000),
                telemetry=session,
            )
        )
        traces.append(faulted_trace(config.base_trace(), draw))
    results = FleetSimulator(nodes, config=sim_config).run(
        traces, duration_s=config.duration_s
    )
    return {
        "engine": "fleet",
        "lanes": len(results),
        "nodes": {
            str(seed): result.summary()
            for seed, result in zip(seeds, results)
        },
        "metric_keys": sorted(
            {
                key
                for result in results
                for key in (result.metrics or {})
            }
        ),
    }


#: Start energies of the planner reference, as fractions of the grid
#: capacity: empty, either side of every action's feasibility
#: threshold (0.022, 0.041, 0.055, 0.19 and 0.43 of capacity for the
#: paper table), and above full -- a measured node energy can exceed
#: the grid's top level.
PLANNER_REFERENCE_FRACTIONS = (
    0.0, 0.02, 0.03, 0.045, 0.06, 0.12, 0.2, 0.33, 0.45, 0.7, 1.08,
)
#: The 16-seed planner campaign the reference pins end to end.
PLANNER_CAMPAIGN_CONFIG = CampaignConfig(
    runs=16, scheme="planner", duration_s=20e-3, dim_time_s=5e-3,
    workload_fraction=0.3,
)


def planner_receding_reference_payload() -> "dict[str, object]":
    """Receding-horizon answers over the planner bench's scenarios.

    For every ``BENCH_planner`` scenario forecast, every slot and every
    start energy in ``PLANNER_REFERENCE_FRACTIONS``, the DP solved on
    ``forecast.suffix(slot)`` from that energy: the first action's
    index, ``expected_cycles`` and the grid level the plan ends on.
    ``horizon`` holds the grid-world receding run of each scenario
    against the bench's distorted forecast (action indices, total
    cycles, final energy), and ``campaign`` the summary and per-seed
    records of a 16-seed ``scheme="planner"`` campaign.  The fixture was frozen from one
    full DP solve per replan, so it is the reference any shortcut in
    the receding-horizon paths must reproduce exactly.
    """
    from repro.core.system import paper_system
    from repro.planner.bench import (
        DEFAULT_ERROR,
        DURATION_S,
        _scenario_traces,
    )
    from repro.planner.dp import PlannerSpec, build_actions, solve_plan
    from repro.planner.forecast import bin_trace
    from repro.planner.horizon import execute_receding_horizon

    system = paper_system()
    spec = PlannerSpec()
    actions, grid = build_actions(system, "sc", spec)
    names = [action.name for action in actions]
    energies = [f * grid.capacity_j for f in PLANNER_REFERENCE_FRACTIONS]
    scenarios = {}
    for name, trace in _scenario_traces().items():
        forecast = bin_trace(
            trace, system, spec.slot_s, duration_s=DURATION_S
        )
        first, expected, final = [], [], []
        for slot in range(forecast.slots):
            suffix = forecast.suffix(slot)
            plans = [
                solve_plan(
                    suffix.income_j, actions, grid, energy,
                    suffix.slot_s, start_s=suffix.start_s,
                )
                for energy in energies
            ]
            first.append([names.index(p.steps[0].action.name) for p in plans])
            expected.append([p.expected_cycles for p in plans])
            final.append(
                [round(p.final_energy_j / grid.step_j) for p in plans]
            )
        outcome = execute_receding_horizon(
            forecast, DEFAULT_ERROR.apply(forecast), actions, grid,
            0.5 * system.node_capacitance_f * 1.2**2,
        )
        scenarios[name] = {
            "first_action": first,
            "expected_cycles": expected,
            "final_level": final,
            "horizon": {
                "actions": [names.index(s.action.name) for s in outcome.steps],
                "total_cycles": outcome.total_cycles,
                "final_energy_j": outcome.final_energy_j,
            },
        }
    summary = run_transient_campaign(CAMPAIGN_SPEC, PLANNER_CAMPAIGN_CONFIG)
    return {
        "actions": names,
        "start_energies_j": energies,
        "scenarios": scenarios,
        "campaign": {
            "summary": summary.as_dict(),
            "records": [asdict(record) for record in summary.records],
        },
    }


def headline_claims_payload() -> "dict[str, object]":
    """Every :class:`HeadlineClaims` field plus raw sprint joules.

    ``analytic_extra_solar_energy`` holds the ``(E_solar_constant,
    E_solar_sprint)`` pair of two eq. (12) setups on the bench-scale
    47 uF node at the demo's dimmed light: ``fig11b`` starts at the
    full-sun MPP voltage, as that figure does, and ``test_sprint`` at
    1.2 V, as the sprint unit test does.  A change to the sprint
    integration then shows up in joules, not only in the headline ratio.
    """
    from repro.core.sprint import SprintScheduler
    from repro.core.system import paper_system
    from repro.experiments.fig9_sprint import ANALYTIC_CAPACITANCE_F
    from repro.experiments.headline import headline_claims
    from repro.processor.workloads import image_frame_workload

    scheduler = SprintScheduler(
        paper_system(node_capacitance_f=ANALYTIC_CAPACITANCE_F),
        "buck",
        sprint_factor=0.2,
    )
    starts = {"fig11b": paper_system().mpp(1.0).voltage_v, "test_sprint": 1.2}
    analytic = {}
    for name, v_start in starts.items():
        constant, sprint = scheduler.analytic_extra_solar_energy(
            image_frame_workload(10e-3), 0.35, v_start
        )
        analytic[name] = {
            "v_start": v_start,
            "solar_constant_j": constant,
            "solar_sprint_j": sprint,
        }
    return {
        "claims": asdict(headline_claims()),
        "analytic_extra_solar_energy": analytic,
    }


def fig6_trace_payload() -> str:
    """JSONL telemetry trace of a short run at the Fig. 6 best point.

    The system holds the holistic-performance operating point (the
    Fig. 6 result) under full sun with a workload sized to finish
    mid-run, so the trace pins the engine span, the completion event,
    the regulated->halt mode switch and the end-of-run metrics.
    Returned as the exact JSONL *text* -- the fixture regression
    parses it line by line.
    """
    from repro.core.policies import Policy
    from repro.core.scheduler import HolisticEnergyManager
    from repro.core.system import paper_system
    from repro.processor.workloads import Workload
    from repro.pv.traces import constant_trace
    from repro.sim.engine import SimulationConfig, TransientSimulator
    from repro.telemetry import TelemetrySession, to_jsonl

    system = paper_system()
    manager = HolisticEnergyManager(system, regulator_name="sc")
    plan = manager.plan(Policy.HOLISTIC_PERFORMANCE, irradiance=1.0)
    point = plan.operating_point
    assert point is not None
    workload = Workload(
        name="golden", cycles=int(point.frequency_hz * 5e-3)
    )
    session = TelemetrySession()
    simulator = TransientSimulator(
        cell=system.cell,
        node_capacitor=system.new_node_capacitor(point.node_voltage_v),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=manager.controller(plan, workload=workload),
        workload=workload,
        config=SimulationConfig(time_step_s=1e-5, stop_on_brownout=False),
        telemetry=session,
    )
    simulator.run(constant_trace(1.0, 10e-3))
    return to_jsonl(session.tracer, session.metrics.as_dict())


#: fixture file name -> builder
PAYLOADS = {
    "fig6_operating_points.json": fig6_payload,
    "fig8_reference.json": fig8_reference_payload,
    "transient_campaign.json": campaign_payload,
    "fleet_16node.json": fleet_16node_payload,
    "pv_current_reference.json": pv_current_reference_payload,
    "bounded_minimize_reference.json": bounded_minimize_reference_payload,
    "planner_receding_reference.json": planner_receding_reference_payload,
    "headline_claims.json": headline_claims_payload,
}

#: fixture file name -> builder returning verbatim text (JSONL traces);
#: regenerated by the same ``python -m tests.golden.regen`` hook.
TEXT_PAYLOADS = {
    "fig6_trace.jsonl": fig6_trace_payload,
}
