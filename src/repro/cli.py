"""Command-line interface.

Exposes the library's main entry points to a terminal user::

    python -m repro info
    python -m repro plan --policy holistic-performance --irradiance 0.5
    python -m repro mep --regulator sc
    python -m repro throughput --irradiances 1.0 0.5 0.25 0.1
    python -m repro track --dim-to 0.3
    python -m repro sprint --deadline-ms 10 --dim-to 0.35
    python -m repro faults --runs 50 --scheme both
    python -m repro trace fig8 --out fig8_trace.json
    python -m repro bench --planner

Every command builds the paper's demonstration system and prints plain
text tables, so the paper's results are reachable without writing any
Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.errors import ReproError


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand parser that can add its arguments on first parse.

    ``repro lint`` takes its options from :mod:`repro.lint.cli`, which
    imports the whole linter; deferring them to parse time keeps
    ``repro --help`` and every other command from loading it.
    """

    deferred_arguments: "Callable[[argparse.ArgumentParser], None] | None" = None

    def parse_known_args(  # type: ignore[override]
        self,
        args: "Sequence[str] | None" = None,
        namespace: "argparse.Namespace | None" = None,
    ) -> "tuple[argparse.Namespace, list[str]]":
        add = self.deferred_arguments
        if add is not None:
            self.deferred_arguments = None
            add(self)
        return super().parse_known_args(args, namespace)


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core.system import paper_system
    from repro.experiments.report import format_table

    system = paper_system()
    mpp = system.mpp(args.irradiance)
    voc = system.cell.open_circuit_voltage(args.irradiance)
    isc = system.cell.short_circuit_current(args.irradiance)
    rows = [
        ("irradiance (1.0 = full sun)", args.irradiance),
        ("cell Isc [mA]", isc * 1e3),
        ("cell Voc [V]", voc),
        ("cell MPP [mW @ V]", f"{mpp.power_w * 1e3:.2f} @ {mpp.voltage_v:.2f}"),
        ("node capacitance [uF]", system.node_capacitance_f * 1e6),
        ("converters", ", ".join(system.converter_names)),
        (
            "comparator thresholds [V]",
            ", ".join(f"{t:.2f}" for t in system.comparator_thresholds_v),
        ),
        (
            "processor window [V]",
            f"{system.processor.min_operating_v:.2f}-"
            f"{system.processor.max_operating_v:.2f}",
        ),
        (
            "conventional MEP [V]",
            system.processor.conventional_mep().voltage_v,
        ),
    ]
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.policies import Policy
    from repro.core.scheduler import HolisticEnergyManager
    from repro.core.system import paper_system
    from repro.experiments.report import format_table
    from repro.processor.workloads import image_frame_workload

    system = paper_system()
    manager = HolisticEnergyManager(system, regulator_name=args.regulator)
    policies = (
        list(Policy) if args.policy == "all" else [Policy(args.policy)]
    )
    workload = image_frame_workload(args.deadline_ms * 1e-3)
    rows = []
    for policy in policies:
        plan = manager.plan(policy, args.irradiance, workload=workload)
        if plan.sprint_plan is not None:
            sprint = plan.sprint_plan
            rows.append(
                (
                    policy.value,
                    f"{sprint.output_voltage_v:.3f}",
                    f"{sprint.slow_frequency_hz / 1e6:.0f}-"
                    f"{sprint.fast_frequency_hz / 1e6:.0f}",
                    "(sprint)",
                    f"bypass<{sprint.bypass_below_v:.2f}V",
                )
            )
            continue
        point = plan.operating_point
        rows.append(
            (
                policy.value,
                f"{point.processor_voltage_v:.3f}",
                f"{point.frequency_hz / 1e6:.0f}",
                f"{point.delivered_power_w * 1e3:.2f}",
                "bypass" if point.bypassed else plan.regulator_name,
            )
        )
    print(
        format_table(
            ["policy", "Vdd [V]", "clock [MHz]", "P core [mW]", "path"], rows
        )
    )
    return 0


def _cmd_mep(args: argparse.Namespace) -> int:
    from repro.core.mep import HolisticMepOptimizer
    from repro.core.system import paper_system
    from repro.experiments.report import format_table

    system = paper_system()
    optimizer = HolisticMepOptimizer(system)
    comparison = optimizer.compare(args.regulator)
    rows = [
        ("conventional MEP [V]", comparison.conventional.voltage_v),
        (
            "conventional energy/cycle [pJ]",
            comparison.conventional.energy_per_cycle_j * 1e12,
        ),
        ("holistic MEP [V]", comparison.holistic.voltage_v),
        (
            "holistic source energy/cycle [pJ]",
            comparison.holistic.energy_per_cycle_j * 1e12,
        ),
        (
            "conventional MEP through regulator [pJ]",
            comparison.conventional_through_regulator_j * 1e12,
        ),
        ("voltage shift [V]", comparison.voltage_shift_v),
        ("energy saving", f"{comparison.energy_saving_fraction:.1%}"),
    ]
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.experiments.sweep import throughput_sweep

    points = throughput_sweep(
        args.irradiances, args.regulator, workers=args.workers
    )
    rows = []
    for point in points:
        if point.feasible:
            rows.append(
                (
                    point.irradiance,
                    f"{point.jobs_per_second:.1f}",
                    f"{point.duty_fraction:.2f}",
                    f"{point.processor_voltage_v:.2f}",
                    point.path,
                )
            )
        else:
            rows.append((point.irradiance, "0.0", "-", "-", "infeasible"))
    print(
        format_table(
            ["irradiance", "frames/s", "duty", "Vdd [V]", "path"], rows
        )
    )
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    from repro.experiments.fig8_mppt import fig8_mppt_tracking
    from repro.experiments.report import format_table

    result = fig8_mppt_tracking(before=args.from_irr, after=args.dim_to)
    rows = [
        ("true Pin after dim [mW]", result.true_power_w * 1e3),
        ("estimated Pin [mW]", result.estimated_power_w * 1e3),
        ("estimate error", f"{result.estimate_error:.1%}"),
        (
            "reaction latency [ms]",
            (result.reaction_latency_s or float("nan")) * 1e3,
        ),
        ("settled node voltage [V]", result.settled_node_voltage_v),
        ("true MPP voltage [V]", result.true_mpp_voltage_v),
    ]
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_sprint(args: argparse.Namespace) -> int:
    from repro.experiments.fig11_demo import fig11b_sprint_waveform
    from repro.experiments.report import format_table

    demo = fig11b_sprint_waveform(
        deadline_s=args.deadline_ms * 1e-3, dim_to=args.dim_to
    )
    rows = [
        ("bypass extension [ms]", demo.bypass_extension_s * 1e3),
        ("bypass extension", f"{demo.bypass_extension_fraction:+.1%}"),
        ("completed with bypass", demo.completed_with_bypass),
        (
            "completed regulated-only",
            demo.completed_without_bypass_before_stall,
        ),
        (
            "sprint intake gain (first-order)",
            f"{demo.analytic_sprint_energy_gain:+.1%}",
        ),
        (
            "sprint intake gain (closed loop)",
            f"{demo.simulated_sprint_energy_gain:+.1%}",
        ),
    ]
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_admit(args: argparse.Namespace) -> int:
    from repro.core.admission import AdmissionController, PeriodicTask
    from repro.core.system import paper_system
    from repro.experiments.report import format_table
    from repro.processor.workloads import image_frame_workload

    system = paper_system()
    controller = AdmissionController(system, args.regulator, margin=args.margin)
    tasks = [
        PeriodicTask(
            workload=image_frame_workload(None),
            period_s=1.0 / args.frame_rate,
            max_latency_s=min(args.latency_ms * 1e-3, 1.0 / args.frame_rate),
        )
    ]
    report = controller.evaluate(tasks, args.irradiance)
    rows = [
        ("irradiance", args.irradiance),
        ("harvest budget [mW]", report.harvest_power_w * 1e3),
        ("frame rate [1/s]", args.frame_rate),
        ("utilisation", f"{report.total_utilisation:.1%}"),
        ("admitted", report.admitted),
        ("headroom [mW]", report.headroom_w * 1e3),
    ]
    try:
        rows.append(
            ("minimum irradiance", f"{controller.minimum_irradiance(tasks):.3f}")
        )
    except ReproError:
        rows.append(("minimum irradiance", "infeasible at any light"))
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.experiments.report import format_table
    from repro.faults import (
        CampaignConfig,
        FaultSpec,
        IntermittentCampaignConfig,
        run_intermittent_campaign,
        run_transient_campaign,
    )
    from repro.parallel.progress import ProgressReporter

    spec = FaultSpec(
        comparator_offset_sigma_v=args.offset_mv * 1e-3,
        flicker_depth_max=args.flicker_depth,
    )
    schemes = (
        ("holistic", "fixed") if args.scheme == "both" else (args.scheme,)
    )

    def reporter(label: str) -> "ProgressReporter | None":
        if args.quiet or not args.progress:
            return None
        return ProgressReporter(
            sink=lambda line: print(line, file=sys.stderr), label=label
        )

    resilient = (
        args.resume is not None
        or args.max_retries is not None
        or args.run_timeout is not None
    )

    def resilience_for(journal_name: str) -> "object | None":
        """Supervised-execution config, or None for the legacy path."""
        if not resilient:
            return None
        from pathlib import Path

        from repro.resilience import ResilienceConfig, RetryPolicy

        journal_path = None
        if args.resume is not None:
            journal_path = str(Path(args.resume) / f"{journal_name}.jsonl")
        policy = RetryPolicy(
            max_retries=(
                args.max_retries if args.max_retries is not None else 2
            ),
            run_timeout_s=args.run_timeout,
        )
        return ResilienceConfig(policy=policy, journal_path=journal_path)

    def report_quarantine(label: str, summary: "object") -> None:
        failures = getattr(summary, "failed_runs", ())
        if failures:
            detail = "; ".join(
                f"seed index {f.index}: {f.kind} after {f.attempts} "
                f"attempt(s) ({f.error})"
                for f in failures
            )
            print(
                f"{label}: {len(failures)} run(s) quarantined -- {detail}",
                file=sys.stderr,
            )

    summaries = {}
    for scheme in schemes:
        config = CampaignConfig(
            runs=args.runs,
            base_seed=args.seed,
            scheme=scheme,
            duration_s=args.duration_ms * 1e-3,
            dim_to=args.dim_to,
        )
        session = None
        if args.telemetry_out:
            from repro.telemetry import TelemetrySession

            session = TelemetrySession()
        summaries[scheme] = run_transient_campaign(
            spec,
            config,
            workers=args.workers,
            chunk_size=args.chunk_size,
            progress=reporter(f"faults[{scheme}]"),
            telemetry=session,
            resilience=resilience_for(f"journal_{scheme}"),
        )
        report_quarantine(f"faults[{scheme}]", summaries[scheme])
    if args.telemetry_out:
        for path in _write_campaign_telemetry(
            args.telemetry_out, schemes, summaries
        ):
            print(f"wrote {path}")
    keys = list(next(iter(summaries.values())).as_dict())
    rows = [
        tuple([key] + [f"{summaries[s].as_dict()[key]:.4g}" for s in schemes])
        for key in keys
    ]
    print(format_table(["metric"] + list(schemes), rows))

    if args.intermittent:
        inter = run_intermittent_campaign(
            replace(spec, checkpoint_corruption_rate=args.corruption_rate),
            IntermittentCampaignConfig(runs=args.runs, base_seed=args.seed),
            workers=args.workers,
            chunk_size=args.chunk_size,
            progress=reporter("faults[intermittent]"),
            resilience=resilience_for("journal_intermittent"),
        )
        report_quarantine("faults[intermittent]", inter)
        rows = [
            (key, f"{value:.4g}")
            for key, value in inter.as_dict().items()
        ]
        print()
        print(format_table(["intermittent metric", "value"], rows))
    return 0


def _write_campaign_telemetry(
    out_dir: str, schemes: "tuple[str, ...]", summaries: dict
) -> "list[str]":
    """Write per-scheme campaign metrics JSON files; returns the paths.

    Each file holds the campaign aggregate plus the per-run metric
    snapshots keyed by ``run_id``.  Only the deterministic sim-derived
    metrics are written (never wall-clock profiling), so the files are
    byte-identical at any ``--workers`` count.
    """
    import json
    from pathlib import Path

    from repro.telemetry.aggregate import metrics_tuple_as_dict

    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for scheme in schemes:
        summary = summaries[scheme]
        payload = {
            "scheme": scheme,
            "runs": summary.runs,
            "aggregate": metrics_tuple_as_dict(summary.metrics or ()),
            "per_run": {
                record.run_id: metrics_tuple_as_dict(record.metrics or ())
                for record in summary.records
            },
        }
        path = target / f"{scheme}_metrics.json"
        path.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
        written.append(str(path))
    return written


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.telemetry import TelemetrySession
    from repro.telemetry.export import write_chrome_trace, write_jsonl

    session = TelemetrySession()
    if args.scenario == "fig8":
        from repro.experiments.fig8_mppt import fig8_mppt_tracking

        fig8_mppt_tracking(after=args.dim_to, telemetry=session)
    elif args.scenario == "sprint":
        from repro.experiments.fig9_sprint import fig9b_sprint_gains

        fig9b_sprint_gains(
            deadline_s=args.deadline_ms * 1e-3,
            dim_to=args.dim_to,
            telemetry=session,
        )
    else:  # campaign: replay one seeded faulted run with full tracing
        from repro.faults import FaultSpec, CampaignConfig
        from repro.faults.campaign import replay_transient_run

        spec = FaultSpec(
            comparator_offset_sigma_v=30e-3, flicker_depth_max=0.5
        )
        replay_transient_run(
            spec,
            CampaignConfig(dim_to=args.dim_to),
            args.seed,
            telemetry=session,
        )

    metrics = session.metrics.as_dict()
    trace_path = write_chrome_trace(args.out, session.tracer, metrics)
    print(f"wrote {trace_path}")
    if args.jsonl:
        jsonl_path = write_jsonl(args.jsonl, session.tracer, metrics)
        print(f"wrote {jsonl_path}")
    rows = [
        ("spans", len(session.tracer.spans)),
        ("events", len(session.tracer.events)),
    ] + [(name, f"{value:.6g}") for name, value in sorted(metrics.items())]
    print(format_table(["telemetry", "value"], rows))
    return 0


def _cmd_bench_planner(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.planner.bench import run_planner_benchmark, write_report

    report = run_planner_benchmark()
    path = write_report(report, args.out or "BENCH_planner.json")
    print(f"wrote {path}")
    rows = []
    for scenario in report.scenarios:
        model = scenario.model
        rows.append(
            (
                scenario.name,
                f"{model.oracle_cycles / 1e6:.2f}M",
                f"{model.receding_cycles / 1e6:.2f}M",
                f"{model.greedy_cycles / 1e6:.2f}M",
                str(model.bounds_hold),
                str(sum(leg.deadline_missed for leg in scenario.legs)),
            )
        )
    print(
        format_table(
            [
                "scenario",
                "oracle",
                "receding",
                "greedy",
                "bounds",
                "misses",
            ],
            rows,
        )
    )
    if not report.all_bounds_hold:
        print(
            "error: oracle-bounds chain violated in the model world",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_planner(args: argparse.Namespace) -> int:
    from repro.core.system import paper_system
    from repro.experiments.report import format_table
    from repro.planner import PlannerSpec, bin_trace, build_actions, solve_plan
    from repro.pv.traces import step_trace

    system = paper_system()
    duration_s = args.duration_ms * 1e-3
    trace = step_trace(
        args.bright, args.dim_to, args.dim_ms * 1e-3, duration_s
    )
    spec = PlannerSpec(slot_s=args.slot_ms * 1e-3, levels=args.levels)
    actions, grid = build_actions(system, args.regulator, spec)
    forecast = bin_trace(trace, system, spec.slot_s, duration_s=duration_s)
    initial = 0.5 * system.node_capacitance_f * args.initial_v**2
    plan = solve_plan(
        forecast.income_j, actions, grid, initial, forecast.slot_s
    )
    # Print the schedule compressed into runs of identical actions.
    rows = []
    span_start = 0
    for index in range(1, plan.slots + 1):
        if (
            index < plan.slots
            and plan.steps[index].action is plan.steps[span_start].action
        ):
            continue
        first = plan.steps[span_start]
        rows.append(
            (
                f"{first.start_s * 1e3:.1f}",
                str(index - span_start),
                first.action.name,
                f"{first.energy_before_j * 1e6:.1f}",
                f"{plan.steps[index - 1].cumulative_cycles / 1e6:.2f}M",
            )
        )
        span_start = index
    print(
        format_table(
            ["t [ms]", "slots", "action", "E before [uJ]", "cycles"], rows
        )
    )
    summary = [
        ("expected cycles", f"{plan.expected_cycles / 1e6:.2f}M"),
        ("final energy [uJ]", f"{plan.final_energy_j * 1e6:.1f}"),
        ("grid step [uJ]", f"{grid.step_j * 1e6:.2f}"),
        ("DP cells", f"{plan.cells:,}"),
    ]
    print(format_table(["quantity", "value"], summary))
    return 0


def _add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(parser)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import lint_command

    return lint_command(args)


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.export import FAST_FIGURES, FIGURE_DRIVERS, export_all

    figures = tuple(args.figures) if args.figures else FAST_FIGURES
    unknown = [f for f in figures if f not in FIGURE_DRIVERS]
    if unknown:
        print(
            f"error: unknown figures {unknown}; available: "
            f"{sorted(FIGURE_DRIVERS)}",
            file=sys.stderr,
        )
        return 1
    written = export_all(args.out, figures=figures)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.core.policies import Policy

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Holistic energy management for battery-less "
            "energy-harvesting SoCs (SOCC 2018 reproduction)"
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    p_info = sub.add_parser("info", help="system summary at an irradiance")
    p_info.add_argument("--irradiance", type=float, default=1.0)
    p_info.set_defaults(func=_cmd_info)

    p_plan = sub.add_parser("plan", help="operating plan for a policy")
    p_plan.add_argument(
        "--policy",
        default="all",
        choices=["all"] + [p.value for p in Policy],
    )
    p_plan.add_argument("--irradiance", type=float, default=1.0)
    p_plan.add_argument("--regulator", default="sc",
                        choices=["sc", "buck", "ldo"])
    p_plan.add_argument("--deadline-ms", type=float, default=15.0)
    p_plan.set_defaults(func=_cmd_plan)

    p_mep = sub.add_parser("mep", help="conventional vs holistic MEP")
    p_mep.add_argument("--regulator", default="sc",
                       choices=["sc", "buck", "ldo"])
    p_mep.set_defaults(func=_cmd_mep)

    p_tp = sub.add_parser(
        "throughput", help="sustainable frame rate per irradiance"
    )
    p_tp.add_argument(
        "--irradiances", type=float, nargs="+",
        default=[1.0, 0.5, 0.25, 0.1],
    )
    p_tp.add_argument("--regulator", default="sc",
                      choices=["sc", "buck", "ldo"])
    p_tp.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the irradiance sweep",
    )
    p_tp.set_defaults(func=_cmd_throughput)

    p_track = sub.add_parser(
        "track", help="run the Fig. 8 MPP-tracking scenario"
    )
    p_track.add_argument("--from-irr", type=float, default=1.0)
    p_track.add_argument("--dim-to", type=float, default=0.3)
    p_track.set_defaults(func=_cmd_track)

    p_sprint = sub.add_parser(
        "sprint", help="run the Fig. 11(b) sprint/bypass scenario"
    )
    p_sprint.add_argument("--deadline-ms", type=float, default=10.0)
    p_sprint.add_argument("--dim-to", type=float, default=0.35)
    p_sprint.set_defaults(func=_cmd_sprint)

    p_admit = sub.add_parser(
        "admit", help="energy admission test for a periodic frame rate"
    )
    p_admit.add_argument("--frame-rate", type=float, default=10.0)
    p_admit.add_argument("--latency-ms", type=float, default=25.0)
    p_admit.add_argument("--irradiance", type=float, default=0.5)
    p_admit.add_argument("--margin", type=float, default=0.1)
    p_admit.add_argument("--regulator", default="sc",
                         choices=["sc", "buck", "ldo"])
    p_admit.set_defaults(func=_cmd_admit)

    p_faults = sub.add_parser(
        "faults", help="Monte Carlo fault-injection robustness campaign"
    )
    p_faults.add_argument("--runs", type=int, default=50)
    p_faults.add_argument("--seed", type=int, default=1)
    p_faults.add_argument(
        "--scheme", default="holistic",
        choices=["holistic", "fixed", "planner", "oracle", "both"],
        help="controller scheme ('both' compares holistic vs fixed; "
        "'planner'/'oracle' run the DP energy planner)",
    )
    p_faults.add_argument("--duration-ms", type=float, default=80.0)
    p_faults.add_argument("--dim-to", type=float, default=0.35)
    p_faults.add_argument(
        "--offset-mv", type=float, default=30.0,
        help="comparator offset sigma [mV]",
    )
    p_faults.add_argument(
        "--flicker-depth", type=float, default=0.5,
        help="maximum light flicker depth (0..1)",
    )
    p_faults.add_argument(
        "--intermittent", action="store_true",
        help="also run the checkpointed intermittent-runtime campaign",
    )
    p_faults.add_argument(
        "--corruption-rate", type=float, default=0.5,
        help="checkpoint bit-flip probability for --intermittent",
    )
    p_faults.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the campaign (1 = serial; results "
        "are bit-identical at any worker count)",
    )
    p_faults.add_argument(
        "--chunk-size", type=int, default=None,
        help="seed batches per worker dispatch; a batch is one seed "
        "unless the fleet engine runs it (default: auto load-balance)",
    )
    p_faults.add_argument(
        "--progress", action="store_true",
        help="report runs/s, ETA and worker utilization on stderr",
    )
    p_faults.add_argument(
        "--quiet", action="store_true",
        help="suppress progress reporting (overrides --progress)",
    )
    p_faults.add_argument(
        "--telemetry-out", default=None, metavar="DIR",
        help="record per-run telemetry metrics and write per-scheme "
        "aggregate JSON files into DIR",
    )
    p_faults.add_argument(
        "--resume", default=None, metavar="DIR",
        help="journal completed runs into DIR and resume from it after "
        "an interruption (summaries are bit-identical to an "
        "uninterrupted campaign); enables supervised execution",
    )
    p_faults.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="re-dispatch a failing run up to N times before "
        "quarantining it (default 2); enables supervised execution",
    )
    p_faults.add_argument(
        "--run-timeout", type=float, default=None, metavar="S",
        help="per-run watchdog deadline in seconds -- a hung worker is "
        "killed and its runs re-dispatched; enables supervised "
        "execution",
    )
    p_faults.set_defaults(func=_cmd_faults)

    p_trace = sub.add_parser(
        "trace",
        help="run an instrumented scenario and export its telemetry "
        "trace (Chrome trace-event JSON, optional JSONL)",
    )
    p_trace.add_argument(
        "scenario", choices=["fig8", "sprint", "campaign"],
        help="fig8 = MPP-tracking dim, sprint = Fig. 9(b) deadline "
        "sprint, campaign = replay one faulted campaign seed",
    )
    p_trace.add_argument(
        "--out", default="trace.json",
        help="Chrome trace-event JSON output path (chrome://tracing "
        "or ui.perfetto.dev)",
    )
    p_trace.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the JSONL event log here",
    )
    p_trace.add_argument("--dim-to", type=float, default=0.3)
    p_trace.add_argument("--deadline-ms", type=float, default=10.0)
    p_trace.add_argument(
        "--seed", type=int, default=1,
        help="campaign seed to replay (scenario=campaign)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the DP energy planner (--planner)",
    )
    p_bench.add_argument(
        "--planner", action="store_true", required=True,
        help="benchmark the DP energy planner: planned vs paper "
        "heuristic vs oracle across the scenario matrix "
        "(writes BENCH_planner.json)",
    )
    p_bench.add_argument(
        "--out", default=None,
        help="report JSON output path (default: BENCH_planner.json)",
    )
    p_bench.set_defaults(func=_cmd_bench_planner)

    p_planner = sub.add_parser(
        "planner",
        help="solve and print a DP energy schedule for a dim-step scenario",
    )
    p_planner.add_argument(
        "--bright", type=float, default=0.35,
        help="irradiance before the dim step [suns]",
    )
    p_planner.add_argument(
        "--dim-to", type=float, default=0.12,
        help="irradiance after the dim step [suns]",
    )
    p_planner.add_argument(
        "--dim-ms", type=float, default=24.0,
        help="time of the dim step [ms]",
    )
    p_planner.add_argument("--duration-ms", type=float, default=80.0)
    p_planner.add_argument(
        "--slot-ms", type=float, default=2.0, help="DP slot width [ms]"
    )
    p_planner.add_argument(
        "--levels", type=int, default=192,
        help="stored-energy grid resolution",
    )
    p_planner.add_argument("--initial-v", type=float, default=1.2)
    p_planner.add_argument("--regulator", default="sc")
    p_planner.set_defaults(func=_cmd_planner)

    p_lint = sub.add_parser(
        "lint",
        help="domain-aware static analysis (determinism, units, spawn-safety)",
    )
    p_lint.deferred_arguments = _add_lint_arguments
    p_lint.set_defaults(func=_cmd_lint)

    p_figures = sub.add_parser(
        "figures", help="export figure data as JSON for plotting"
    )
    p_figures.add_argument("--out", default="figures-json")
    p_figures.add_argument(
        "--figures", nargs="*",
        help="figure ids (default: all non-transient figures)",
    )
    p_figures.set_defaults(func=_cmd_figures)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
