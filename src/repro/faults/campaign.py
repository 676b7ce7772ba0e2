"""Monte Carlo robustness campaign.

The fault models in :mod:`repro.faults.models` only matter in
aggregate: one unlucky comparator offset tells you little, but the
*distribution* of outcomes over many seeded draws tells you whether the
paper's energy-management scheme degrades gracefully or falls off a
cliff.  This module fans N seeded fault draws across the transient
simulator (the closed-loop DVFS world) and the intermittent runtime
(the checkpointed charge-burst world) and aggregates:

* survival rate -- the node still doing useful work at the end of the
  run (or having finished its workload) instead of being stuck dark;
* completion rate and completion-time quantiles;
* brownout counts and accumulated downtime under the engine's
  halt-and-recharge recovery semantics;
* throughput relative to an ideal (fault-free) reference run.

Everything is deterministic: the same spec, config and base seed
reproduce bit-identical summaries, run by run.  Campaigns accept a
``workers`` argument: ``workers=1`` is the serial reference path, and
``workers>1`` fans the seeded runs across spawn-safe processes through
:mod:`repro.parallel` -- sharded into chunks, reduced back in seed
order, with the expensive pre-characterization (MPP LUT) memoized once
per worker -- so the aggregate statistics stay **bit-identical** to the
serial path at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
from repro.core.operating_point import OperatingPointOptimizer
from repro.errors import ModelParameterError
from repro.faults.models import (
    FaultDraw,
    FaultSpec,
    draw_faults,
    faulted_comparator_bank,
    faulted_node_capacitor,
    faulted_system,
    faulted_trace,
    ideal_draw,
)
from repro.core.system import EnergyHarvestingSoC
from repro.intermittent.checkpoint import CheckpointStore
from repro.intermittent.runtime import IntermittentRuntime
from repro.intermittent.tasks import Task, TaskChain
from repro.monitor.comparator import ComparatorBank
from repro.monitor.lut import MppLookupTable
from repro.parallel.cache import characterized_system
from repro.parallel.executor import run_sharded
from repro.parallel.ids import campaign_run_id, stable_fingerprint
from repro.parallel.progress import ProgressReporter
from repro.resilience.journal import CampaignJournal
from repro.resilience.records import RunFailure
from repro.resilience.supervisor import ResilienceConfig, run_supervised
from repro.processor.workloads import Workload
from repro.pv.traces import IrradianceTrace, constant_trace, step_trace
from repro.sim.dvfs import DvfsController, FixedOperatingPointController
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.sim.result import SimulationResult
from repro.storage.capacitor import Capacitor
from repro.telemetry.aggregate import (
    MetricTuple,
    aggregate_run_metrics,
    run_metric_tuple,
)
from repro.telemetry.session import Telemetry, TelemetrySession

SCHEMES = ("holistic", "fixed", "planner", "oracle")

#: Slots the planner schemes divide the campaign window into.
PLANNER_SLOTS = 40

#: Campaign engine selectors: ``"auto"`` batches through the fleet
#: engine whenever the execution mode allows it (see
#: :func:`run_transient_campaign`), ``"scalar"`` forces the historical
#: one-run-at-a-time path, ``"fleet"`` requires batching.
ENGINES = ("auto", "scalar", "fleet")

#: Crossover shard size below which ``engine="auto"`` routes to the
#: scalar path: per ``BENCH_fleet_engine.json`` the fleet engine's
#: fixed per-step array overhead makes it *slower* than the scalar
#: loop at tiny batches (well under 1x at batch 1, roughly break-even
#: at batch 16) and the win only compounds beyond that.  Explicit
#: ``engine="fleet"`` always batches regardless (the differential
#: harness runs batch 1 on purpose); ``auto`` is a throughput policy.
FLEET_AUTO_MIN_BATCH = 16


def resolve_engine(
    engine: str,
    runs: int,
    batch_size: int,
    resilience_active: bool = False,
) -> str:
    """The concrete engine (``"fleet"``/``"scalar"``) ``auto`` picks.

    Pure dispatch policy, exposed so tests can pin it: ``auto``
    batches through the fleet engine only when no resilience policy
    forces per-run tasks *and* the effective shard size
    (``min(runs, batch_size)``) reaches the measured crossover
    :data:`FLEET_AUTO_MIN_BATCH`.
    """
    if engine not in ENGINES:
        raise ModelParameterError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    if engine != "auto":
        return engine
    if resilience_active:
        return "scalar"
    if min(runs, batch_size) >= FLEET_AUTO_MIN_BATCH:
        return "fleet"
    return "scalar"


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one robustness campaign.

    The default scenario is the paper's "dimmed light" stress: full sun
    for ``dim_time_s``, then a near-instant step down to ``dim_to``
    suns for the rest of ``duration_s``.  Fault draws perturb the
    comparators, capacitor, converters and light on top of that.
    """

    runs: int = 50
    base_seed: int = 1
    scheme: str = "holistic"
    duration_s: float = 80e-3
    time_step_s: float = 20e-6
    initial_voltage_v: float = 1.2
    recovery_voltage_v: float = 1.05
    bright: float = 1.0
    dim_to: float = 0.35
    dim_time_s: float = 20e-3
    regulator_name: str = "sc"
    workload_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ModelParameterError(f"need at least one run, got {self.runs}")
        if self.scheme not in SCHEMES:
            raise ModelParameterError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}"
            )
        if self.time_step_s <= 0.0:
            raise ModelParameterError(
                f"time step must be positive, got {self.time_step_s}"
            )
        if not 0.0 < self.dim_time_s < self.duration_s:
            raise ModelParameterError(
                f"dim time {self.dim_time_s} must lie inside "
                f"(0, {self.duration_s})"
            )
        if self.bright <= 0.0 or self.dim_to <= 0.0:
            raise ModelParameterError("irradiance levels must be positive")
        if self.initial_voltage_v <= 0.0:
            raise ModelParameterError(
                f"initial voltage must be positive, got "
                f"{self.initial_voltage_v}"
            )
        if self.recovery_voltage_v <= 0.0:
            raise ModelParameterError(
                f"recovery voltage must be positive, got "
                f"{self.recovery_voltage_v}"
            )
        if not 0.0 < self.workload_fraction <= 1.0:
            raise ModelParameterError(
                f"workload fraction must be in (0, 1], got "
                f"{self.workload_fraction}"
            )

    def base_trace(self) -> IrradianceTrace:
        """The un-faulted stress trace every run perturbs."""
        return step_trace(
            self.bright, self.dim_to, self.dim_time_s, self.duration_s
        )


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one faulted transient run.

    ``run_id`` is a pure function of ``(spec, config, seed)`` (see
    :func:`repro.parallel.ids.campaign_run_id`): stable across
    processes and sessions, so it is safe as a replay or cache key.
    """

    seed: int
    run_id: str
    survived: bool
    completed: bool
    completion_time_s: "float | None"
    brownout_count: int
    downtime_s: float
    final_cycles: float
    throughput_ratio: float
    min_node_voltage_v: float
    #: Per-run telemetry metrics (flat, sorted ``(name, value)``
    #: tuple), populated only on telemetry-enabled campaigns.
    metrics: "MetricTuple | None" = None


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate of a transient robustness campaign.

    ``records`` keeps the per-run outcomes for plotting degradation
    curves; everything else is the headline statistics over them.
    Quantile fields are NaN when no run in the relevant subset exists
    (e.g. completion quantiles with zero completions).
    """

    scheme: str
    runs: int
    survival_rate: float
    completion_rate: float
    brownout_run_fraction: float
    mean_brownouts: float
    max_brownouts: int
    total_downtime_s: float
    p50_downtime_s: float
    p90_downtime_s: float
    p50_completion_time_s: float
    p90_completion_time_s: float
    mean_throughput_ratio: float
    min_throughput_ratio: float
    ideal_cycles: float
    ideal_brownout_count: int
    records: "tuple[RunRecord, ...]"
    #: Campaign-level aggregate of the per-run telemetry metrics
    #: (``<name>.sum/.mean/.min/.max/.runs``); ``None`` unless the
    #: campaign ran with a telemetry sink.  Deliberately excluded from
    #: :meth:`as_dict` so golden summaries stay telemetry-agnostic.
    metrics: "MetricTuple | None" = None
    #: Runs quarantined by the supervised executor (empty on the
    #: legacy fail-stop path and on clean campaigns).  Deliberately
    #: excluded from :meth:`as_dict`: golden summaries describe the
    #: completed population, and a clean supervised campaign must stay
    #: byte-identical to an unsupervised one.
    failed_runs: "tuple[RunFailure, ...]" = ()

    @property
    def quarantined(self) -> int:
        """Number of runs that failed permanently (see ``failed_runs``)."""
        return len(self.failed_runs)

    def as_dict(self) -> "dict[str, float]":
        """Flat numeric summary (deterministic; for replay tests/CLI)."""
        return {
            "runs": float(self.runs),
            "survival_rate": self.survival_rate,
            "completion_rate": self.completion_rate,
            "brownout_run_fraction": self.brownout_run_fraction,
            "mean_brownouts": self.mean_brownouts,
            "max_brownouts": float(self.max_brownouts),
            "total_downtime_s": self.total_downtime_s,
            "p50_downtime_s": self.p50_downtime_s,
            "p90_downtime_s": self.p90_downtime_s,
            "p50_completion_time_s": self.p50_completion_time_s,
            "p90_completion_time_s": self.p90_completion_time_s,
            "mean_throughput_ratio": self.mean_throughput_ratio,
            "min_throughput_ratio": self.min_throughput_ratio,
            "ideal_cycles": self.ideal_cycles,
            "ideal_brownout_count": float(self.ideal_brownout_count),
        }


def _make_controller(
    config: CampaignConfig,
    system: EnergyHarvestingSoC,
    lut: MppLookupTable,
    telemetry: "Telemetry | None" = None,
    trace: "IrradianceTrace | None" = None,
    workload: "Workload | None" = None,
) -> DvfsController:
    """Build the scheme's controller against a (possibly faulted) system.

    The planner schemes need the run's own trace (the planner bins it
    into its forecast; the oracle solves the DP on it directly) and
    the workload (for completion/deadline accounting), so campaign
    call sites pass both; the classic schemes ignore them.
    """
    if config.scheme == "holistic":
        tracker = DischargeTimeMppTracker(
            system, config.regulator_name, lut=lut
        )
        return MppTrackingController(
            tracker, config.bright, telemetry=telemetry
        )
    if config.scheme in ("planner", "oracle"):
        from repro.planner.adapter import make_planner_controller
        from repro.planner.dp import PlannerSpec

        if trace is None:
            raise ModelParameterError(
                f"scheme {config.scheme!r} plans over the run's trace; "
                "the campaign must pass it"
            )
        spec = PlannerSpec(slot_s=config.duration_s / PLANNER_SLOTS)
        mode = "receding" if config.scheme == "planner" else "oracle"
        return make_planner_controller(
            system,
            config.regulator_name,
            trace,
            mode=mode,
            spec=spec,
            duration_s=config.duration_s,
            workload=workload,
            initial_voltage_v=config.initial_voltage_v,
            telemetry=telemetry,
        )
    # "fixed": the conventional design -- pick the bright-light optimum
    # at design time and hold it forever.
    point = OperatingPointOptimizer(system).best_point(
        config.regulator_name, config.bright
    )
    return FixedOperatingPointController(
        point.processor_voltage_v, point.frequency_hz
    )


def _one_run(
    config: CampaignConfig,
    system: EnergyHarvestingSoC,
    lut: MppLookupTable,
    trace: IrradianceTrace,
    capacitor: Capacitor,
    bank: ComparatorBank,
    workload: "Workload | None",
    telemetry: "Telemetry | None" = None,
) -> SimulationResult:
    simulator = TransientSimulator(
        cell=system.cell,
        node_capacitor=capacitor,
        processor=system.processor,
        regulator=system.regulator(config.regulator_name),
        controller=_make_controller(
            config, system, lut,
            telemetry=telemetry, trace=trace, workload=workload,
        ),
        comparators=bank,
        workload=workload,
        config=SimulationConfig(
            time_step_s=config.time_step_s,
            stop_on_completion=False,
            stop_on_brownout=False,
            recover_from_brownout=True,
            recovery_voltage_v=config.recovery_voltage_v,
        ),
        telemetry=telemetry,
    )
    return simulator.run(trace, duration_s=config.duration_s)


def _survived(result: SimulationResult, config: CampaignConfig) -> bool:
    """Forward progress at the end: completed, or clocked in the tail.

    "Survival" asks whether the node is still a computer at the end of
    the stress, not whether it met its deadline: a run that browned out
    but recovered and is executing again in the final quarter of the
    window survived; a run stuck dark did not.
    """
    if result.completed:
        return True
    if len(result.time_s) == 0:
        return False
    tail_start = result.time_s[-1] - 0.25 * config.duration_s
    tail = result.time_s >= tail_start
    return bool(np.any(result.frequency_hz[tail] > 0.0))


def _campaign_reference(
    config: CampaignConfig,
) -> "Tuple[Workload, SimulationResult, float]":
    """Size the workload and run the ideal (fault-free) reference.

    Returns ``(workload, ideal_result, ideal_cycles)``.  The probe run
    (no workload) fixes the workload size at ``workload_fraction`` of
    the cycles the ideal system retires over the window; the second
    ideal run with that workload is the throughput denominator.  Uses
    the per-process characterised system, so repeated campaigns in one
    process pay the LUT characterization once.
    """
    base_trace = config.base_trace()
    reference_system, lut = characterized_system()
    comparator_count = len(reference_system.comparator_thresholds_v)
    ideal = ideal_draw(
        seed=config.base_seed, comparator_count=comparator_count
    )
    probe = _one_run(
        config,
        reference_system,
        lut,
        base_trace,
        faulted_node_capacitor(
            reference_system, ideal, config.initial_voltage_v
        ),
        faulted_comparator_bank(reference_system, ideal),
        workload=None,
    )
    if probe.final_cycles <= 0.0:
        raise ModelParameterError(
            "ideal reference run retires no cycles: the campaign scenario "
            "is infeasible even without faults"
        )
    workload = Workload(
        name="campaign",
        cycles=max(1, int(config.workload_fraction * probe.final_cycles)),
    )
    ideal_result = _one_run(
        config,
        reference_system,
        lut,
        base_trace,
        faulted_node_capacitor(
            reference_system, ideal, config.initial_voltage_v
        ),
        faulted_comparator_bank(reference_system, ideal),
        workload=workload,
    )
    return workload, ideal_result, float(ideal_result.final_cycles)


def _faulted_transient_result(
    spec: FaultSpec,
    config: CampaignConfig,
    workload_cycles: int,
    seed: int,
    telemetry: "Telemetry | None" = None,
) -> "Tuple[FaultDraw, SimulationResult]":
    """One faulted run, built exactly as the serial campaign does.

    Module-level and fully determined by its picklable arguments, so it
    serves as the process-pool task: each worker characterises the
    reference system once (per-worker cache) and then executes runs.
    """
    reference_system, lut = characterized_system()
    comparator_count = len(reference_system.comparator_thresholds_v)
    draw = draw_faults(spec, seed, comparator_count=comparator_count)
    system = faulted_system(draw)
    result = _one_run(
        config,
        system,
        lut,
        faulted_trace(config.base_trace(), draw),
        faulted_node_capacitor(system, draw, config.initial_voltage_v),
        faulted_comparator_bank(system, draw),
        workload=Workload(name="campaign", cycles=workload_cycles),
        telemetry=telemetry,
    )
    return draw, result


def _transient_run_task(
    seed: int,
    *,
    spec: FaultSpec,
    config: CampaignConfig,
    workload_cycles: int,
    ideal_cycles: float,
    with_metrics: bool = False,
) -> RunRecord:
    """Execute one seeded run and reduce it to its :class:`RunRecord`.

    With ``with_metrics`` each run gets its own fresh
    :class:`~repro.telemetry.session.TelemetrySession` (sessions are
    not picklable and must not be shared across processes); only the
    flat metric tuple rides back on the record.
    """
    session = TelemetrySession() if with_metrics else None
    _, result = _faulted_transient_result(
        spec, config, workload_cycles, seed, telemetry=session
    )
    return RunRecord(
        seed=seed,
        run_id=campaign_run_id(spec, config, seed),
        survived=_survived(result, config),
        completed=result.completed,
        completion_time_s=result.completion_time_s,
        brownout_count=result.brownout_count,
        downtime_s=result.downtime_s,
        final_cycles=float(result.final_cycles),
        throughput_ratio=float(result.final_cycles) / ideal_cycles,
        min_node_voltage_v=result.min_node_voltage_v(),
        metrics=(
            run_metric_tuple(session.metrics) if session is not None else None
        ),
    )


def _run_seeds(
    task: "partial[object]",
    items: "list",
    resilience: "ResilienceConfig | None",
    journal_label: str,
    spec: FaultSpec,
    config: "CampaignConfig | IntermittentCampaignConfig",
    *,
    workers: int,
    chunk_size: "int | None",
    progress: "ProgressReporter | None",
    telemetry: "Telemetry | None",
) -> "Tuple[list, Tuple[RunFailure, ...]]":
    """Map ``task`` over ``items``; return (results, quarantined runs).

    Without ``resilience`` this is fail-stop :func:`run_sharded`.  With
    it, :func:`run_supervised` retries and quarantines under the policy;
    a ``journal_path`` opens a journal keyed by a
    :func:`~repro.parallel.ids.stable_fingerprint` of ``journal_label``,
    ``spec`` and ``config``, so a journal written for one campaign can
    never be resumed against another.
    """
    if resilience is None:
        results = run_sharded(
            task,
            items,
            workers=workers,
            chunk_size=chunk_size,
            progress=progress,
            telemetry=telemetry,
        )
        return results, ()
    journal = (
        None
        if resilience.journal_path is None
        else CampaignJournal(
            resilience.journal_path,
            stable_fingerprint(journal_label, spec, config),
        )
    )
    outcome = run_supervised(
        task,
        items,
        workers=workers,
        chunk_size=chunk_size,
        policy=resilience.policy,
        journal=journal,
        chaos=resilience.chaos,
        progress=progress,
        telemetry=telemetry,
    )
    if not resilience.partial_results:
        return outcome.require_complete(), ()
    return list(outcome.results), outcome.failures


def run_transient_campaign(
    spec: FaultSpec,
    config: "CampaignConfig | None" = None,
    *,
    workers: int = 1,
    chunk_size: "int | None" = None,
    progress: "ProgressReporter | None" = None,
    telemetry: "Telemetry | None" = None,
    resilience: "ResilienceConfig | None" = None,
    engine: str = "auto",
    batch_size: int = 64,
) -> CampaignSummary:
    """Fan ``config.runs`` seeded fault draws across the simulator.

    One ideal (fault-free) reference run fixes the workload size (at
    ``workload_fraction`` of the cycles the ideal system retires over
    the window) and the throughput denominator; every faulted run then
    gets its own seeded draw, system, capacitor, comparator bank and
    perturbed trace.  The MPP lookup table is characterised once per
    process and shared -- the cell itself is never faulted, light-path
    faults live on the trace.

    ``workers=1`` executes runs serially in-process; ``workers>1``
    shards the seeds across spawn-safe worker processes and reduces
    the records back in seed order, so the summary is bit-identical at
    any worker count (see :mod:`repro.parallel`).  ``chunk_size``
    tunes seeds-per-dispatch; ``progress`` accepts a
    :class:`repro.parallel.progress.ProgressReporter`.

    With an enabled ``telemetry`` sink, every run records its own
    metric snapshot (MPPT retracks, mode switches, brownout outages,
    ...), each snapshot rides back on its :class:`RunRecord`, and the
    seed-ordered fold of :func:`repro.telemetry.aggregate.
    aggregate_run_metrics` lands on ``CampaignSummary.metrics`` --
    bit-identical at any worker count.

    ``resilience`` switches execution to the supervised runtime
    (:func:`repro.resilience.run_supervised`): task failures are
    retried and, once retries are exhausted, quarantined onto
    ``CampaignSummary.failed_runs`` instead of aborting the campaign;
    a ``journal_path`` makes the campaign resumable after interruption
    with a bit-identical summary.  ``None`` (the default) keeps the
    legacy fail-stop path.

    ``engine`` selects the simulation core.  ``"auto"`` (the default)
    batches seeds through the structure-of-arrays fleet engine
    (:mod:`repro.fleet`), falling back to the scalar path under
    ``resilience`` (the supervised runtime retries and quarantines
    *individual* seeds, which requires per-run tasks) or when the
    effective shard size sits below the measured fleet/scalar
    crossover :data:`FLEET_AUTO_MIN_BATCH` (see :func:`resolve_engine`).
    A fleet shard holds ``min(batch_size, ceil(runs / workers))``
    seeds, so every worker gets a batch.  ``"fleet"`` requires
    batching and raises when combined with ``resilience``;
    ``"scalar"`` forces the historical path.  The two
    engines are bit-identical run for run (``tests/fleet/``), so the
    summary does not depend on the choice.
    """
    config = config or CampaignConfig()
    if batch_size < 1:
        raise ModelParameterError(
            f"batch_size must be >= 1, got {batch_size}"
        )
    if engine == "fleet" and resilience is not None:
        raise ModelParameterError(
            "engine='fleet' cannot run under a resilience policy: the "
            "supervised runtime retries/quarantines individual seeds; "
            "use engine='auto' (scalar fallback) or engine='scalar'"
        )
    shard_size = min(batch_size, math.ceil(config.runs / max(1, workers)))
    use_fleet = (
        resolve_engine(
            engine,
            config.runs,
            shard_size,
            resilience_active=resilience is not None,
        )
        == "fleet"
    )
    with_metrics = telemetry is not None and telemetry.enabled
    workload, ideal_result, ideal_cycles = _campaign_reference(config)
    seeds = [config.base_seed + index for index in range(config.runs)]
    if use_fleet:
        from repro.fleet.campaign import fleet_transient_batch_task

        run_task = fleet_transient_batch_task
        items: list = [
            seeds[start:start + shard_size]
            for start in range(0, len(seeds), shard_size)
        ]
    else:
        run_task, items = _transient_run_task, seeds
    task = partial(
        run_task,
        spec=spec,
        config=config,
        workload_cycles=workload.cycles,
        ideal_cycles=ideal_cycles,
        with_metrics=with_metrics,
    )
    results, failed_runs = _run_seeds(
        task,
        items,
        resilience,
        "transient-campaign",
        spec,
        config,
        workers=workers,
        chunk_size=chunk_size,
        progress=progress,
        telemetry=telemetry,
    )
    records = (
        [record for shard in results for record in shard]
        if use_fleet
        else results
    )
    aggregated: "MetricTuple | None" = None
    if with_metrics and telemetry is not None and records:
        aggregated = aggregate_run_metrics([r.metrics for r in records])
        telemetry.count("campaign.runs", float(len(records)))
        telemetry.count(
            "campaign.survivals", float(sum(r.survived for r in records))
        )
        telemetry.count(
            "campaign.completions", float(sum(r.completed for r in records))
        )
    if not records:
        # Every run quarantined: an all-NaN summary that still carries
        # the full failure accounting beats an exception that drops it.
        nan = float("nan")
        return CampaignSummary(
            scheme=config.scheme,
            runs=0,
            survival_rate=nan,
            completion_rate=nan,
            brownout_run_fraction=nan,
            mean_brownouts=nan,
            max_brownouts=0,
            total_downtime_s=0.0,
            p50_downtime_s=nan,
            p90_downtime_s=nan,
            p50_completion_time_s=nan,
            p90_completion_time_s=nan,
            mean_throughput_ratio=nan,
            min_throughput_ratio=nan,
            ideal_cycles=ideal_cycles,
            ideal_brownout_count=ideal_result.brownout_count,
            records=(),
            metrics=aggregated,
            failed_runs=failed_runs,
        )

    n = float(len(records))
    downtimes = np.array([r.downtime_s for r in records])
    throughputs = np.array([r.throughput_ratio for r in records])
    completions = np.array(
        [
            r.completion_time_s
            for r in records
            if r.completed and r.completion_time_s is not None
        ]
    )
    return CampaignSummary(
        scheme=config.scheme,
        runs=len(records),
        survival_rate=sum(r.survived for r in records) / n,
        completion_rate=sum(r.completed for r in records) / n,
        brownout_run_fraction=sum(
            r.brownout_count > 0 for r in records
        ) / n,
        mean_brownouts=float(
            np.mean([r.brownout_count for r in records])
        ),
        max_brownouts=max(r.brownout_count for r in records),
        total_downtime_s=float(np.sum(downtimes)),
        p50_downtime_s=float(np.quantile(downtimes, 0.5)),
        p90_downtime_s=float(np.quantile(downtimes, 0.9)),
        p50_completion_time_s=(
            float(np.quantile(completions, 0.5))
            if len(completions)
            else float("nan")
        ),
        p90_completion_time_s=(
            float(np.quantile(completions, 0.9))
            if len(completions)
            else float("nan")
        ),
        mean_throughput_ratio=float(np.mean(throughputs)),
        min_throughput_ratio=float(np.min(throughputs)),
        ideal_cycles=ideal_cycles,
        ideal_brownout_count=ideal_result.brownout_count,
        records=tuple(records),
        metrics=aggregated,
        failed_runs=failed_runs,
    )


def replay_transient_run(
    spec: FaultSpec,
    config: CampaignConfig,
    seed: int,
    telemetry: "Telemetry | None" = None,
) -> "Tuple[FaultDraw, SimulationResult]":
    """Replay one campaign run and return ``(draw, SimulationResult)``.

    Rebuilds the run exactly as :func:`run_transient_campaign` does
    (same builders, same seeded draw, same workload sizing), but hands
    back the full waveform result so a specific seed's brownout/
    recovery behaviour can be inspected in detail.  ``telemetry``
    instruments the replayed run itself (events, spans, metrics) --
    the natural way to pull a full trace of one interesting seed.
    """
    workload, _, _ = _campaign_reference(config)
    return _faulted_transient_result(
        spec, config, workload.cycles, seed, telemetry=telemetry
    )


# -- intermittent (checkpointed charge-burst) leg -----------------------------


@dataclass(frozen=True)
class IntermittentCampaignConfig:
    """Shape of the intermittent-runtime robustness campaign.

    The scenario: dim steady light (charge-burst regime -- the node
    power-cycles), a short task chain, and a mid-run pause where a
    draw's checkpoint-corruption fault flips one bit in the active
    checkpoint slot's CRC word, exactly as a marginal NVM cell would.
    """

    runs: int = 50
    base_seed: int = 1
    duration_s: float = 0.4
    irradiance: float = 0.12
    task_cycles: int = 3_000_000
    task_count: int = 8
    operating_voltage_v: float = 0.5
    time_step_s: float = 50e-6

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ModelParameterError(f"need at least one run, got {self.runs}")
        if self.duration_s <= 0.0:
            raise ModelParameterError(
                f"duration must be positive, got {self.duration_s}"
            )
        if self.irradiance <= 0.0:
            raise ModelParameterError(
                f"irradiance must be positive, got {self.irradiance}"
            )
        if self.task_cycles < 1 or self.task_count < 1:
            raise ModelParameterError("tasks must have positive size/count")

    def chain(self) -> TaskChain:
        return TaskChain(
            tuple(
                Task(name=f"t{i}", cycles=self.task_cycles)
                for i in range(self.task_count)
            ),
            name="campaign",
        )


@dataclass(frozen=True)
class IntermittentRunRecord:
    """Outcome of one faulted intermittent run.

    ``run_id`` is a pure function of ``(spec, config, seed)``, as for
    :class:`RunRecord`.
    """

    seed: int
    run_id: str
    completed: bool
    tasks_committed: int
    reboots: int
    waste_fraction: float
    corruption_injected: bool
    corruption_detected: int


@dataclass(frozen=True)
class IntermittentCampaignSummary:
    """Aggregate of the intermittent robustness campaign."""

    runs: int
    completion_rate: float
    forward_progress_rate: float
    mean_reboots: float
    mean_waste_fraction: float
    corruptions_injected: int
    corruptions_detected: int
    records: "tuple[IntermittentRunRecord, ...]"
    #: Runs quarantined by the supervised executor; see
    #: :attr:`CampaignSummary.failed_runs` for the semantics (and for
    #: why this is excluded from :meth:`as_dict`).
    failed_runs: "tuple[RunFailure, ...]" = ()

    @property
    def quarantined(self) -> int:
        """Number of runs that failed permanently (see ``failed_runs``)."""
        return len(self.failed_runs)

    def as_dict(self) -> "dict[str, float]":
        return {
            "runs": float(self.runs),
            "completion_rate": self.completion_rate,
            "forward_progress_rate": self.forward_progress_rate,
            "mean_reboots": self.mean_reboots,
            "mean_waste_fraction": self.mean_waste_fraction,
            "corruptions_injected": float(self.corruptions_injected),
            "corruptions_detected": float(self.corruptions_detected),
        }


def _intermittent_run_task(
    seed: int, *, spec: FaultSpec, config: IntermittentCampaignConfig
) -> IntermittentRunRecord:
    """Execute one seeded intermittent run (process-pool task).

    The run executes in two segments sharing one checkpoint store and
    one node capacitor (electrical and progress continuity); between
    the segments, a draw with ``corrupt_checkpoint`` set flips a bit in
    the active slot, so the CRC validation path and prior-slot fallback
    are exercised under real charge-burst execution.
    """
    half = config.duration_s / 2.0
    draw = draw_faults(spec, seed, comparator_count=3)
    system = faulted_system(draw)
    runtime = IntermittentRuntime(
        system,
        config.chain(),
        operating_voltage_v=config.operating_voltage_v,
        time_step_s=config.time_step_s,
    )
    trace = faulted_trace(
        constant_trace(config.irradiance, config.duration_s), draw
    )
    capacitor = faulted_node_capacitor(system, draw, 0.0)
    store = CheckpointStore()
    runtime.run(trace, duration_s=half, store=store, capacitor=capacitor)
    # Corrupt the active slot only once something has committed:
    # with no commit yet the fallback slot is empty, and bricking
    # the factory image models NVM manufacturing loss, not the
    # retention faults this campaign studies.
    injected = draw.corrupt_checkpoint and store.commit_count > 0
    if injected:
        store.inject_bit_flip(bit=draw.seed % 32)
    report = runtime.run(
        trace, duration_s=half, store=store, capacitor=capacitor
    )
    return IntermittentRunRecord(
        seed=seed,
        run_id=campaign_run_id(spec, config, seed),
        completed=report.completed,
        tasks_committed=report.tasks_committed,
        reboots=report.reboots,
        waste_fraction=report.waste_fraction,
        corruption_injected=injected,
        corruption_detected=store.corruption_detected,
    )


def run_intermittent_campaign(
    spec: FaultSpec,
    config: "IntermittentCampaignConfig | None" = None,
    *,
    workers: int = 1,
    chunk_size: "int | None" = None,
    progress: "ProgressReporter | None" = None,
    resilience: "ResilienceConfig | None" = None,
) -> IntermittentCampaignSummary:
    """Fan seeded fault draws across the checkpointed runtime.

    See :func:`_intermittent_run_task` for the per-run scenario and
    :func:`run_transient_campaign` for the ``workers``/``chunk_size``/
    ``progress``/``resilience`` semantics (identical here: seed-ordered
    reduction, bit-identical summaries at any worker count, supervised
    execution with quarantine and journaled resume when ``resilience``
    is given).

    The intermittent runtime is a reboot-driven state machine with
    data-dependent control flow per node, which the structure-of-arrays
    fleet engine does not model, so every run takes the scalar path.
    """
    config = config or IntermittentCampaignConfig()
    records, failed_runs = _run_seeds(
        partial(_intermittent_run_task, spec=spec, config=config),
        [config.base_seed + index for index in range(config.runs)],
        resilience,
        "intermittent-campaign",
        spec,
        config,
        workers=workers,
        chunk_size=chunk_size,
        progress=progress,
        telemetry=None,
    )
    if not records:
        nan = float("nan")
        return IntermittentCampaignSummary(
            runs=0,
            completion_rate=nan,
            forward_progress_rate=nan,
            mean_reboots=nan,
            mean_waste_fraction=nan,
            corruptions_injected=0,
            corruptions_detected=0,
            records=(),
            failed_runs=failed_runs,
        )

    n = float(len(records))
    return IntermittentCampaignSummary(
        runs=len(records),
        completion_rate=sum(r.completed for r in records) / n,
        forward_progress_rate=sum(
            r.tasks_committed > 0 for r in records
        ) / n,
        mean_reboots=float(np.mean([r.reboots for r in records])),
        mean_waste_fraction=float(
            np.mean([r.waste_fraction for r in records])
        ),
        corruptions_injected=sum(r.corruption_injected for r in records),
        corruptions_detected=sum(r.corruption_detected for r in records),
        records=tuple(records),
        failed_runs=failed_runs,
    )
