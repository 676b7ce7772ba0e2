"""The transient robustness campaign's one work unit.

:func:`run_transient_campaign <repro.faults.campaign.run_transient_
campaign>` splits its seeds into batches and maps
:func:`transient_batch_task` over them.  Every lane is built by
:func:`~repro.faults.campaign.campaign_lane` (seeded fault draw,
faulted system/trace/capacitor/bank, scheme controller, per-lane
telemetry session) and reduced to its
:class:`~repro.faults.campaign.RunRecord` here, whichever engine runs
it; the engines are bit-identical lane for lane, asserted by
``tests/fleet/``.

The task is module-level and fully determined by picklable arguments,
so batches shard across spawn-safe worker processes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.faults.campaign import (
    CampaignConfig,
    RunRecord,
    _survived,
    campaign_lane,
)
from repro.faults.models import FaultSpec
from repro.fleet.engine import FleetSimulator
from repro.parallel.ids import campaign_run_id
from repro.telemetry.aggregate import run_metric_tuple
from repro.telemetry.session import TelemetrySession


def transient_batch_task(
    seed_batch: Sequence[int],
    *,
    vectorize: bool,
    spec: FaultSpec,
    config: CampaignConfig,
    workload_cycles: int,
    ideal_cycles: float,
    with_metrics: bool,
) -> "List[RunRecord]":
    """Run one batch of seeded campaign runs; one record per seed.

    With ``vectorize`` the batch is one
    :class:`~repro.fleet.engine.FleetSimulator`; without it each lane
    runs its own scalar :class:`~repro.sim.engine.TransientSimulator`.
    With ``with_metrics`` each run gets its own fresh
    :class:`~repro.telemetry.session.TelemetrySession` (sessions are
    not picklable and must not be shared across processes); only the
    flat metric tuple rides back on the record.
    """
    sessions = [
        TelemetrySession() if with_metrics else None for _ in seed_batch
    ]
    lanes = [
        campaign_lane(spec, config, workload_cycles, seed, session)
        for seed, session in zip(seed_batch, sessions)
    ]
    sim_config = config.simulation_config()
    if vectorize:
        results = FleetSimulator(
            [node for _, node, _ in lanes], config=sim_config
        ).run([trace for _, _, trace in lanes], duration_s=config.duration_s)
    else:
        results = [
            node.simulator(sim_config).run(trace, duration_s=config.duration_s)
            for _, node, trace in lanes
        ]
    return [
        RunRecord(
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
                run_metric_tuple(session.metrics)
                if session is not None
                else None
            ),
        )
        for seed, session, result in zip(seed_batch, sessions, results)
    ]
