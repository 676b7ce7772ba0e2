"""Aggregate steps/s benchmark: fleet engine vs N scalar runs.

Times the Fig. 8 MPPT closed loop (full DVFS controller, comparator
bank, SC regulator -- the paper's dim-and-retrack scenario) at batch
sizes 1/16/128/1024: each batch size B is
simulated once through :class:`~repro.fleet.engine.FleetSimulator` and
once as B independent scalar runs, and the report records the
*aggregate* steps/s (B x steps / wall) for both.

Honest numbers, like the other benches: wall time is the best of
``rounds`` timed passes after an untimed warm-up, batch-of-1
bit-identity against the scalar engine is *measured* on the actual
run outputs in-harness rather than assumed, and when the container
cannot reach the 50x aggregate target the shortfall is recorded with
a note instead of being asserted -- exactly how
``BENCH_parallel_campaign.json`` handled its 1-CPU container.  Each
batch entry also records the fleet engine's per-phase wall breakdown
(PV solve / control plane / record / capacitor, via
:class:`~repro.telemetry.profiling.PhaseTimer`) from the best timed
round, so the committed JSON shows *where* the step loop spends its
time, not just the total.  ``repro bench --fleet`` writes the report
as JSON.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
from repro.core.system import EnergyHarvestingSoC
from repro.errors import ModelParameterError
from repro.fleet.engine import FleetNode, FleetSimulator
from repro.parallel.cache import characterized_system
from repro.pv.traces import step_trace
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.sim.result import results_bit_identical
from repro.telemetry.profiling import PhaseTimer, Stopwatch

#: Batch sizes reported, smallest first (1 doubles as the equivalence
#: probe against the scalar engine).
BATCH_SIZES: Tuple[int, ...] = (1, 16, 128, 1024)

#: The aggregate-speedup aspiration at the largest batch.
TARGET_SPEEDUP = 50.0


@dataclass(frozen=True)
class BatchTiming:
    """Wall-clock outcome of one batch size."""

    batch: int
    rounds: int
    steps: int
    fleet_best_wall_s: float
    scalar_best_wall_s: float
    fleet_steps_per_s: float
    scalar_steps_per_s: float
    speedup: float
    #: Per-phase wall seconds of the best fleet round (PV solve /
    #: control plane / record / capacitor; the step-loop phases only,
    #: so they sum to slightly less than ``fleet_best_wall_s`` --
    #: node reset and result assembly are outside the loop).
    fleet_phase_wall_s: Dict[str, float]


@dataclass(frozen=True)
class FleetReport:
    """The full benchmark outcome (serialized to BENCH JSON)."""

    workload: str
    time_step_s: float
    duration_s: float
    rounds: int
    smoke: bool
    timings: Tuple[BatchTiming, ...]
    max_batch: int
    speedup_at_max_batch: float
    target_speedup: float
    speedup_asserted: bool
    note: str
    batch1_bit_identical: bool

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (sorted by the writer)."""
        return {
            "bench": "fleet_engine",
            "workload": self.workload,
            "time_step_s": self.time_step_s,
            "duration_s": self.duration_s,
            "rounds": self.rounds,
            "smoke": self.smoke,
            "batches": {
                str(timing.batch): {
                    "steps": timing.steps,
                    "fleet_best_wall_s": round(timing.fleet_best_wall_s, 6),
                    "scalar_best_wall_s": round(
                        timing.scalar_best_wall_s, 6
                    ),
                    "fleet_steps_per_s": round(timing.fleet_steps_per_s, 1),
                    "scalar_steps_per_s": round(
                        timing.scalar_steps_per_s, 1
                    ),
                    "speedup": round(timing.speedup, 3),
                    "fleet_phase_wall_s": {
                        phase: round(wall, 6)
                        for phase, wall in sorted(
                            timing.fleet_phase_wall_s.items()
                        )
                    },
                }
                for timing in self.timings
            },
            "max_batch": self.max_batch,
            "speedup_at_max_batch": round(self.speedup_at_max_batch, 3),
            "target_speedup": self.target_speedup,
            "speedup_asserted": self.speedup_asserted,
            "note": self.note,
            "batch1_bit_identical": self.batch1_bit_identical,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }


def _scalar_simulator(
    system: EnergyHarvestingSoC,
    tracker: DischargeTimeMppTracker,
    config: SimulationConfig,
    before: float,
) -> TransientSimulator:
    return TransientSimulator(
        cell=system.cell,
        node_capacitor=system.new_node_capacitor(system.mpp(before).voltage_v),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=MppTrackingController(tracker, initial_irradiance=before),
        comparators=system.new_comparator_bank(),
        config=config,
    )


def _fleet_node(
    system: EnergyHarvestingSoC,
    tracker: DischargeTimeMppTracker,
    before: float,
) -> FleetNode:
    return FleetNode(
        cell=system.cell,
        capacitor=system.new_node_capacitor(system.mpp(before).voltage_v),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=MppTrackingController(tracker, initial_irradiance=before),
        comparators=system.new_comparator_bank(),
    )


def run_fleet_benchmark(
    rounds: int = 2,
    duration_s: float = 10e-3,
    time_step_s: float = 10e-6,
    smoke: bool = False,
) -> FleetReport:
    """Benchmark the fleet engine against N scalar runs (see module doc).

    ``smoke=True`` shrinks the run for CI gates (shorter trace, one
    round); the bit-identity claim is still measured on real runs, only
    the wall-clock numbers lose statistical weight.
    """
    if rounds < 1:
        raise ModelParameterError(f"rounds must be >= 1, got {rounds}")
    if smoke:
        duration_s = min(duration_s, 2e-3)
        rounds = 1
    before, after = 1.0, 0.3
    dim_time_s = min(5e-3, duration_s / 3)
    trace = step_trace(before, after, dim_time_s, duration_s)
    system, lut = characterized_system()
    # One memoizing tracker shared by every lane and every scalar run:
    # the tracker's operating-point memo is a pure function of
    # irradiance, so sharing is value-transparent and keeps the timings
    # about the engines, not the LUT warm-up.
    tracker = DischargeTimeMppTracker(system, "sc", lut=lut)
    steps = int(np.ceil(duration_s / time_step_s))
    config = SimulationConfig(
        time_step_s=time_step_s, record_every=4, stop_on_brownout=False
    )

    # In-harness equivalence probe: batch-of-1 vs one scalar run.
    scalar_probe = _scalar_simulator(system, tracker, config, before).run(
        trace
    )
    fleet_probe = FleetSimulator(
        [_fleet_node(system, tracker, before)], config=config
    ).run([trace])[0]
    identical = results_bit_identical(scalar_probe, fleet_probe)

    timings: List[BatchTiming] = []
    for batch in BATCH_SIZES:
        fleet_best = float("inf")
        scalar_best = float("inf")
        phase_wall: Dict[str, float] = {}
        for timed in range(-1, rounds):  # round -1 is the warm-up
            nodes = [
                _fleet_node(system, tracker, before) for _ in range(batch)
            ]
            simulator = FleetSimulator(nodes, config=config)
            simulator.phase_timer = PhaseTimer()
            watch = Stopwatch()
            simulator.run([trace] * batch)
            wall = watch.elapsed_s()
            if timed >= 0 and wall < fleet_best:
                fleet_best = wall
                phase_wall = dict(simulator.phase_timer.phase_wall_s)

            runners = [
                _scalar_simulator(system, tracker, config, before)
                for _ in range(batch)
            ]
            watch = Stopwatch()
            for runner in runners:
                runner.run(trace)
            wall = watch.elapsed_s()
            if timed >= 0:
                scalar_best = min(scalar_best, wall)
        aggregate = batch * (steps + 1)
        timings.append(
            BatchTiming(
                batch=batch,
                rounds=rounds,
                steps=steps,
                fleet_best_wall_s=fleet_best,
                scalar_best_wall_s=scalar_best,
                fleet_steps_per_s=aggregate / fleet_best,
                scalar_steps_per_s=aggregate / scalar_best,
                speedup=scalar_best / fleet_best,
                fleet_phase_wall_s=phase_wall,
            )
        )

    top = timings[-1]
    asserted = top.speedup >= TARGET_SPEEDUP
    if asserted:
        note = (
            f"aggregate speedup {top.speedup:.2f}x at batch {top.batch} "
            f"meets the {TARGET_SPEEDUP:.0f}x target"
        )
    else:
        note = (
            f"aggregate speedup {top.speedup:.2f}x at batch {top.batch} "
            f"below the {TARGET_SPEEDUP:.0f}x aspiration on this "
            "container: the PV solve, capacitor integration and "
            "controller/regulator decisions all batch, but the "
            "per-step Python/numpy dispatch of the masked update "
            "kernels bounds the win (see fleet_phase_wall_s); "
            "recorded honestly, not asserted"
        )
    return FleetReport(
        workload="fig8_mppt",
        time_step_s=time_step_s,
        duration_s=duration_s,
        rounds=rounds,
        smoke=smoke,
        timings=tuple(timings),
        max_batch=top.batch,
        speedup_at_max_batch=top.speedup,
        target_speedup=TARGET_SPEEDUP,
        speedup_asserted=asserted,
        note=note,
        batch1_bit_identical=identical,
    )


def write_report(report: FleetReport, path: "str | Path") -> Path:
    """Serialize the report as sorted, indented JSON; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    return target
