"""Steps/s benchmark for the engine hot path.

Times the Fig. 8 MPPT workload (the paper's dim-and-retrack scenario:
full DVFS controller, comparator bank, SC regulator -- the engine's
most representative closed loop) under two solver configurations:

* ``reference`` -- ``SimulationConfig(pv_reference=True)``: the
  pre-optimization engine (two array Newton solves per step, per-step
  scalar trace interpolation, no memoization);
* ``default`` -- the shipping configuration: one cold-started scalar
  Newton solve per step, bit-identical to the reference.

Honest numbers, like the parallel campaign bench: wall time is the
best of ``rounds`` timed runs (after one untimed warm-up that also
builds the MPP LUT cache), and bit-identity between the default and
reference results is *measured* on the actual run outputs rather than
assumed.  ``repro bench`` writes the report as JSON.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
from repro.core.system import EnergyHarvestingSoC
from repro.errors import ModelParameterError
from repro.parallel.cache import characterized_system
from repro.pv.traces import step_trace
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.sim.result import SimulationResult
from repro.telemetry.profiling import Stopwatch

#: Benchmark variants in reporting order.
VARIANTS: Tuple[str, ...] = ("reference", "default")

#: The acceptance target for the default (bit-exact) path.
TARGET_SPEEDUP = 2.0


@dataclass(frozen=True)
class VariantTiming:
    """Wall-clock result of one solver configuration."""

    variant: str
    rounds: int
    steps: int
    best_wall_s: float
    steps_per_s: float


@dataclass(frozen=True)
class HotpathReport:
    """The full benchmark outcome (serialized to BENCH JSON)."""

    workload: str
    time_step_s: float
    duration_s: float
    rounds: int
    smoke: bool
    timings: Tuple[VariantTiming, ...]
    speedup_default: float
    target_speedup: float
    default_bit_identical: bool

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (sorted by the writer)."""
        return {
            "bench": "engine_hotpath",
            "workload": self.workload,
            "time_step_s": self.time_step_s,
            "duration_s": self.duration_s,
            "rounds": self.rounds,
            "smoke": self.smoke,
            "variants": {
                timing.variant: {
                    "steps": timing.steps,
                    "best_wall_s": round(timing.best_wall_s, 6),
                    "steps_per_s": round(timing.steps_per_s, 1),
                }
                for timing in self.timings
            },
            "speedup_default": round(self.speedup_default, 3),
            "target_speedup": self.target_speedup,
            "default_bit_identical": self.default_bit_identical,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }


def _variant_config(variant: str, time_step_s: float) -> SimulationConfig:
    if variant not in VARIANTS:
        raise ModelParameterError(
            f"unknown benchmark variant {variant!r}; expected one of {VARIANTS}"
        )
    return SimulationConfig(
        time_step_s=time_step_s,
        record_every=4,
        stop_on_brownout=False,
        pv_reference=(variant == "reference"),
    )


def _run_fig8_once(
    system: EnergyHarvestingSoC,
    tracker: DischargeTimeMppTracker,
    config: SimulationConfig,
    before: float,
    after: float,
    dim_time_s: float,
    duration_s: float,
) -> Tuple[float, SimulationResult]:
    """One timed Fig. 8 run: fresh controller/capacitor, shared models."""
    controller = MppTrackingController(tracker, initial_irradiance=before)
    capacitor = system.new_node_capacitor(system.mpp(before).voltage_v)
    simulator = TransientSimulator(
        cell=system.cell,
        node_capacitor=capacitor,
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=controller,
        comparators=system.new_comparator_bank(),
        config=config,
    )
    trace = step_trace(before, after, dim_time_s, duration_s)
    watch = Stopwatch()
    result = simulator.run(trace)
    return watch.elapsed_s(), result


def results_bit_identical(a: SimulationResult, b: SimulationResult) -> bool:
    """Exact equality of every recorded array, scalar and event.

    Public because the fleet bench and the differential equivalence
    harness in ``tests/fleet/`` apply the same definition of
    "bit-identical" to fleet-vs-scalar pairs.
    """
    arrays = (
        "time_s",
        "node_voltage_v",
        "processor_voltage_v",
        "frequency_hz",
        "harvest_power_w",
        "processor_power_w",
        "draw_power_w",
        "irradiance",
        "mode",
    )
    if any(
        not np.array_equal(getattr(a, name), getattr(b, name))
        for name in arrays
    ):
        return False
    return (
        a.completed == b.completed
        and a.completion_time_s == b.completion_time_s
        and a.browned_out == b.browned_out
        and a.brownout_time_s == b.brownout_time_s
        and a.brownout_count == b.brownout_count
        and a.downtime_s == b.downtime_s
        and a.final_cycles == b.final_cycles
        and a.events == b.events
    )


def run_hotpath_benchmark(
    rounds: int = 3,
    duration_s: float = 60e-3,
    time_step_s: float = 5e-6,
    smoke: bool = False,
) -> HotpathReport:
    """Benchmark the engine configurations on the Fig. 8 workload.

    ``smoke=True`` shrinks the run for CI gates (shorter trace, fewer
    rounds): the bit-identity claim is still measured on real runs,
    only the wall-clock numbers lose statistical weight.
    """
    if rounds < 1:
        raise ModelParameterError(f"rounds must be >= 1, got {rounds}")
    if smoke:
        duration_s = min(duration_s, 12e-3)
        rounds = min(rounds, 2)
    before, after, dim_time_s = 1.0, 0.3, min(5e-3, duration_s / 3)

    system, _lut = characterized_system()
    tracker = DischargeTimeMppTracker(system, "sc")
    steps = int(np.ceil(duration_s / time_step_s))

    results: Dict[str, SimulationResult] = {}
    timings = []
    for variant in VARIANTS:
        config = _variant_config(variant, time_step_s)
        # Untimed warm-up: builds the MPP LUT cache and warms
        # allocator + branch caches, like the parallel bench.
        _run_fig8_once(
            system, tracker, config, before, after, dim_time_s, duration_s
        )
        best_wall_s = float("inf")
        for _ in range(rounds):
            wall_s, result = _run_fig8_once(
                system, tracker, config, before, after, dim_time_s, duration_s
            )
            best_wall_s = min(best_wall_s, wall_s)
            results[variant] = result
        timings.append(
            VariantTiming(
                variant=variant,
                rounds=rounds,
                steps=steps,
                best_wall_s=best_wall_s,
                steps_per_s=(steps + 1) / best_wall_s,
            )
        )

    by_name = {timing.variant: timing for timing in timings}
    reference, default = results["reference"], results["default"]
    return HotpathReport(
        workload="fig8_mppt",
        time_step_s=time_step_s,
        duration_s=duration_s,
        rounds=rounds,
        smoke=smoke,
        timings=tuple(timings),
        speedup_default=(
            by_name["default"].steps_per_s / by_name["reference"].steps_per_s
        ),
        target_speedup=TARGET_SPEEDUP,
        default_bit_identical=results_bit_identical(reference, default),
    )


def write_report(report: HotpathReport, path: "str | Path") -> Path:
    """Serialize the report as sorted, indented JSON; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    return target
