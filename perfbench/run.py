"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload holistic-campaign --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer breakdown of a separate traced run.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output passed its checks; without
the program's sources it is 2 and nothing is printed.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

from calibrate import REFERENCE_S, Section, speed
from layers import TIMED_LAYERS, LayerTracer, install, install_lane_probe
from workloads import WORKLOAD_NAMES, make_workloads, no_span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPS = 5
SUBPROCESS_TIMEOUT_S = 120


def metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def parse_args(argv: "List[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(reps: int = SETUP_REPS) -> Dict[str, float]:
    """Median set-up of fresh interpreters: start, ``import repro``, characterize.

    Byte-compiles the package first, so the first run in a fresh
    checkout times the same warm ``.pyc`` state as every later run.
    Each interpreter's set-up time is in reference seconds (see
    ``calibrate.py``), with the host speed measured just before and just
    after it; the import and characterize parts are host seconds.
    """
    env = _env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
                   env=env, check=True, timeout=SUBPROCESS_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    kernel_before, _ = speed()
    samples: List[Tuple[float, float, float]] = []
    for _ in range(reps):
        started = time.monotonic()
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], env=env,
                              check=True, timeout=SUBPROCESS_TIMEOUT_S,
                              capture_output=True, text=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        kernel_after, _ = speed()
        setup_s = ((probe["done"] - started) * 2.0 * REFERENCE_S
                   / (kernel_before + kernel_after))
        samples.append((setup_s, probe["import_s"], probe["characterize_s"]))
        kernel_before = kernel_after
    return {
        "setup_s": statistics.median(s[0] for s in samples),
        "import.s": statistics.median(s[1] for s in samples),
        "parallel.cache.characterize_s": statistics.median(s[2] for s in samples),
    }


class Tally:
    """Checks over every call: units attempted/passed, problems, repeat digests."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.attempted = 0
        self.passed = 0
        self.problems: List[str] = []
        self.digests: Dict[Any, str] = {}
        self.first_outputs: Dict[Any, Any] = {}

    def fail(self, units: int, problem: str) -> None:
        self.attempted += units
        self.problems.append(problem)

    def add(self, inp: Any, output: Any) -> None:
        check = self.workload.check(inp, output)
        self.attempted += check.attempted
        self.passed += check.passed
        self.problems.extend(check.problems)
        digest = self.workload.digest(output)
        if inp not in self.digests:
            self.digests[inp] = digest
            self.first_outputs[inp] = output
        elif self.digests[inp] != digest:
            self.problems.append(f"input {inp!r}: repeated call gave different outputs")

    @property
    def correct(self) -> bool:
        return not self.problems and self.passed == self.attempted


def _timed_call(workload: Any, inp: Any, span: Any = no_span) -> Tuple[Any, float, float]:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    output = workload.call(inp, span)
    return output, time.perf_counter() - wall0, time.process_time() - cpu0


def _mean_of_medians(per_input: Dict[Any, List[float]]) -> float:
    """Mean over the inputs that ran of each input's median call."""
    return statistics.fmean(statistics.median(calls) for calls in per_input.values() if calls)


def run_untraced(workload: Any, inputs: List[Any], seconds: float,
                 tally: Tally) -> Dict[str, float]:
    """Cycle through the inputs until the next call would overrun ``seconds``.

    Every input runs at least once; the sim.* metrics use each distinct
    input once, so they do not depend on how many calls fit.  Each
    call's host seconds are turned into reference seconds with the
    host speed sampled during it.  ``wall_s`` and ``cpu_s`` weigh every
    input equally, however many calls it got.
    """
    walls: Dict[Any, List[float]] = {inp: [] for inp in inputs}
    cpus: Dict[Any, List[float]] = {inp: [] for inp in inputs}
    host_walls: List[float] = []
    deadline = time.perf_counter() + seconds
    calls = 0
    while True:
        inp = inputs[calls % len(inputs)]
        calls += 1
        try:
            with Section() as section:
                output = workload.call(inp)
        except Exception:
            traceback.print_exc()
            tally.fail(workload.units_per_call, f"input {inp!r}: call raised")
            break
        host_walls.append(section.wall_s)
        wall, cpu = section.reference_s()
        walls[inp].append(wall)
        cpus[inp].append(cpu)
        tally.add(inp, output)
        if (calls >= len(inputs)
                and time.perf_counter() + statistics.median(host_walls) > deadline):
            break
    if not host_walls:
        return {}
    print(f"{len(host_walls)} calls; host wall median {statistics.median(host_walls):.4f} s; "
          f"reference wall median {statistics.median(sum(walls.values(), [])):.4f} s",
          file=sys.stderr)
    distinct = [tally.first_outputs[inp] for inp in inputs if inp in tally.first_outputs]
    metrics = {
        "wall_s": _mean_of_medians(walls),
        "cpu_s": _mean_of_medians(cpus),
        "runs_per_s": (workload.units_per_call * len(host_walls)
                       / sum(sum(calls) for calls in walls.values())),
    }
    if len(distinct) == len(inputs):
        metrics.update(workload.sim_metrics(distinct))
        metrics["paper_err_pp"] = workload.paper_err_pp(distinct)
    return metrics


def run_traced(workload: Any, inputs: List[Any], seconds: float, tally: Tally,
               inclusive_keys: List[str]) -> Dict[str, float]:
    """Alternate untraced and traced calls on the first input.

    Every pair repeats the same input, so per-call counts repeat exactly
    and the traced outputs can be compared bit for bit with the
    untraced ones.  Reported values are per call, averaged over pairs.
    """
    inp = inputs[0]
    untraced_walls: List[float] = []
    tracers: List[LayerTracer] = []
    traced_walls: List[float] = []
    kernel_before, _ = speed()
    deadline = time.perf_counter() + seconds
    while True:
        probe = LayerTracer()
        patches = install_lane_probe(probe)
        try:
            output, wall, _ = _timed_call(workload, inp)
        finally:
            patches.restore()
        untraced_walls.append(wall)
        tally.add(inp, output)
        tracer = LayerTracer()
        patches = install(tracer)
        try:
            output, wall, _ = _timed_call(workload, inp, tracer.span)
        finally:
            patches.restore()
        traced_walls.append(wall)
        tracers.append(tracer)
        tally.add(inp, output)  # must match the untraced output bit for bit
        for key in ("fleet.lanes.vectorized", "fleet.lanes.fallback"):
            if probe.counters[key] != tracer.counters[key]:
                tally.problems.append(f"tracing changed {key}: "
                                      f"{probe.counters[key]} -> {tracer.counters[key]}")
        if (tracer.calls, tracer.counters) != (tracers[0].calls, tracers[0].counters):
            tally.problems.append("per-call counts differ between repeats of one input")
        if time.perf_counter() + wall + untraced_walls[-1] > deadline:
            break

    kernel_after, _ = speed()
    n = len(tracers)
    first = tracers[0]
    metrics: Dict[str, float] = {"host.kernel_s": (kernel_before + kernel_after) / 2.0}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = sum(t.self_s[layer] for t in tracers) / n
    for layer in ("core.operating_point.best_point", "pv.cell.current", "pv.mpp.find_mpp",
                  "planner.dp.solve_plan", "sim.engine.run",
                  "processor.voltage_for_frequency"):
        metrics[f"{layer}.calls"] = first.calls[layer]
    lookups = first.calls["core.mppt"]
    metrics["core.mppt.lookups"] = lookups
    metrics["core.mppt.memo_hit_ratio"] = (
        1.0 - first.counters["core.mppt.misses"] / lookups if lookups else 0.0
    )
    for key in ("fleet.lanes.vectorized", "fleet.lanes.fallback", "sim.engine.steps"):
        metrics[key] = first.counters[key]
    for key in inclusive_keys:
        metrics[key] = sum(t.inclusive_s[key] for t in tracers) / n
    traced_wall = sum(traced_walls) / n
    metrics["trace.wall_s"] = traced_wall
    metrics["other.self_s"] = traced_wall - sum(
        metrics[f"{layer}.self_s"] for layer in TIMED_LAYERS)
    metrics["trace.overhead_frac"] = sum(traced_walls) / sum(untraced_walls) - 1.0
    return metrics


def main(argv: "List[str] | None" = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    setup = measure_setup()
    workload = make_workloads()[args.workload]
    inputs = workload.inputs(args.seed)
    tally = Tally(workload)
    workload.warm()
    try:
        if args.trace:
            inclusive_keys = [name for name in units
                              if name.startswith("experiments.") and name.endswith(".s")]
            metrics = run_traced(workload, inputs, args.seconds, tally, inclusive_keys)
            metrics["import.s"] = setup["import.s"]
            metrics["parallel.cache.characterize_s"] = setup["parallel.cache.characterize_s"]
        else:
            metrics = run_untraced(workload, inputs, args.seconds, tally)
            metrics["setup_s"] = setup["setup_s"]
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["ok_frac"] = tally.passed / tally.attempted if tally.attempted else 0.0
    finally:
        workload.close()
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.attempted - tally.passed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
