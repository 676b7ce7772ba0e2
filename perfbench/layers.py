"""Per-layer tracing for the traced run, installed from outside the program.

:class:`LayerTracer` keeps a stack of open spans.  A span's self time is
its duration minus the time of the spans it encloses, so the self times
of all layers inside one timed call, plus the ``other`` residual, add up
to that call's wall time.

:func:`install` wraps each layer's public entry points for the length of
one traced call and :meth:`Patches.restore` puts the originals back.
Methods are wrapped on the class that defines them.  Module functions
are replaced in every ``repro`` module that holds them, because
``from repro.pv.mpp import find_mpp`` binds the function at import time
and patching only the defining module would miss those calls.

No wrapper touches a controller's ``decide``:
``repro.fleet.control.classify_controller`` requires the exact
base-class ``decide``, so wrapping it would push fleet lanes onto the
scalar fallback path and change what is measured.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer names whose self times the traced run reports as ``<layer>.self_s``.
TIMED_LAYERS = (
    "core.operating_point.best_point",
    "core.mppt",
    "pv.cell.current",
    "pv.mpp.find_mpp",
    "planner.forecast.bin_trace",
    "planner.dp.solve_plan",
    "fleet.engine.run",
    "sim.engine.run",
    "parallel.executor",
    "resilience.supervisor",
    "faults.campaign",
    "faults.models",
    "processor.voltage_for_frequency",
    "core.sprint",
    "experiments",
)

#: Public ``SprintScheduler`` methods that make up the ``core.sprint`` layer.
SPRINT_METHODS = (
    "required_source_energy",
    "available_energy",
    "fastest_completion_time",
    "plan",
    "analytic_extra_solar_energy",
    "bypass_energy_extension",
)

#: Public fault-draw builders that make up the ``faults.models`` layer.
FAULT_MODEL_FUNCTIONS = (
    "draw_faults",
    "faulted_system",
    "faulted_trace",
    "faulted_node_capacitor",
    "faulted_comparator_bank",
)

AfterHook = Callable[["LayerTracer", Tuple[Any, ...], Dict[str, Any], Any], None]


class LayerTracer:
    """Self time, inclusive time, call counts and work counters per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[List[Any]] = []  # [layer, seconds spent in child spans]
        self._open: Dict[str, int] = defaultdict(int)

    def is_open(self, layer: str) -> bool:
        return self._open[layer] > 0

    def _enter(self, layer: str) -> float:
        self._stack.append([layer, 0.0])
        self._open[layer] += 1
        return time.perf_counter()

    def _exit(self, layer: str, started: float) -> float:
        elapsed = time.perf_counter() - started
        _, child_s = self._stack.pop()
        self._open[layer] -= 1
        self.self_s[layer] += elapsed - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    @contextmanager
    def span(self, layer: str, inclusive_key: Optional[str] = None) -> Iterator[None]:
        """Time a block as one call of ``layer``."""
        started = self._enter(layer)
        try:
            yield
        finally:
            elapsed = self._exit(layer, started)
            if inclusive_key is not None:
                self.inclusive_s[inclusive_key] += elapsed

    def wrap(self, layer: str, fn: Callable[..., Any],
             after: Optional[AfterHook] = None) -> Callable[..., Any]:
        """``fn`` timed as one call of ``layer``; ``after`` sees its result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            started = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, started)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def method(self, cls: type, name: str, replacement: Callable[..., Any]) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, replacement)
        self._undo.append((cls, name, original))

    def function(self, fn: Callable[..., Any], replacement: Callable[..., Any]) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            names = [name for name, value in vars(module).items() if value is fn]
            for name in names:
                setattr(module, name, replacement)
                self._undo.append((module, name, fn))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _count_memo_miss(tracer: LayerTracer, args: Tuple[Any, ...],
                     kwargs: Dict[str, Any], result: Any) -> None:
    # best_point called while an operating_point_for lookup is open is
    # a memo miss of the MPP tracker.
    if tracer.is_open("core.mppt"):
        tracer.counters["core.mppt.misses"] += 1


def _count_lanes(tracer: LayerTracer, args: Tuple[Any, ...],
                 kwargs: Dict[str, Any], result: Any) -> None:
    summary = args[0].control_summary
    tracer.counters["fleet.lanes.vectorized"] += summary["vectorized"]
    tracer.counters["fleet.lanes.fallback"] += summary["fallback"]


def _count_steps(tracer: LayerTracer, args: Tuple[Any, ...],
                 kwargs: Dict[str, Any], result: Any) -> None:
    # TransientSimulator.run(trace, duration_s=None) plans
    # ceil(duration / dt) + 1 steps; no run in these workloads stops early.
    simulator, trace = args[0], args[1]
    duration_s = kwargs.get("duration_s", args[2] if len(args) > 2 else None)
    if duration_s is None:
        duration_s = trace.duration_s
    steps = math.ceil(duration_s / simulator.config.time_step_s) + 1
    tracer.counters["sim.engine.steps"] += steps


def install(tracer: LayerTracer) -> Patches:
    """Wrap every traced layer's entry points; the caller must restore."""
    import repro.core.sprint as sprint
    import repro.faults.models as fault_models
    from repro.core.mppt import DischargeTimeMppTracker
    from repro.core.operating_point import OperatingPointOptimizer
    from repro.fleet.engine import FleetSimulator
    from repro.parallel.executor import run_sharded
    from repro.planner.dp import solve_plan
    from repro.planner.forecast import bin_trace
    from repro.processor.frequency import FrequencyModel
    from repro.pv.cell import SingleDiodeCell
    from repro.pv.mpp import find_mpp
    from repro.resilience.supervisor import run_supervised
    from repro.sim.engine import TransientSimulator

    patches = Patches()
    wrap = tracer.wrap

    def method(cls: type, name: str, layer: str,
               after: Optional[AfterHook] = None) -> None:
        patches.method(cls, name, wrap(layer, cls.__dict__[name], after))

    def function(fn: Callable[..., Any], layer: str) -> None:
        patches.function(fn, wrap(layer, fn))

    method(OperatingPointOptimizer, "best_point",
           "core.operating_point.best_point", _count_memo_miss)
    method(DischargeTimeMppTracker, "operating_point_for", "core.mppt")
    method(SingleDiodeCell, "current", "pv.cell.current")
    method(FleetSimulator, "run", "fleet.engine.run", _count_lanes)
    method(TransientSimulator, "run", "sim.engine.run", _count_steps)
    method(FrequencyModel, "voltage_for_frequency", "processor.voltage_for_frequency")
    for name in SPRINT_METHODS:
        method(sprint.SprintScheduler, name, "core.sprint")
    function(sprint.min_input_voltage_for_output, "core.sprint")
    for name in FAULT_MODEL_FUNCTIONS:
        function(getattr(fault_models, name), "faults.models")
    function(find_mpp, "pv.mpp.find_mpp")
    function(bin_trace, "planner.forecast.bin_trace")
    function(solve_plan, "planner.dp.solve_plan")
    function(run_sharded, "parallel.executor")
    function(run_supervised, "resilience.supervisor")
    return patches


def install_lane_probe(tracer: LayerTracer) -> Patches:
    """Only the fleet-lane counters, for the untraced side of a pair.

    One extra frame per fleet batch; lets the traced run prove that its
    wrappers left the lane classification unchanged.
    """
    from repro.fleet.engine import FleetSimulator

    original = FleetSimulator.__dict__["run"]

    @functools.wraps(original)
    def probed(*args: Any, **kwargs: Any) -> Any:
        result = original(*args, **kwargs)
        _count_lanes(tracer, args, kwargs, result)
        return result

    patches = Patches()
    patches.method(FleetSimulator, "run", probed)
    return patches
