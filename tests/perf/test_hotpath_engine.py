"""Engine hot path: single solve per step, bit-identity to the reference.

``pv_reference=True`` reruns the pre-optimization loop (array solves,
duplicated brownout-branch power solve, per-step trace interpolation,
no memoization), so every test here is a direct before/after
comparison on real engine runs:

* the default path must match the reference *bit for bit* -- arrays,
  scalars and events -- including through the stop-on-brownout record
  branch whose duplicate solve this PR removed;
* the default path must perform exactly one PV solve per step (counted
  on a wrapped cell), where the reference pays two.
"""

import numpy as np
import pytest

from repro.core.system import paper_system
from repro.perf.benchmark import run_hotpath_benchmark
from repro.processor.workloads import Workload
from repro.pv.traces import constant_trace, step_trace
from repro.sim.dvfs import FixedOperatingPointController
from repro.sim.engine import SimulationConfig, TransientSimulator

RESULT_ARRAYS = (
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


@pytest.fixture(scope="module")
def system():
    return paper_system()


class CountingCell:
    """Wraps a cell and counts solver entry points the engine uses."""

    def __init__(self, cell):
        self._cell = cell
        self.calls = {"current": 0, "power": 0, "current_scalar": 0}

    def current(self, voltage, irradiance=1.0):
        self.calls["current"] += 1
        return self._cell.current(voltage, irradiance)

    def power(self, voltage, irradiance=1.0):
        self.calls["power"] += 1
        return self._cell.power(voltage, irradiance)

    def current_scalar(self, voltage, irradiance=1.0, guess=None):
        self.calls["current_scalar"] += 1
        return self._cell.current_scalar(voltage, irradiance, guess)


def _run(system, trace, cell=None, workload=None, capacitor_v=1.2, **flags):
    simulator = TransientSimulator(
        cell=cell if cell is not None else system.cell,
        node_capacitor=system.new_node_capacitor(capacitor_v),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=FixedOperatingPointController(0.8, 400e6),
        workload=workload,
        config=SimulationConfig(**flags),
    )
    return simulator.run(trace)


def _assert_bit_identical(a, b):
    for name in RESULT_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.completed == b.completed
    assert a.completion_time_s == b.completion_time_s
    assert a.browned_out == b.browned_out
    assert a.brownout_time_s == b.brownout_time_s
    assert a.brownout_count == b.brownout_count
    assert a.downtime_s == b.downtime_s
    assert a.final_cycles == b.final_cycles
    assert a.events == b.events


class TestConfig:
    def test_flags_default_off(self):
        assert not SimulationConfig().pv_reference


class TestBitIdentity:
    def test_steady_run_matches_reference(self, system):
        trace = constant_trace(1.0, 20e-3)
        reference = _run(system, trace, pv_reference=True)
        default = _run(system, trace)
        _assert_bit_identical(reference, default)

    def test_dimming_run_matches_reference(self, system):
        trace = step_trace(1.0, 0.2, 5e-3, 30e-3)
        reference = _run(
            system, trace, stop_on_brownout=False, pv_reference=True
        )
        default = _run(system, trace, stop_on_brownout=False)
        _assert_bit_identical(reference, default)

    def test_stop_on_brownout_record_branch_matches_reference(self, system):
        """Dark discharge ends in the stop-on-brownout record branch --
        the one whose duplicate ``cell.power`` solve was removed; the
        recorded harvest power must still match bit for bit."""
        trace = constant_trace(0.0, 0.2)
        reference = _run(
            system,
            trace,
            workload=Workload("t", 10**9),
            capacitor_v=1.1,
            stop_on_brownout=True,
            pv_reference=True,
        )
        default = _run(
            system,
            trace,
            workload=Workload("t", 10**9),
            capacitor_v=1.1,
            stop_on_brownout=True,
        )
        assert reference.browned_out and default.browned_out
        _assert_bit_identical(reference, default)


class TestSolveCounts:
    def test_default_path_solves_once_per_step(self, system):
        cell = CountingCell(system.cell)
        steps = 200  # 2 ms at the 10 us default step
        _run(system, constant_trace(1.0, 2e-3), cell=cell)
        assert cell.calls["current_scalar"] == steps + 1
        assert cell.calls["current"] == 0
        assert cell.calls["power"] == 0

    def test_reference_path_pays_two_solves_per_step(self, system):
        cell = CountingCell(system.cell)
        steps = 200
        _run(system, constant_trace(1.0, 2e-3), cell=cell, pv_reference=True)
        assert cell.calls["power"] == steps + 1
        assert cell.calls["current"] == steps
        assert cell.calls["current_scalar"] == 0


class TestFig8Workload:
    def test_benchmark_smoke_bit_identity(self):
        report = run_hotpath_benchmark(rounds=1, smoke=True)
        assert report.default_bit_identical
        assert report.speedup_default > 1.0
