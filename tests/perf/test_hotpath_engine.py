"""Engine hot path: one PV solve per step, bit-identity to the reference.

The scalar engine evaluates the harvester once per step --
``pv_current(v_node, irr)``, with the power derived as ``v * i`` --
and a cell that has a scalar solver is called through it alone.  The
solve count is pinned here on a wrapped cell.

That the single solve changes no recorded value is pinned against
``tests/golden/fig8_reference.json``, frozen from the historical
two-solve reference loop (array PV solves, a duplicate ``cell.power``
solve in the stop-on-brownout record branch, per-step trace lookup,
no decision memo).  ``TestBitIdentity`` reruns three of its scenarios
on the default engine and requires every recorded scalar, event and
array summary to be *equal* to the frozen one -- no tolerance, as the
old in-process comparison had none.  The golden-regression test checks
the same fixture at its cross-platform tolerance; the solver itself is
pinned against the frozen per-point reference in
``test_scalar_fastpath.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.system import paper_system
from repro.processor.workloads import Workload
from repro.pv.traces import constant_trace, step_trace
from repro.sim.dvfs import FixedOperatingPointController
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.sim.result import results_bit_identical
from tests.golden.builders import result_payload

FIG8_REFERENCE = (
    Path(__file__).resolve().parent.parent / "golden" / "fig8_reference.json"
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

    def current_scalar(self, voltage, irradiance=1.0):
        self.calls["current_scalar"] += 1
        return self._cell.current_scalar(voltage, irradiance)


@pytest.fixture(scope="module")
def reference_runs():
    return json.loads(FIG8_REFERENCE.read_text())


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


def _assert_matches_reference(reference_runs, name, result):
    """Exact comparison; JSON round-trips every float64 bit for bit."""
    frozen = reference_runs[name]
    fresh = json.loads(json.dumps(result_payload(result)))
    assert sorted(fresh) == sorted(frozen)
    assert sorted(fresh["arrays"]) == sorted(frozen["arrays"])
    for array, summary in frozen["arrays"].items():
        assert fresh["arrays"][array] == summary, array
    for key in frozen:
        if key != "arrays":
            assert fresh[key] == frozen[key], key


class TestBitIdentity:
    def test_steady_run_matches_reference(self, system, reference_runs):
        default = _run(system, constant_trace(1.0, 20e-3))
        _assert_matches_reference(reference_runs, "steady", default)

    def test_dimming_run_matches_reference(self, system, reference_runs):
        default = _run(
            system, step_trace(1.0, 0.2, 5e-3, 30e-3), stop_on_brownout=False
        )
        _assert_matches_reference(reference_runs, "dimming", default)

    def test_stop_on_brownout_record_branch_matches_reference(
        self, system, reference_runs
    ):
        """Dark discharge ends in the stop-on-brownout record branch --
        the one whose duplicate ``cell.power`` solve was removed; the
        recorded harvest power must still match bit for bit."""
        default = _run(
            system,
            constant_trace(0.0, 0.2),
            workload=Workload("t", 10**9),
            capacitor_v=1.1,
            stop_on_brownout=True,
        )
        assert default.browned_out
        assert reference_runs["dark_brownout"]["browned_out"]
        _assert_matches_reference(reference_runs, "dark_brownout", default)


class TestSolveCounts:
    def test_default_path_solves_once_per_step(self, system):
        cell = CountingCell(system.cell)
        steps = 200  # 2 ms at the 10 us default step
        trace = constant_trace(1.0, 2e-3)
        counted = _run(system, trace, cell=cell)
        assert cell.calls["current_scalar"] == steps + 1
        assert cell.calls["current"] == 0
        assert cell.calls["power"] == 0
        # The wrapper only counts: the run is the unwrapped cell's run.
        assert results_bit_identical(counted, _run(system, trace))
