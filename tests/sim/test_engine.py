"""Tests for the transient simulation engine."""

import numpy as np
import pytest

from repro.core.system import paper_system
from repro.errors import ModelParameterError, SimulationError
from repro.monitor.comparator import ComparatorBank
from repro.processor.workloads import Workload
from repro.pv.mpp import find_mpp
from repro.pv.traces import constant_trace, step_trace
from repro.sim.dvfs import (
    BypassController,
    ConstantSpeedController,
    ControlDecision,
    DvfsController,
    FixedOperatingPointController,
)
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.sim.transitions import DISCRETE_TRANSITIONS
from repro.units import micro_seconds


@pytest.fixture(scope="module")
def system():
    return paper_system()


def make_sim(system, controller, capacitor=None, workload=None, comparators=None,
             transitions=None, cell=None, **config):
    return TransientSimulator(
        cell=cell or system.cell,
        node_capacitor=capacitor or system.new_node_capacitor(1.2),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=controller,
        comparators=comparators,
        workload=workload,
        config=SimulationConfig(**config) if config else SimulationConfig(),
        transitions=transitions,
    )


class TestConfig:
    def test_rejects_nonpositive_step(self):
        with pytest.raises(ModelParameterError):
            SimulationConfig(time_step_s=0.0)

    def test_rejects_bad_record_every(self):
        with pytest.raises(ModelParameterError):
            SimulationConfig(record_every=0)


class TestSteadyState:
    def test_light_load_node_rises_to_equilibrium(self, system):
        """A light load leaves harvest surplus: the node climbs above
        the MPP voltage toward (but never beyond) open circuit."""
        controller = FixedOperatingPointController(0.5, 50e6)
        sim = make_sim(system, controller)
        result = sim.run(constant_trace(1.0, 0.03))
        voc = system.cell.open_circuit_voltage(1.0)
        assert result.node_voltage_v[-1] > find_mpp(system.cell, 1.0).voltage_v
        assert result.node_voltage_v[-1] < voc + 1e-3

    def test_heavy_load_discharges_node(self, system):
        controller = FixedOperatingPointController(0.8, 900e6)
        sim = make_sim(system, controller, config=None) if False else make_sim(
            system, controller
        )
        result = sim.run(constant_trace(0.25, 0.02))
        assert result.node_voltage_v[-1] < result.node_voltage_v[0]

    def test_energy_conservation(self, system):
        """Harvested = delivered + converter loss + capacitor swing
        (within integration tolerance)."""
        controller = FixedOperatingPointController(0.55, 300e6)
        capacitor = system.new_node_capacitor(1.2)
        e_start = capacitor.energy_j
        sim = make_sim(system, controller, capacitor=capacitor)
        result = sim.run(constant_trace(1.0, 0.02))
        e_end = capacitor.energy_j
        lhs = result.harvested_energy_j() + (e_start - e_end)
        rhs = result.consumed_energy_j() + result.conversion_loss_j()
        assert lhs == pytest.approx(rhs, rel=0.02)

    def test_frequency_clamped_to_supply_capability(self, system):
        controller = FixedOperatingPointController(0.4, 10e9)  # absurd clock
        sim = make_sim(system, controller)
        result = sim.run(constant_trace(1.0, 0.005))
        f_max = float(system.processor.max_frequency(0.4))
        assert result.frequency_hz.max() <= f_max * (1.0 + 1e-9)


class TestWorkloadTracking:
    def test_completion_time_matches_cycles_over_frequency(self, system):
        workload = Workload("t", 1_000_000)
        controller = ConstantSpeedController(0.55, 100e6, workload.cycles)
        sim = make_sim(system, controller, workload=workload)
        result = sim.run(constant_trace(1.0, 0.05))
        assert result.completed
        assert result.completion_time_s == pytest.approx(10e-3, rel=0.01)

    def test_stop_on_completion(self, system):
        workload = Workload("t", 1_000_000)
        controller = ConstantSpeedController(0.55, 100e6, workload.cycles)
        sim = make_sim(
            system,
            controller,
            workload=workload,
            time_step_s=10e-6,
            stop_on_completion=True,
        )
        result = sim.run(constant_trace(1.0, 0.05))
        assert result.completed
        assert result.time_s[-1] < 0.02

    def test_final_cycles_accumulate(self, system):
        controller = FixedOperatingPointController(0.55, 100e6)
        sim = make_sim(system, controller)
        result = sim.run(constant_trace(1.0, 0.01))
        assert result.final_cycles == pytest.approx(1e6, rel=0.01)


class TestBypassMode:
    def test_bypass_pins_processor_to_node(self, system):
        controller = BypassController(lambda v: 50e6)
        sim = make_sim(system, controller)
        result = sim.run(constant_trace(1.0, 0.01))
        np.testing.assert_allclose(
            result.processor_voltage_v, result.node_voltage_v, atol=1e-12
        )
        assert result.time_in_mode("bypass") > 0.0


class TestBrownout:
    def test_dropout_on_dark_discharge(self, system):
        """In darkness, a regulated heavy load drags the node below the
        converter's minimum input: the engine records a brownout."""
        controller = FixedOperatingPointController(0.8, 900e6)
        capacitor = system.new_node_capacitor(1.1)
        sim = make_sim(
            system,
            controller,
            capacitor=capacitor,
            workload=Workload("t", 10**9),
            stop_on_brownout=True,
        )
        result = sim.run(constant_trace(0.0, 0.2))
        assert result.browned_out
        assert result.brownout_time_s is not None
        assert ("brownout", result.brownout_time_s) in result.events

    def test_no_stop_when_configured(self, system):
        controller = FixedOperatingPointController(0.8, 900e6)
        sim = make_sim(
            system,
            controller,
            capacitor=system.new_node_capacitor(1.1),
            workload=Workload("t", 10**9),
            stop_on_brownout=False,
        )
        result = sim.run(constant_trace(0.0, 0.05))
        assert result.browned_out
        assert result.duration_s == pytest.approx(0.05, rel=0.01)


class TestComparatorsInLoop:
    def test_crossings_recorded_during_dimming(self, system):
        bank = ComparatorBank([1.1, 1.0, 0.9])
        controller = FixedOperatingPointController(0.6, 600e6)
        sim = make_sim(system, controller, comparators=bank)
        sim.run(step_trace(1.0, 0.1, 5e-3, 0.05))
        falling = [e for e in bank.history if e.direction == "falling"]
        assert len(falling) >= 2

    def test_rejects_nonpositive_duration(self, system):
        controller = FixedOperatingPointController(0.55, 1e8)
        sim = make_sim(system, controller)
        with pytest.raises(ModelParameterError):
            sim.run(constant_trace(1.0, 1.0), duration_s=0.0)


class NanCell:
    """A harvester whose per-step solve returns NaN."""

    def current_scalar(self, voltage, irradiance):
        return float("nan")


class TestNonFiniteGuard:
    def test_nan_harvester_current_raises(self, system):
        """A NaN current reaches the node; the run stops at that step
        instead of recording a NaN trajectory."""
        controller = FixedOperatingPointController(0.55, 100e6)
        sim = make_sim(system, controller, cell=NanCell())
        with pytest.raises(SimulationError, match="non-finite at t=0.0"):
            sim.run(constant_trace(1.0, 1e-3))


class CrossingController(DvfsController):
    """Steps its setpoint on each comparator crossing it is shown."""

    def reset(self):
        self.high = True

    def decide(self, view):
        for event in view.comparator_events:
            self.high = event.direction == "rising"
        return ControlDecision(
            mode="regulated",
            frequency_hz=600e6 if self.high else 300e6,
            output_voltage_v=0.6 if self.high else 0.5,
        )


RECORDED_ARRAYS = (
    "time_s", "node_voltage_v", "processor_voltage_v", "frequency_hz",
    "harvest_power_w", "processor_power_w", "draw_power_w", "irradiance",
    "mode",
)


def assert_decimates(full, thinned, k):
    """``thinned`` (record_every=k) holds exactly ``full``'s records
    (record_every=1) at steps 0, k, 2k, ..., and the same run outcome."""
    for name in RECORDED_ARRAYS:
        expected = getattr(full, name)[::k]
        actual = getattr(thinned, name)
        assert actual.dtype == expected.dtype, name
        assert actual.tobytes() == expected.tobytes(), name
    for name in (
        "completed", "completion_time_s", "browned_out", "brownout_time_s",
        "brownout_count", "downtime_s", "final_cycles", "events",
    ):
        assert getattr(thinned, name) == getattr(full, name), name


class TestRecordDecimation:
    """``record_every=k`` records every k-th step of the same run,
    whichever way the run ends."""

    STRIDES = (2, 3, 4, 7)

    def run(self, system, make_controller, trace, **config):
        def at(k, **extra):
            sim = make_sim(
                system, make_controller(), record_every=k, **config, **extra
            )
            return sim.run(trace)
        return at

    @pytest.mark.parametrize("k", STRIDES)
    def test_completing_run(self, system, k):
        workload = Workload("t", 1_000_000)
        at = self.run(
            system,
            lambda: ConstantSpeedController(0.55, 100e6, workload.cycles),
            step_trace(1.0, 0.3, 4e-3, 0.02),
            workload=workload,
        )
        full = at(1)
        assert full.completed
        assert_decimates(full, at(k), k)

    @pytest.mark.parametrize("k", STRIDES)
    def test_recovering_run(self, system, k):
        at = self.run(
            system,
            lambda: FixedOperatingPointController(0.7, 800e6),
            step_trace(1.0, 0.25, 10e-3, 60e-3),
            time_step_s=micro_seconds(20),
            stop_on_brownout=False,
            recover_from_brownout=True,
            recovery_voltage_v=1.05,
        )
        full = at(1)
        assert any(kind == "recovered" for kind, _t in full.events)
        assert_decimates(full, at(k), k)

    @pytest.mark.parametrize("k", STRIDES)
    def test_comparators_and_transitions(self, system, k):
        def at(stride):
            sim = make_sim(
                system,
                CrossingController(),
                comparators=ComparatorBank(
                    [1.1, 1.0, 0.9], noise_sigma_v=2e-3, seed=5
                ),
                transitions=DISCRETE_TRANSITIONS,
                record_every=stride,
            )
            return sim.run(step_trace(1.0, 0.2, 5e-3, 0.03))

        full = at(1)
        transitions = dict(full.events)["transitions"]
        assert transitions >= 2
        assert_decimates(full, at(k), k)

    def stop_on_brownout_run(self, system, k):
        sim = make_sim(
            system,
            FixedOperatingPointController(0.8, 900e6),
            capacitor=system.new_node_capacitor(1.1),
            workload=Workload("t", 10**9),
            stop_on_brownout=True,
            record_every=k,
        )
        return sim.run(constant_trace(0.0, 0.2))

    @pytest.mark.parametrize("on_grid", [True, False], ids=["recorded", "skipped"])
    def test_stop_on_brownout(self, system, on_grid):
        """The break step is recorded exactly when it is a record step."""
        full = self.stop_on_brownout_run(system, 1)
        assert full.browned_out
        break_step = len(full.time_s) - 1
        assert full.time_s[-1] == full.brownout_time_s
        k = next(
            k for k in range(2, break_step + 1)
            if (break_step % k == 0) == on_grid
        )
        thinned = self.stop_on_brownout_run(system, k)
        assert_decimates(full, thinned, k)
        assert (thinned.time_s[-1] == full.brownout_time_s) == on_grid
