"""Tests for the transient simulation engine."""

import numpy as np
import pytest

from repro.core.system import paper_system
from repro.errors import ModelParameterError
from repro.monitor.comparator import ComparatorBank
from repro.processor.workloads import Workload
from repro.pv.mpp import find_mpp
from repro.pv.traces import constant_trace, step_trace
from repro.sim.dvfs import (
    BypassController,
    ConstantSpeedController,
    FixedOperatingPointController,
)
from repro.sim.engine import SimulationConfig, TransientSimulator


@pytest.fixture(scope="module")
def system():
    return paper_system()


def make_sim(system, controller, capacitor=None, workload=None, comparators=None,
             **config):
    return TransientSimulator(
        cell=system.cell,
        node_capacitor=capacitor or system.new_node_capacitor(1.2),
        processor=system.processor,
        regulator=system.regulator("sc"),
        controller=controller,
        comparators=comparators,
        workload=workload,
        config=SimulationConfig(**config) if config else SimulationConfig(),
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
