"""Tests for DVFS controllers and decisions."""

import dataclasses
import pickle

import pytest

from repro.core.system import paper_system
from repro.errors import ModelParameterError
from repro.processor.workloads import Workload
from repro.pv.traces import constant_trace
from repro.sim.dvfs import (
    BypassController,
    ConstantSpeedController,
    ControlDecision,
    ControllerView,
    FixedOperatingPointController,
)
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.units import mega_hertz


def view(time_s=0.0, node_v=1.2, cycles=0.0):
    return ControllerView(
        time_s=time_s,
        node_voltage_v=node_v,
        processor_voltage_v=0.55,
        cycles_done=cycles,
        comparator_events=(),
    )


class TestControlDecision:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ModelParameterError):
            ControlDecision(mode="turbo", frequency_hz=1e6)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ModelParameterError):
            ControlDecision(mode="halt", frequency_hz=-1.0)

    def test_regulated_needs_output_voltage(self):
        with pytest.raises(ModelParameterError):
            ControlDecision(mode="regulated", frequency_hz=1e6)

    def test_bypass_needs_no_output_voltage(self):
        decision = ControlDecision(mode="bypass", frequency_hz=1e6)
        assert decision.output_voltage_v is None


class TestControllerView:
    def test_rejects_negative_time(self):
        with pytest.raises(ModelParameterError):
            ControllerView(-1.0, 1.0, 0.5, 0.0, ())


class TestFixedOperatingPointController:
    def test_holds_the_point(self):
        ctrl = FixedOperatingPointController(0.55, 400e6)
        decision = ctrl.decide(view())
        assert decision.mode == "regulated"
        assert decision.output_voltage_v == 0.55
        assert decision.frequency_hz == 400e6
        # Same decision regardless of state.
        assert ctrl.decide(view(time_s=9.0, node_v=0.6)).frequency_hz == 400e6

    def test_rejects_bad_setpoints(self):
        with pytest.raises(ModelParameterError):
            FixedOperatingPointController(0.0, 1e6)
        with pytest.raises(ModelParameterError):
            FixedOperatingPointController(0.5, 0.0)


class TestConstantSpeedController:
    def test_runs_until_cycles_complete(self):
        ctrl = ConstantSpeedController(0.55, 100e6, total_cycles=1000)
        assert ctrl.decide(view(cycles=999)).frequency_hz == 100e6
        assert ctrl.decide(view(cycles=1000)).frequency_hz == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ModelParameterError):
            ConstantSpeedController(0.55, 100e6, total_cycles=0)


class TestBypassController:
    def test_follows_frequency_law(self):
        ctrl = BypassController(lambda v: v * 1e8)
        decision = ctrl.decide(view(node_v=0.8))
        assert decision.mode == "bypass"
        assert decision.frequency_hz == pytest.approx(0.8e8)

    def test_clamps_negative_law_output(self):
        ctrl = BypassController(lambda v: -1.0)
        assert ctrl.decide(view()).frequency_hz == 0.0

    def test_rejects_non_callable(self):
        with pytest.raises(ModelParameterError):
            BypassController(42)


def count_decisions(monkeypatch):
    """Record every ``ControlDecision`` constructed from now on."""
    built = []
    init = ControlDecision.__init__

    def counting(self, *args, **kwargs):
        built.append((args, kwargs))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ControlDecision, "__init__", counting)
    return built


class TestDecisionWork:
    """Controllers with a fixed set of actuations build each decision
    once, not once per step: the count does not grow with the run."""

    @pytest.mark.parametrize("time_step_s", [20e-6, 5e-6])
    def test_constant_speed_run_builds_at_most_two(
        self, monkeypatch, time_step_s
    ):
        system = paper_system()
        workload = Workload("job", cycles=500_000)
        built = count_decisions(monkeypatch)
        controller = ConstantSpeedController(0.55, 100e6, workload.cycles)
        sim = TransientSimulator(
            cell=system.cell,
            node_capacitor=system.new_node_capacitor(1.2),
            processor=system.processor,
            regulator=system.regulator("sc"),
            controller=controller,
            workload=workload,
            config=SimulationConfig(time_step_s=time_step_s),
        )
        result = sim.run(constant_trace(1.0, 10e-3))
        # Both decisions were used: the job finished, then halted.
        assert result.completed
        assert result.frequency_hz[-1] == 0.0
        assert len(result.time_s) > 400
        assert len(built) <= 2

    def test_fixed_point_decides_the_same_object(self, monkeypatch):
        built = count_decisions(monkeypatch)
        ctrl = FixedOperatingPointController(0.55, 400e6)
        decisions = {id(ctrl.decide(view(time_s=t * 1e-3))) for t in range(50)}
        assert len(decisions) == 1
        assert len(built) == 1


class TestDecisionAndViewContracts:
    """Both stay frozen dataclasses with the same fields, defaults,
    validation and messages, whatever their ``__init__`` looks like."""

    def test_frozen(self):
        decision = ControlDecision("bypass", 1e6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.frequency_hz = 2e6
        with pytest.raises(dataclasses.FrozenInstanceError):
            view().time_s = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del view().node_voltage_v

    def test_fields_in_declaration_order(self):
        assert [f.name for f in dataclasses.fields(ControlDecision)] == [
            "mode", "frequency_hz", "output_voltage_v",
        ]
        assert [f.name for f in dataclasses.fields(ControllerView)] == [
            "time_s", "node_voltage_v", "processor_voltage_v",
            "cycles_done", "comparator_events", "recovering",
            "brownout_count",
        ]

    def test_replace_revalidates(self):
        decision = ControlDecision("regulated", 1e6, 0.5)
        faster = dataclasses.replace(decision, frequency_hz=mega_hertz(2.0))
        assert faster == ControlDecision("regulated", 2e6, 0.5)
        with pytest.raises(ModelParameterError):
            dataclasses.replace(decision, output_voltage_v=None)
        later = dataclasses.replace(view(), time_s=3.0)
        assert later.time_s == 3.0 and later.node_voltage_v == 1.2
        with pytest.raises(ModelParameterError):
            dataclasses.replace(view(), time_s=-1.0)

    def test_equality_and_hash(self):
        a = ControlDecision("regulated", 1e6, 0.5)
        b = ControlDecision(mode="regulated", frequency_hz=mega_hertz(1.0),
                            output_voltage_v=0.5)
        assert a == b and hash(a) == hash(b)
        assert a != ControlDecision("regulated", 1e6, 0.6)
        assert len({a, b}) == 1
        assert view() == view() and hash(view()) == hash(view())
        assert view() != view(cycles=1.0)

    def test_pickle_round_trip(self):
        for value in (
            ControlDecision("regulated", 1e6, 0.5),
            ControlDecision("halt", 0.0),
            ControllerView(0.1, 1.1, 0.5, 10.0, (("down", 0),), True, 2),
        ):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and type(copy) is type(value)

    def test_positional_and_keyword_construction_share_defaults(self):
        positional = ControllerView(0.5, 1.0, 0.4, 7.0, ())
        keyword = ControllerView(
            time_s=0.5, node_voltage_v=1.0, processor_voltage_v=0.4,
            cycles_done=7.0, comparator_events=(),
        )
        assert positional == keyword
        assert positional.recovering is False
        assert positional.brownout_count == 0
        assert ControllerView(0.5, 1.0, 0.4, 7.0, (), True, 3) == ControllerView(
            0.5, 1.0, 0.4, 7.0, (), recovering=True, brownout_count=3
        )
        assert ControlDecision("bypass", 1e6) == ControlDecision(
            mode="bypass", frequency_hz=mega_hertz(1.0)
        )
        assert ControlDecision("bypass", 1e6).output_voltage_v is None
        assert ControlDecision("regulated", 1e6, 0.5) == ControlDecision(
            "regulated", 1e6, output_voltage_v=0.5
        )
        assert repr(ControlDecision("halt", 0.0)) == (
            "ControlDecision(mode='halt', frequency_hz=0.0, "
            "output_voltage_v=None)"
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            ControlDecision("halt", 0.0, None, 1)
        with pytest.raises(TypeError):
            ControllerView(0.0, 1.0, 0.5, 0.0, (), voltage=1.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ControllerView(-1.0, 1.0, 0.5, 0.0, ()),
             "time must be >= 0, got -1.0"),
            (lambda: ControlDecision("turbo", 1e6),
             "mode must be one of ('regulated', 'bypass', 'halt'), "
             "got 'turbo'"),
            (lambda: ControlDecision("halt", -1.0),
             "frequency must be >= 0, got -1.0"),
            (lambda: ControlDecision("regulated", 1e6),
             "regulated mode needs a positive output voltage setpoint"),
            (lambda: ControlDecision("regulated", 1e6, 0.0),
             "regulated mode needs a positive output voltage setpoint"),
        ],
    )
    def test_error_messages(self, build, message):
        with pytest.raises(ModelParameterError) as excinfo:
            build()
        assert str(excinfo.value) == message
