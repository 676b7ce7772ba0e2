"""Tests for sprint scheduling (Section VI-B, eqs. 8-13)."""

import pytest

from repro.core.sprint import (
    SprintController,
    SprintPlan,
    SprintScheduler,
    min_input_voltage_for_output,
)
from repro.core.system import paper_system
from repro.errors import (
    InfeasibleOperatingPointError,
    ModelParameterError,
)
from repro.experiments.fig9_sprint import fig9b_sprint_gains
from repro.processor.frequency import FrequencyModel
from repro.processor.workloads import image_frame_workload
from repro.pv.traces import step_trace
from repro.sim.dvfs import ControlDecision, ControllerView
from repro.sim.engine import SimulationConfig, TransientSimulator


@pytest.fixture(scope="module")
def system():
    return paper_system()


@pytest.fixture(scope="module")
def scheduler(system):
    return SprintScheduler(system, "buck", sprint_factor=0.2)


def view(node_v, cycles=0.0, time_s=0.0):
    return ControllerView(
        time_s=time_s,
        node_voltage_v=node_v,
        processor_voltage_v=0.5,
        cycles_done=cycles,
        comparator_events=(),
    )


class TestMinInputVoltage:
    def test_buck_duty_limit(self, system):
        buck = system.regulator("buck")
        v_min = min_input_voltage_for_output(buck, 0.5)
        assert v_min == pytest.approx(0.5 / buck.max_duty, rel=0.02)

    def test_sc_ratio_limit(self, system):
        sc = system.regulator("sc")
        v_min = min_input_voltage_for_output(sc, 0.5)
        # Best ratio is 4/5: needs input just above 0.5 / (4/5).
        assert v_min == pytest.approx(0.625, abs=0.02)

    def test_regulating_just_above_works(self, system):
        buck = system.regulator("buck")
        v_min = min_input_voltage_for_output(buck, 0.5)
        assert buck.input_power(0.5, 1e-3, v_in=v_min + 1e-3) > 0.0


class TestHolisticMepCache:
    def test_keys_on_the_exact_input_voltage(self, system):
        """Two input voltages 3e-7 V apart have different holistic MEPs;
        a scheduler that solved the first must not answer the second
        from its cache."""
        nudged = 0.6 + 3e-7
        fresh = SprintScheduler(system, "buck")._holistic_mep_voltage(nudged)
        warm = SprintScheduler(system, "buck")
        first = warm._holistic_mep_voltage(0.6)
        assert first != fresh
        assert warm._holistic_mep_voltage(nudged) == fresh


class TestRequiredEnergy:
    def test_monotone_in_deadline(self, scheduler):
        """eq. (10): tighter deadlines need more source energy."""
        workload = image_frame_workload(None)
        tight = scheduler.required_source_energy(workload, 12e-3)
        loose = scheduler.required_source_energy(workload, 14e-3)
        assert tight > loose

    def test_rejects_nonpositive_time(self, scheduler):
        with pytest.raises(ModelParameterError):
            scheduler.required_source_energy(image_frame_workload(None), 0.0)

    def test_includes_converter_loss(self, system, scheduler):
        """Source energy exceeds the processor-side energy by 1/eta."""
        workload = image_frame_workload(None)
        t = 15e-3
        required = scheduler.required_source_energy(workload, t)
        f = workload.cycles / t
        v = system.processor.voltage_for_frequency(f)
        local = workload.cycles * float(system.processor.energy_per_cycle(v, f))
        assert required > local


class TestAvailableEnergy:
    def test_solar_plus_capacitor(self, system, scheduler):
        e = scheduler.available_energy(10e-3, 1.0, 1.2, 0.6)
        solar = system.mpp(1.0).power_w * 10e-3
        cap = 0.5 * system.node_capacitance_f * (1.2**2 - 0.6**2)
        assert e == pytest.approx(solar + cap)

    def test_rejects_rising_window(self, scheduler):
        with pytest.raises(ModelParameterError):
            scheduler.available_energy(10e-3, 1.0, 0.6, 1.2)


class TestFastestCompletion:
    def test_at_the_curve_crossing(self, scheduler):
        """Fig. 9(a): required equals available at the found time."""
        workload = image_frame_workload(None)
        t = scheduler.fastest_completion_time(workload, 0.3, 1.2, 0.6)
        required = scheduler.required_source_energy(
            workload, t, v_in=scheduler.system.mpp(0.3).voltage_v
        )
        available = scheduler.available_energy(t, 0.3, 1.2, 0.6)
        assert required == pytest.approx(available, rel=0.01)

    def test_more_light_is_faster(self, scheduler):
        workload = image_frame_workload(None)
        bright = scheduler.fastest_completion_time(workload, 0.6, 1.2, 0.6)
        dim = scheduler.fastest_completion_time(workload, 0.3, 1.2, 0.6)
        assert bright < dim

    def test_bigger_capacitor_swing_is_faster(self, scheduler):
        workload = image_frame_workload(None)
        deep = scheduler.fastest_completion_time(workload, 0.3, 1.2, 0.5)
        shallow = scheduler.fastest_completion_time(workload, 0.3, 1.2, 1.0)
        assert deep < shallow


class TestPlan:
    def test_plan_fields(self, scheduler):
        workload = image_frame_workload(15e-3)
        plan = scheduler.plan(workload, v_start=1.2)
        f_avg = workload.cycles / workload.deadline_s
        assert plan.slow_frequency_hz == pytest.approx(0.8 * f_avg)
        assert plan.fast_frequency_hz == pytest.approx(1.2 * f_avg)
        assert plan.bypass_below_v < plan.accelerate_below_v < 1.2
        assert plan.cycles == workload.cycles

    def test_needs_deadline(self, scheduler):
        with pytest.raises(ModelParameterError):
            scheduler.plan(image_frame_workload(None), v_start=1.2)

    def test_impossible_deadline_rejected(self, scheduler):
        with pytest.raises(InfeasibleOperatingPointError):
            scheduler.plan(image_frame_workload(1e-3), v_start=1.2)

    def test_start_below_regulator_floor_rejected(self, scheduler):
        with pytest.raises(InfeasibleOperatingPointError):
            scheduler.plan(image_frame_workload(15e-3), v_start=0.3)

    def test_sprint_plan_validation(self):
        with pytest.raises(ModelParameterError):
            SprintPlan(
                output_voltage_v=0.5,
                slow_frequency_hz=2e8,
                fast_frequency_hz=1e8,  # fast < slow
                accelerate_below_v=0.9,
                bypass_below_v=0.6,
                cycles=1000,
                sprint_factor=0.2,
            )
        with pytest.raises(ModelParameterError):
            SprintPlan(
                output_voltage_v=0.5,
                slow_frequency_hz=1e8,
                fast_frequency_hz=2e8,
                accelerate_below_v=0.6,
                bypass_below_v=0.9,  # above accelerate
                cycles=1000,
                sprint_factor=0.2,
            )


class TestAnalyticGains:
    def test_eq12_gain_positive_in_dimmed_regime(self, system):
        """The paper's first-order analysis: ~10% extra intake at a 20%
        sprint factor when the light has dimmed and the node capacitor
        swings across the below-MPP region."""
        from repro.core.system import paper_system as make

        scheduler = SprintScheduler(
            make(node_capacitance_f=47e-6), "buck", sprint_factor=0.2
        )
        constant, sprint = scheduler.analytic_extra_solar_energy(
            image_frame_workload(10e-3), irradiance=0.35, v_start=1.2
        )
        gain = sprint / constant - 1.0
        assert 0.03 <= gain <= 0.35

    def test_zero_factor_means_zero_gain(self, system):
        scheduler = SprintScheduler(system, "buck", sprint_factor=0.0)
        constant, sprint = scheduler.analytic_extra_solar_energy(
            image_frame_workload(10e-3), irradiance=0.35, v_start=1.2
        )
        assert sprint == pytest.approx(constant, rel=1e-9)

    @pytest.mark.parametrize("beta, inversions", [(0.2, 3), (0.0, 1)])
    def test_one_inversion_per_distinct_frequency(
        self, system, monkeypatch, beta, inversions
    ):
        """Both schedules run at f_avg and f_avg * (1 -/+ beta): the
        integration inverts f(V) once per distinct frequency, not once
        per step (beta = 0 leaves f_avg alone)."""
        calls = []
        invert = FrequencyModel.voltage_for_frequency

        def counting(model, frequency_hz, *args, **kwargs):
            calls.append(frequency_hz)
            return invert(model, frequency_hz, *args, **kwargs)

        monkeypatch.setattr(FrequencyModel, "voltage_for_frequency", counting)
        scheduler = SprintScheduler(system, "buck", sprint_factor=beta)
        scheduler.analytic_extra_solar_energy(
            image_frame_workload(10e-3), irradiance=0.35, v_start=1.2
        )
        assert len(calls) == inversions

    def test_bypass_energy_extension(self, scheduler):
        """eq. (13): bypassing unlocks the capacitor energy stranded
        below the converter's minimum input."""
        regulated, with_bypass = scheduler.bypass_energy_extension(0.55)
        assert with_bypass > regulated
        assert (with_bypass / regulated - 1.0) > 0.10

    def test_bypass_extension_rejects_floor_above_regulator_min(self, scheduler):
        with pytest.raises(ModelParameterError):
            scheduler.bypass_energy_extension(0.55, v_floor=1.0)


class TestSprintController:
    @pytest.fixture
    def plan(self, scheduler):
        return scheduler.plan(image_frame_workload(15e-3), v_start=1.2)

    def test_slow_phase_at_high_node(self, plan):
        ctrl = SprintController(plan)
        decision = ctrl.decide(view(node_v=plan.accelerate_below_v + 0.1))
        assert decision.mode == "regulated"
        assert decision.frequency_hz == plan.slow_frequency_hz

    def test_fast_phase_below_threshold(self, plan):
        ctrl = SprintController(plan)
        decision = ctrl.decide(view(node_v=plan.accelerate_below_v - 0.05))
        assert decision.frequency_hz == plan.fast_frequency_hz
        assert decision.mode == "regulated"

    def test_bypass_below_floor_and_sticky(self, plan):
        ctrl = SprintController(plan)
        low = plan.bypass_below_v - 0.01
        assert ctrl.decide(view(node_v=low)).mode == "bypass"
        # Node recovers slightly: bypass stays engaged.
        assert ctrl.decide(view(node_v=low + 0.05)).mode == "bypass"

    def test_bypass_disabled(self, plan):
        ctrl = SprintController(plan, allow_bypass=False)
        decision = ctrl.decide(view(node_v=plan.bypass_below_v - 0.01))
        assert decision.mode == "regulated"

    def test_halts_when_done(self, plan):
        ctrl = SprintController(plan)
        decision = ctrl.decide(view(node_v=1.2, cycles=plan.cycles))
        assert decision.mode == "halt"

    def test_reset_clears_sticky_bypass(self, plan):
        ctrl = SprintController(plan)
        ctrl.decide(view(node_v=plan.bypass_below_v - 0.01))
        ctrl.reset()
        decision = ctrl.decide(view(node_v=1.2))
        assert decision.mode == "regulated"


class TestScalarEngineWork:
    """Deterministic work counts of the sprint transients: how many
    decisions a run builds and which ``max_frequency`` path it takes."""

    def _run(self, system, controller, time_step_s):
        workload = image_frame_workload(10e-3)
        v_start = system.mpp(1.0).voltage_v
        simulator = TransientSimulator(
            cell=system.cell,
            node_capacitor=system.new_node_capacitor(v_start),
            processor=system.processor,
            regulator=system.regulator("buck"),
            controller=controller,
            workload=workload,
            config=SimulationConfig(
                time_step_s=time_step_s, stop_on_brownout=False
            ),
        )
        return simulator.run(step_trace(1.0, 0.35, 1e-3, 20e-3))

    @pytest.mark.parametrize("time_step_s", [8e-6, 4e-6])
    def test_sprint_run_builds_at_most_four_decisions(
        self, system, scheduler, monkeypatch, time_step_s
    ):
        plan = scheduler.plan(
            image_frame_workload(10e-3), system.mpp(1.0).voltage_v
        )
        built = []
        init = ControlDecision.__init__

        def counting(self, *args, **kwargs):
            built.append((args, kwargs))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ControlDecision, "__init__", counting)
        result = self._run(system, SprintController(plan), time_step_s)
        # Every phase ran: slow and sprint (regulated), bypass, done.
        assert result.completed
        codes = result.MODE_CODES
        assert {codes["regulated"], codes["bypass"], codes["halt"]} <= set(
            result.mode.tolist()
        )
        assert len(result.time_s) >= 2_500
        assert len(built) <= 4

    def test_fig9b_transients_make_no_array_max_frequency_calls(
        self, monkeypatch
    ):
        """Every per-step ``max_frequency`` in fig9b's three transients
        takes the scalar path, so none pays for the array path: the
        array-path count is all calls minus scalar-path calls."""
        calls = {"all": 0, "scalar": 0}
        runs = []

        def counted(name, key):
            original = getattr(FrequencyModel, name)

            def wrapper(model, voltage_v):
                if runs and runs[-1] == "running":
                    calls[key] += 1
                return original(model, voltage_v)

            monkeypatch.setattr(FrequencyModel, name, wrapper)

        counted("max_frequency", "all")
        counted("_max_frequency_scalar", "scalar")
        run = TransientSimulator.run

        def tracking_run(simulator, *args, **kwargs):
            runs.append("running")
            try:
                return run(simulator, *args, **kwargs)
            finally:
                runs[-1] = "done"

        monkeypatch.setattr(TransientSimulator, "run", tracking_run)
        fig9b_sprint_gains(paper_system())
        assert runs == ["done"] * 3
        assert calls["scalar"] > 1_000
        assert calls["all"] - calls["scalar"] == 0
