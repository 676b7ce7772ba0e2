"""Tests for duty-cycled operation and sustainable throughput."""

import math

import pytest

from repro.core.duty_cycle import DutyCycleController, DutyCycleScheduler
from repro.core.operating_point import OperatingPointOptimizer
from repro.core.system import paper_system
from repro.errors import InfeasibleOperatingPointError, ModelParameterError
from repro.processor.workloads import image_frame_workload
from repro.pv.traces import constant_trace
from repro.sim.dvfs import ControllerView
from repro.sim.engine import SimulationConfig, TransientSimulator


@pytest.fixture(scope="module")
def system():
    return paper_system()


@pytest.fixture(scope="module")
def scheduler(system):
    return DutyCycleScheduler(system, "sc")


class TestSustainableRate:
    def test_rate_monotone_in_light(self, scheduler):
        workload = image_frame_workload(None)
        rates = [
            scheduler.sustainable_rate(workload, irr).jobs_per_second
            for irr in (0.2, 0.5, 1.0)
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_energy_balance_holds(self, scheduler, system):
        """Over one period, harvest covers the job's source energy."""
        workload = image_frame_workload(None)
        rate = scheduler.sustainable_rate(workload, 0.5)
        harvest = system.mpp(0.5).power_w * rate.period_s
        assert rate.job_source_energy_j <= harvest * (1.0 + 1e-9)

    def test_full_sun_frame_rate_scale(self, scheduler):
        """At full sun the frame runs continuously (~100 fps class:
        a ~9-10 ms frame at the holistic point, back to back)."""
        workload = image_frame_workload(None)
        rate = scheduler.sustainable_rate(workload, 1.0)
        assert 50.0 <= rate.jobs_per_second <= 150.0

    def test_low_light_optimum_is_duty_cycled_mep(self, scheduler, system):
        """At low light the throughput optimum is the Section V MEP
        point run duty-cycled (harvest at MPP during the halts), not
        continuous operation -- the strategy that unifies the paper's
        two optimality notions."""
        workload = image_frame_workload(None)
        rate = scheduler.sustainable_rate(workload, 0.15)
        assert 0.0 < rate.duty_fraction < 1.0
        assert rate.recharge_time_s > 0.0
        # It strictly beats running the performance point continuously.
        best = OperatingPointOptimizer(system).best_point("sc", 0.15)
        continuous_rate = best.frequency_hz / workload.cycles
        assert rate.jobs_per_second > continuous_rate

    def test_full_sun_optimum_is_continuous(self, scheduler):
        """At strong light the performance point saturates the harvest:
        jobs run back to back."""
        workload = image_frame_workload(None)
        rate = scheduler.sustainable_rate(workload, 1.0)
        assert rate.duty_fraction == pytest.approx(1.0)

    def test_latency_constraint_forces_duty_cycling(self, scheduler):
        """The paper's regime: a frame-latency requirement at low light
        makes each job overdraw; the halt phase restores the capacitor
        and the duty fraction drops below one."""
        workload = image_frame_workload(None)
        constrained = scheduler.sustainable_rate_with_latency(
            workload, 0.15, max_job_time_s=12e-3
        )
        assert constrained.job_time_s <= 12e-3 * (1 + 1e-9)
        assert 0.0 < constrained.duty_fraction < 1.0
        assert constrained.recharge_time_s > 0.0
        # Throughput is the price of latency: no more jobs/s than the
        # unconstrained optimum.
        free = scheduler.sustainable_rate(workload, 0.15)
        assert constrained.jobs_per_second <= free.jobs_per_second * (1 + 1e-9)

    def test_loose_latency_falls_back_to_optimum(self, scheduler):
        workload = image_frame_workload(None)
        free = scheduler.sustainable_rate(workload, 0.5)
        loose = scheduler.sustainable_rate_with_latency(
            workload, 0.5, max_job_time_s=1.0
        )
        assert loose.jobs_per_second == pytest.approx(free.jobs_per_second)

    def test_latency_rejects_nonpositive(self, scheduler):
        with pytest.raises(ModelParameterError):
            scheduler.sustainable_rate_with_latency(
                image_frame_workload(None), 0.5, max_job_time_s=0.0
            )

    def test_infeasible_in_darkness(self, scheduler):
        with pytest.raises(InfeasibleOperatingPointError):
            scheduler.sustainable_rate(image_frame_workload(None), 0.0)

    def test_rate_curve_handles_infeasible_points(self, scheduler):
        workload = image_frame_workload(None)
        curve = scheduler.rate_curve(workload, [0.0, 0.5, 1.0])
        assert curve[0][1] == 0.0
        assert curve[1][1] > 0.0
        assert curve[2][1] > curve[1][1]


    @pytest.mark.parametrize("upper_first", [False, True])
    def test_mep_point_cache_keys_on_exact_irradiance(self, upper_first):
        """Irradiances 1 ulp apart get their own MEP point (node parked
        at their own MPP), whichever is queried first."""
        lower = 0.5078837166601279
        upper = math.nextafter(lower, 1.0)
        cached = DutyCycleScheduler(paper_system(), "sc")
        for irradiance in (upper, lower) if upper_first else (lower, upper):
            cached._mep_point(irradiance)
        for irradiance in (lower, upper):
            fresh = DutyCycleScheduler(paper_system(), "sc")
            assert cached._mep_point(irradiance) == fresh._mep_point(irradiance)


class TestDutyCycleController:
    def make_view(self, time_s, node_v, cycles):
        return ControllerView(
            time_s=time_s,
            node_voltage_v=node_v,
            processor_voltage_v=0.5,
            cycles_done=cycles,
            comparator_events=(),
        )

    @pytest.fixture
    def point(self, system):
        return OperatingPointOptimizer(system).best_point("sc", 0.5)

    def test_waits_for_start_threshold(self, point):
        controller = DutyCycleController(point, 1000, 1.0, 0.7)
        decision = controller.decide(self.make_view(0.0, 0.9, 0.0))
        assert decision.mode == "halt"

    def test_runs_job_then_halts(self, point):
        controller = DutyCycleController(point, 1000, 1.0, 0.7)
        run = controller.decide(self.make_view(0.0, 1.05, 0.0))
        assert run.frequency_hz > 0.0
        done = controller.decide(self.make_view(1.0, 1.0, 1000.0))
        assert done.mode == "halt"
        assert controller.jobs_completed == 1

    def test_pause_and_resume_with_hysteresis(self, point):
        controller = DutyCycleController(point, 10_000, 1.0, 0.7)
        controller.decide(self.make_view(0.0, 1.05, 0.0))
        paused = controller.decide(self.make_view(1.0, 0.69, 100.0))
        assert paused.mode == "halt"
        # Recovery inside the hysteresis band: still paused.
        still = controller.decide(self.make_view(2.0, 0.705, 100.0))
        assert still.mode == "halt"
        resumed = controller.decide(self.make_view(3.0, 0.75, 100.0))
        assert resumed.frequency_hz > 0.0

    def test_rejects_bad_thresholds(self, point):
        with pytest.raises(ModelParameterError):
            DutyCycleController(point, 1000, 0.7, 1.0)

    def test_rejects_nonpositive_cycles(self, point):
        with pytest.raises(ModelParameterError):
            DutyCycleController(point, 0, 1.0, 0.7)

    def test_measured_rate(self, point):
        controller = DutyCycleController(point, 1000, 1.0, 0.7)
        controller.jobs_completed = 5
        assert controller.measured_rate(2.0) == pytest.approx(2.5)
        with pytest.raises(ModelParameterError):
            controller.measured_rate(0.0)


class TestAnalysisMatchesSimulation:
    def test_simulated_rate_close_to_analysis(self, system, scheduler):
        """The closed-loop duty-cycled run achieves roughly the
        analytic sustainable rate (within integration slop and the
        start-threshold overhead)."""
        workload = image_frame_workload(None)
        irradiance = 0.3
        analysis = scheduler.sustainable_rate(workload, irradiance)
        point = analysis.operating_point
        mpp_v = system.mpp(irradiance).voltage_v
        controller = DutyCycleController(
            point,
            cycles_per_job=workload.cycles,
            start_above_v=mpp_v - 0.02,
            abort_below_v=max(0.65, point.processor_voltage_v + 0.1),
        )
        duration = 0.6
        simulator = TransientSimulator(
            cell=system.cell,
            node_capacitor=system.new_node_capacitor(mpp_v),
            processor=system.processor,
            regulator=system.regulator("sc"),
            controller=controller,
            config=SimulationConfig(
                time_step_s=20e-6, record_every=32, stop_on_brownout=False
            ),
        )
        simulator.run(constant_trace(irradiance, duration))
        measured = controller.measured_rate(duration)
        assert measured == pytest.approx(
            analysis.jobs_per_second, rel=0.35
        )
        assert controller.jobs_completed >= 2
