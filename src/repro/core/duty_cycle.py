"""Duty-cycled periodic operation and sustainable throughput.

The paper's Section VI-B closes with: "Large duty cycle is used to
restore the voltage on the capacitor after the operation."  A deployed
sensing node runs exactly that regime: execute one job (a recognition
frame), halt while the harvester refills the node, repeat.  This module
answers the two questions that regime poses:

* **analysis** -- what job rate can a light level sustain indefinitely?
  Energy balance over one period: the job's source energy must not
  exceed the harvest, so the sustainable rate is

      rate_max = eta_path * P_harvest / E_job_source            (jobs/s)

  where ``E_job_source`` comes from the same eq.-(8)/(10) machinery the
  sprint scheduler uses and ``P_harvest`` is the MPP power (regulated
  path) or the raw curve power (bypass path);

* **execution** -- :class:`DutyCycleController` runs the
  job-halt-recharge loop in the transient simulator: start a job when
  the node has recovered to the start threshold, halt on completion,
  and let the node refill.

The analysis/controller pair powers the sustained-throughput experiment
(the system-level "performance" the paper's IoT framing cares about)
and its ablation bench.
"""

from __future__ import annotations

from typing import Sequence

from dataclasses import dataclass

from repro.core.operating_point import OperatingPoint, OperatingPointOptimizer
from repro.core.system import EnergyHarvestingSoC
from repro.errors import (
    InfeasibleOperatingPointError,
    ModelParameterError,
    OperatingRangeError,
)
from repro.processor.workloads import Workload
from repro.sim.dvfs import ControlDecision, ControllerView, DvfsController


@dataclass(frozen=True)
class SustainableRate:
    """Steady-state throughput analysis for one job at one light level."""

    jobs_per_second: float
    job_time_s: float
    recharge_time_s: float
    duty_fraction: float
    operating_point: OperatingPoint
    job_source_energy_j: float

    @property
    def period_s(self) -> float:
        """One job-plus-recharge period."""
        return self.job_time_s + self.recharge_time_s


class DutyCycleScheduler:
    """Sustainable-rate analysis for periodic jobs.

    Parameters
    ----------
    system:
        The composed SoC.
    regulator_name:
        Converter used for the regulated path; the holistic operating
        point may still choose bypass where that wins.
    """

    def __init__(self, system: EnergyHarvestingSoC, regulator_name: str = "sc") -> None:
        self.system = system
        self.regulator_name = regulator_name
        self.optimizer = OperatingPointOptimizer(system)
        self._mep_point_cache: "dict[float, OperatingPoint]" = {}

    def _mep_point(self, irradiance: float) -> OperatingPoint:
        """The holistic-MEP operating point for this light (cached on
        the exact irradiance, like :meth:`EnergyHarvestingSoC.mpp`)."""
        if irradiance not in self._mep_point_cache:
            from repro.core.mep import HolisticMepOptimizer

            mpp = self.system.mpp(irradiance)
            optimizer = HolisticMepOptimizer(
                self.system, input_voltage_v=mpp.voltage_v
            )
            mep = optimizer.holistic_mep(self.regulator_name)
            processor = self.system.processor
            regulator = self.system.regulator(self.regulator_name)
            delivered = float(processor.power(mep.voltage_v, mep.frequency_hz))
            extracted = regulator.input_power(
                mep.voltage_v, delivered, v_in=mpp.voltage_v
            )
            self._mep_point_cache[irradiance] = OperatingPoint(
                processor_voltage_v=mep.voltage_v,
                frequency_hz=mep.frequency_hz,
                delivered_power_w=delivered,
                extracted_power_w=extracted,
                node_voltage_v=mpp.voltage_v,
                regulator_name=self.regulator_name,
                bypassed=False,
            )
        return self._mep_point_cache[irradiance]

    def _rate_at_point(
        self, workload: Workload, irradiance: float, point: OperatingPoint
    ) -> SustainableRate:
        """Energy-balanced periodic rate for one operating point."""
        job_time = workload.cycles / point.frequency_hz
        job_energy = self.job_source_energy(workload, point)
        harvest_power = self.system.mpp(irradiance).power_w
        if harvest_power <= 0.0:
            raise InfeasibleOperatingPointError(
                f"no harvestable power at irradiance {irradiance}"
            )
        min_period = max(job_energy / harvest_power, job_time)
        return SustainableRate(
            jobs_per_second=1.0 / min_period,
            job_time_s=job_time,
            recharge_time_s=min_period - job_time,
            duty_fraction=job_time / min_period,
            operating_point=point,
            job_source_energy_j=job_energy,
        )

    def job_source_energy(
        self, workload: Workload, point: OperatingPoint
    ) -> float:
        """Source-side energy one job costs at an operating point."""
        if point.frequency_hz <= 0.0:
            raise InfeasibleOperatingPointError(
                "operating point has no running clock"
            )
        job_time = workload.cycles / point.frequency_hz
        return point.extracted_power_w * job_time

    def sustainable_rate(
        self, workload: Workload, irradiance: float
    ) -> SustainableRate:
        """Maximum indefinitely-sustainable job rate at an irradiance.

        Two strategies compete and the better one wins:

        * run *continuously* at the holistic performance point
          (Section IV): sustainable by construction, duty 1.0;
        * run *duty-cycled* at the holistic minimum-energy point
          (Section V): each job costs the least source energy, the
          halt phase harvests at full MPP power, and the sustainable
          rate is ``P_mpp / E_job`` -- at low light this beats the
          continuous strategy, unifying the paper's two optimality
          notions into one throughput answer.
        """
        candidates = []
        best = self.optimizer.best_point(self.regulator_name, irradiance)
        if best.frequency_hz > 0.0:
            candidates.append(self._rate_at_point(workload, irradiance, best))
        try:
            mep_point = self._mep_point(irradiance)
            candidates.append(
                self._rate_at_point(workload, irradiance, mep_point)
            )
        except (InfeasibleOperatingPointError, OperatingRangeError):
            pass
        if not candidates:
            raise InfeasibleOperatingPointError(
                f"no sustainable operation at irradiance {irradiance}"
            )
        return max(candidates, key=lambda r: r.jobs_per_second)

    def sustainable_rate_with_latency(
        self, workload: Workload, irradiance: float, max_job_time_s: float
    ) -> SustainableRate:
        """Sustainable rate when each job must finish in ``max_job_time_s``.

        The latency constraint forces a faster (hungrier) operating
        point than the harvest alone sustains; the capacitor funds each
        job and the halt phase restores it -- the paper's "large duty
        cycle is used to restore the voltage" regime.  The resulting
        duty fraction is below one whenever the constraint binds.
        """
        if max_job_time_s <= 0.0:
            raise ModelParameterError(
                f"max job time must be positive, got {max_job_time_s}"
            )
        free = self.sustainable_rate(workload, irradiance)
        if free.job_time_s <= max_job_time_s:
            # The unconstrained optimum already meets the latency.
            return free

        processor = self.system.processor
        regulator = self.system.regulator(self.regulator_name)
        mpp = self.system.mpp(irradiance)
        f_required = workload.cycles / max_job_time_s
        # Meet the latency at the least source energy: never drop below
        # the holistic MEP voltage (same logic as the sprint planner).
        v = max(
            processor.voltage_for_frequency(f_required),
            self._mep_point(irradiance).processor_voltage_v,
            regulator.min_output_v,
        )
        f_run = max(f_required, float(processor.max_frequency(v)))
        delivered = float(processor.power(v, f_run))
        extracted = regulator.input_power(v, delivered, v_in=mpp.voltage_v)
        point = OperatingPoint(
            processor_voltage_v=v,
            frequency_hz=f_run,
            delivered_power_w=delivered,
            extracted_power_w=extracted,
            node_voltage_v=mpp.voltage_v,
            regulator_name=self.regulator_name,
            bypassed=False,
        )
        return self._rate_at_point(workload, irradiance, point)

    def rate_curve(
        self, workload: Workload, irradiances: "Sequence[float]"
    ) -> "list[tuple[float, float]]":
        """(irradiance, jobs/s) pairs; zero where operation is infeasible."""
        curve = []
        for irradiance in irradiances:
            try:
                rate = self.sustainable_rate(workload, float(irradiance))
                curve.append((float(irradiance), rate.jobs_per_second))
            except InfeasibleOperatingPointError:
                curve.append((float(irradiance), 0.0))
        return curve


class DutyCycleController(DvfsController):
    """Execute the job-halt-recharge loop in the transient simulator.

    Runs jobs of ``cycles_per_job`` at a fixed operating point.  A job
    starts when the node has recovered to ``start_above_v``; the clock
    gates when the job's cycles are done; if the node sags to
    ``abort_below_v`` mid-job the job pauses (clock gated) until the
    node recovers -- the defensive variant of the paper's duty cycling.
    """

    def __init__(
        self,
        point: OperatingPoint,
        cycles_per_job: int,
        start_above_v: float,
        abort_below_v: float,
    ) -> None:
        if cycles_per_job <= 0:
            raise ModelParameterError(
                f"cycles per job must be positive, got {cycles_per_job}"
            )
        if abort_below_v >= start_above_v:
            raise ModelParameterError(
                f"abort threshold {abort_below_v} must lie below start "
                f"threshold {start_above_v}"
            )
        self.point = point
        self.cycles_per_job = cycles_per_job
        self.start_above_v = start_above_v
        self.abort_below_v = abort_below_v
        self.jobs_completed = 0
        self.job_start_times_s: "list[float]" = []
        self._running = False
        self._paused = False
        self._job_start_cycles = 0.0

    #: Recovery hysteresis above the abort threshold before resuming.
    RESUME_HYSTERESIS_V = 0.02

    def reset(self) -> None:
        self.jobs_completed = 0
        self.job_start_times_s.clear()
        self._running = False
        self._paused = False
        self._job_start_cycles = 0.0

    def _decision(self, frequency_hz: float) -> ControlDecision:
        if self.point.bypassed:
            return ControlDecision(mode="bypass", frequency_hz=frequency_hz)
        return ControlDecision(
            mode="regulated",
            frequency_hz=frequency_hz,
            output_voltage_v=self.point.processor_voltage_v,
        )

    def decide(self, view: ControllerView) -> ControlDecision:
        if self._running:
            done = view.cycles_done - self._job_start_cycles
            if done >= self.cycles_per_job:
                self._running = False
                self._paused = False
                self.jobs_completed += 1
                return ControlDecision(mode="halt", frequency_hz=0.0)
            if self._paused:
                if (
                    view.node_voltage_v
                    >= self.abort_below_v + self.RESUME_HYSTERESIS_V
                ):
                    self._paused = False
                else:
                    return ControlDecision(mode="halt", frequency_hz=0.0)
            elif view.node_voltage_v <= self.abort_below_v:
                # Pause: ride out the sag without losing progress.
                self._paused = True
                return ControlDecision(mode="halt", frequency_hz=0.0)
            return self._decision(self.point.frequency_hz)
        if view.node_voltage_v >= self.start_above_v:
            self._running = True
            self._job_start_cycles = view.cycles_done
            self.job_start_times_s.append(view.time_s)
            return self._decision(self.point.frequency_hz)
        return ControlDecision(mode="halt", frequency_hz=0.0)

    def measured_rate(self, duration_s: float) -> float:
        """Completed jobs per second over a run of ``duration_s``."""
        if duration_s <= 0.0:
            raise ModelParameterError(
                f"duration must be positive, got {duration_s}"
            )
        return self.jobs_completed / duration_s
