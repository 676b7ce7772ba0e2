"""The transient simulation engine.

One electrical node (the solar node with its storage capacitor), a
converter path (regulator or bypass switch) and the processor load:

    C_node * dV/dt = I_pv(V_node, light(t)) - I_draw(t)

where ``I_draw`` is the converter's input current for the controller's
commanded operating point.  Forward-Euler at a microsecond-scale step
is ample for the millisecond-scale waveforms of the paper (node time
constants are tens of microseconds at the smallest).

The engine is deliberately policy-free: everything interesting happens
in the :class:`~repro.sim.dvfs.DvfsController` plugged into it, which
is exactly how the paper's chip splits hardware (fixed) from the energy
management scheme (the contribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import (
    ModelParameterError,
    OperatingRangeError,
    SimulationError,
)
from repro.monitor.comparator import ComparatorBank
from repro.processor.energy import ProcessorModel
from repro.processor.workloads import Workload
from repro.pv.cell import SingleDiodeCell
from repro.pv.traces import IrradianceTrace
from repro.regulators.base import Regulator
from repro.sim.dvfs import ControlDecision, ControllerView, DvfsController
from repro.sim.result import RunLog, SimulationResult
from repro.sim.transitions import DvfsTransitionModel
from repro.storage.capacitor import Capacitor
from repro.telemetry.session import NULL_TELEMETRY, Telemetry

#: Longest run for which the per-step irradiance samples are
#: precomputed as a Python list (~2M steps = tens of MB); longer runs
#: fall back to per-step trace evaluation with identical values.
_IRR_PRECOMPUTE_MAX_SAMPLES = 2_000_001
#: Memoized (voltage, commanded-frequency) -> (clamped frequency,
#: processor power) pairs kept per run before the cache resets.  The
#: mapping is a pure function, so resetting is value-transparent.
_DECISION_CACHE_MAX = 65_536

#: Type of the scalar engine's per-run decision memo (the fleet engine
#: resolves with ``cache=None``).
DecisionCache = Optional[Dict[Tuple[float, float], Tuple[float, float]]]


def clamped_frequency_and_power(
    processor: ProcessorModel,
    v_eval: float,
    commanded_hz: float,
    cache: DecisionCache,
) -> "tuple[float, float]":
    """Supply-clamped frequency and processor power at ``v_eval``.

    A pure function of its float arguments, so the per-run memo (keyed
    on the exact doubles) is value-transparent: the engine revisits the
    same setpoints thousands of times per run, and the frequency/power
    models cost microseconds each.  Module-level so the scalar engine
    and the batched fleet engine resolve decisions through the *same*
    code path (their equivalence is asserted bit-for-bit).
    """
    if cache is not None:
        hit = cache.get((v_eval, commanded_hz))
        if hit is not None:
            return hit
    f = min(commanded_hz, float(processor.max_frequency(v_eval)))
    p_proc = float(processor.power(v_eval, f))
    if cache is not None:
        if len(cache) >= _DECISION_CACHE_MAX:
            cache.clear()
        cache[(v_eval, commanded_hz)] = (f, p_proc)
    return (f, p_proc)


def resolve_decision(
    processor: ProcessorModel,
    regulator: Regulator,
    decision: ControlDecision,
    v_node: float,
    cache: DecisionCache = None,
) -> "tuple[float, float, float, float, str]":
    """Turn a decision into ``(v_proc, f, p_proc, p_draw, mode)``.

    Clamps the commanded frequency to what the supply allows and
    degrades gracefully (to halt) when the converter cannot operate
    from the present node voltage.  Shared by
    :class:`TransientSimulator` and :class:`repro.fleet.FleetSimulator`.
    """
    if decision.mode == "halt":
        # Power-gated: no draw from the node at all.
        return (0.0, 0.0, 0.0, 0.0, "halt")

    if decision.mode == "bypass":
        v_proc = v_node
        if v_proc < processor.min_operating_v:
            return (v_proc, 0.0, 0.0, 0.0, "halt")
        v_eval = min(v_proc, processor.max_operating_v)
        f, p_proc = clamped_frequency_and_power(
            processor, v_eval, decision.frequency_hz, cache
        )
        return (v_proc, f, p_proc, p_proc, "bypass")

    # Regulated.
    v_out = decision.output_voltage_v
    if v_out < processor.min_operating_v:
        return (v_out, 0.0, 0.0, 0.0, "halt")
    f, p_proc = clamped_frequency_and_power(
        processor, v_out, decision.frequency_hz, cache
    )
    try:
        p_draw = regulator.input_power(v_out, p_proc, v_in=v_node)
    except OperatingRangeError:
        # Node too low (duty limit / no ratio band): converter dropout.
        return (v_out, 0.0, 0.0, 0.0, "halt")
    return (v_out, f, p_proc, p_draw, "regulated")


@dataclass(frozen=True)
class SimulationConfig:
    """Numerical and termination settings for a run.

    Brownout handling comes in three flavours:

    * ``stop_on_brownout=True`` (default): the first brownout ends the
      run -- the historical terminal semantics.
    * ``stop_on_brownout=False``: the run continues with the load
      stalled; the node may or may not recover on its own.
    * ``recover_from_brownout=True`` (requires ``stop_on_brownout=
      False``): halt-and-recharge recovery -- on brownout the load is
      power-gated, the node recharges until it reaches
      ``recovery_voltage_v`` (the supply monitor's power-good level,
      hysteretically above the collapse voltage), the controller is
      notified through :class:`~repro.sim.dvfs.ControllerView`, and the
      run continues.  Downtime and brownout counts are accounted in the
      result.
    """

    time_step_s: float = 10e-6
    record_every: int = 1
    stop_on_completion: bool = False
    stop_on_brownout: bool = True
    recover_from_brownout: bool = False
    recovery_voltage_v: float = 1.0
    max_steps: int = 20_000_000

    def __post_init__(self) -> None:
        if self.time_step_s <= 0.0:
            raise ModelParameterError(
                f"time step must be positive, got {self.time_step_s}"
            )
        if self.record_every < 1:
            raise ModelParameterError(
                f"record_every must be >= 1, got {self.record_every}"
            )
        if self.max_steps < 1:
            raise ModelParameterError(
                f"max_steps must be >= 1, got {self.max_steps}"
            )
        if self.recovery_voltage_v <= 0.0:
            raise ModelParameterError(
                f"recovery voltage must be positive, got "
                f"{self.recovery_voltage_v}"
            )
        if self.recover_from_brownout and self.stop_on_brownout:
            raise ModelParameterError(
                "recover_from_brownout requires stop_on_brownout=False "
                "(a run cannot both terminate and recover on brownout)"
            )


class TransientSimulator:
    """Simulate the battery-less SoC on an irradiance trace.

    Parameters
    ----------
    cell / node_capacitor / processor:
        The physical substrates.
    regulator:
        The converter used in "regulated" mode decisions.
    controller:
        The DVFS policy closing the loop.
    comparators:
        Optional comparator bank observing the node (its crossings are
        fed back to the controller, its draw is charged to the node).
    workload:
        Optional workload; when given, completion is tracked.
    transitions:
        Optional DVFS transition-cost model; when given, every mode or
        setpoint change gates the clock for the settle time and draws
        the rail-recharge energy from the node.
    telemetry:
        Optional :class:`~repro.telemetry.session.Telemetry` sink.
        The engine emits sim-time events/spans (mode switches, DVFS
        transitions, brownouts, recoveries) and per-run metrics into
        it; the default no-op sink records nothing and adds no
        per-step work.
    """

    def __init__(
        self,
        cell: SingleDiodeCell,
        node_capacitor: Capacitor,
        processor: ProcessorModel,
        regulator: Regulator,
        controller: DvfsController,
        comparators: "ComparatorBank | None" = None,
        workload: "Workload | None" = None,
        config: "SimulationConfig | None" = None,
        transitions: "DvfsTransitionModel | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.cell = cell
        self.node_capacitor = node_capacitor
        self.processor = processor
        self.regulator = regulator
        self.controller = controller
        self.comparators = comparators
        self.workload = workload
        self.config = config or SimulationConfig()
        self.transitions = transitions
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    # -- the run -------------------------------------------------------------------

    def run(self, trace: IrradianceTrace, duration_s: "float | None" = None) -> SimulationResult:
        """Simulate over the trace; returns the recorded result.

        ``duration_s`` defaults to the trace duration.  The node
        capacitor is mutated in place (copy it first to preserve a
        bench setup).
        """
        cfg = self.config
        dt = cfg.time_step_s
        if duration_s is None:
            duration_s = trace.duration_s
        if duration_s <= 0.0:
            raise ModelParameterError(f"duration must be positive, got {duration_s}")
        steps = int(np.ceil(duration_s / dt))
        if steps > cfg.max_steps:
            raise SimulationError(
                f"{steps} steps exceed max_steps={cfg.max_steps}; "
                "raise time_step_s or max_steps"
            )

        self.controller.reset()
        if self.comparators is not None:
            self.comparators.reset()

        # The per-step PV solve: a cold-started scalar Newton solve
        # where the harvester has one (bit-identical to the array
        # solve), its generic ``current`` otherwise.
        cell = self.cell
        node_capacitor = self.node_capacitor
        processor = self.processor
        regulator = self.regulator
        pv_current: "Callable[[float, float], float]" = getattr(
            cell, "current_scalar", None
        ) or (lambda v, irr: float(cell.current(v, irr)))

        decision_cache: "dict[tuple[float, float], tuple[float, float]]" = {}

        # Piecewise traces are pure interpolation, so the whole run's
        # per-step irradiance can be evaluated up front in one
        # vectorised sweep (bit-identical to per-step calls -- see
        # IrradianceTrace.step_samples).
        irr_samples: "list[float] | None" = None
        if steps + 1 <= _IRR_PRECOMPUTE_MAX_SAMPLES:
            sampler = getattr(trace, "step_samples", None)
            if sampler is not None:
                irr_samples = sampler(dt, steps).tolist()

        # Events, sim-time trace and metrics go through the run log.
        # The default sink is a shared no-op, so the per-step cost when
        # disabled is one string comparison (the mode-switch check).
        log = RunLog(self.telemetry, dt, steps)
        telemetry_mode: "str | None" = None

        record_count = steps // cfg.record_every + 1
        rec_t = np.empty(record_count)
        rec_vnode = np.empty(record_count)
        rec_vproc = np.empty(record_count)
        rec_f = np.empty(record_count)
        rec_ppv = np.empty(record_count)
        rec_pproc = np.empty(record_count)
        rec_pdraw = np.empty(record_count)
        rec_irr = np.empty(record_count)
        rec_mode = np.empty(record_count, dtype=np.int8)

        mode_codes = SimulationResult.MODE_CODES
        comparators = self.comparators
        comparator_power = (
            comparators.total_power_w if comparators is not None else 0.0
        )
        observe = comparators.observe if comparators is not None else None
        target_cycles = self.workload.cycles if self.workload is not None else None

        # Per-run invariants, bound once: the loop body reads locals only.
        decide = self.controller.decide
        transitions = self.transitions
        apply_current = node_capacitor.apply_current
        record_every = cfg.record_every
        recovery_voltage_v = cfg.recovery_voltage_v
        stop_on_brownout = cfg.stop_on_brownout
        recover_from_brownout = cfg.recover_from_brownout
        stop_on_completion = cfg.stop_on_completion

        cycles = 0.0
        prev_v_proc = 0.0
        prev_mode: "str | None" = None
        prev_setpoint_v = 0.0
        lockout_until = -1.0
        transition_count = 0
        pending_events: "tuple" = ()
        completed = False
        brownout_count = 0
        downtime_s = 0.0
        recovering = False
        in_brownout = False
        node_collapsed = False
        recorded = 0
        # Steps 0, record_every, 2*record_every, ... are recorded.
        next_record = 0

        t = 0.0
        v_node = node_capacitor.voltage_v
        for step in range(steps + 1):
            irr = irr_samples[step] if irr_samples is not None else trace(t)

            # Single PV solve per step: current once, power derived
            # (the Harvester protocol defines power() as V * I(V)).
            i_pv = pv_current(v_node, irr)
            p_pv = v_node * i_pv

            # Power-good release: the node has recharged past the
            # recovery threshold, so the load may reconnect this step.
            if recovering and v_node >= recovery_voltage_v:
                recovering = False
                log.recovered(t, v_node)

            decision = decide(
                ControllerView(
                    t, v_node, prev_v_proc, cycles, pending_events,
                    recovering, brownout_count,
                )
            )
            v_proc, f, p_proc, p_draw, mode = resolve_decision(
                processor, regulator, decision, v_node, decision_cache
            )
            if recovering:
                # Load power-gated while the node recharges; whatever
                # the controller commanded is ignored until power-good.
                v_proc, f, p_proc, p_draw, mode = (0.0, 0.0, 0.0, 0.0, "halt")
            prev_v_proc = v_proc

            # DVFS transition accounting: settle lockout + rail recharge.
            if transitions is not None:
                if transitions.is_transition(
                    prev_mode, prev_setpoint_v, mode, v_proc
                ):
                    transition_count += 1
                    log.transition(t, prev_mode or "", mode, v_proc)
                    lockout_until = t + transitions.settle_time_s
                    recharge = transitions.transition_energy_j(
                        prev_setpoint_v, v_proc
                    )
                    if recharge > 0.0:
                        p_draw += recharge / dt
                if mode != "halt":
                    prev_mode = mode
                    prev_setpoint_v = v_proc
                if t < lockout_until and f > 0.0:
                    # Clock gated while the supply settles.
                    f = 0.0
                    p_proc = (
                        float(processor.leakage.power(v_proc))
                        if v_proc >= processor.min_operating_v
                        else 0.0
                    )
                    if mode == "regulated":
                        try:
                            p_draw = max(
                                p_draw,
                                regulator.input_power(
                                    v_proc, p_proc, v_in=v_node
                                ),
                            )
                        except OperatingRangeError:
                            pass
                    elif mode == "bypass":
                        p_draw = p_proc

            # Converter-path mode switch (regulated <-> bypass <-> halt).
            # Checked before the brownout block so the final switch into
            # halt is still counted when stop_on_brownout breaks the loop.
            if mode != telemetry_mode:
                if telemetry_mode is not None:
                    log.mode_switch(t, telemetry_mode, mode, v_node)
                telemetry_mode = mode

            # Brownout: the controller asked for work the supply cannot
            # run.  A running clock (the common step) rules a stall out.
            if f > 0.0:
                # Work resumed: the next stall is a fresh brownout.
                in_brownout = False
            elif (
                not in_brownout
                and decision.frequency_hz > 0.0
                and f == 0.0
                and mode == "halt"
                and decision.mode != "halt"
                and not completed
                and not recovering
            ):
                in_brownout = True
                brownout_count += 1
                log.brownout(t, v_node, recover_from_brownout)
                if stop_on_brownout:
                    if step == next_record:
                        rec_t[recorded] = t
                        rec_vnode[recorded] = v_node
                        rec_vproc[recorded] = v_proc
                        rec_f[recorded] = 0.0
                        rec_ppv[recorded] = p_pv
                        rec_pproc[recorded] = 0.0
                        rec_pdraw[recorded] = 0.0
                        rec_irr[recorded] = irr
                        rec_mode[recorded] = mode_codes["halt"]
                        recorded += 1
                    break
                if recover_from_brownout:
                    # Enter halt-and-recharge: power-gate the load until
                    # the node climbs back to the recovery threshold.
                    recovering = True
                    v_proc, f, p_proc, p_draw, mode = (
                        0.0, 0.0, 0.0, 0.0, "halt",
                    )
                    prev_v_proc = 0.0

            if step == next_record:
                rec_t[recorded] = t
                rec_vnode[recorded] = v_node
                rec_vproc[recorded] = v_proc
                rec_f[recorded] = f
                rec_ppv[recorded] = p_pv
                rec_pproc[recorded] = p_proc
                rec_pdraw[recorded] = p_draw
                rec_irr[recorded] = irr
                rec_mode[recorded] = mode_codes[mode]
                recorded += 1
                next_record += record_every

            if step == steps:
                break

            # Cycle bookkeeping and completion detection.
            new_cycles = cycles + f * dt
            if (
                target_cycles is not None
                and not completed
                and new_cycles >= target_cycles
            ):
                completed = True
                log.completed(t, cycles, f, target_cycles)
                if stop_on_completion:
                    cycles = new_cycles
                    break
            cycles = new_cycles

            # Downtime: the load is power-gated because of a brownout
            # (either recharging in recovery mode or stalled dark).
            if recovering or (in_brownout and f == 0.0):
                downtime_s += dt

            # Node update: PV source in, converter + comparators out.
            demand_w = p_draw + comparator_power
            if v_node > 1e-6:
                i_draw = demand_w / v_node
                node_collapsed = False
            else:
                # Fully collapsed node: a 0 V supply cannot source the
                # converter or the monitor electronics, so the demand is
                # explicitly dropped (everything downstream is dead) and
                # the collapse is recorded instead of the power
                # silently vanishing from the energy balance.
                i_draw = 0.0
                if demand_w > 0.0 and not node_collapsed:
                    node_collapsed = True
                    log.collapsed(t)
            v_node = apply_current(i_pv - i_draw, dt)
            if not math.isfinite(v_node):
                raise SimulationError(f"node voltage became non-finite at t={t}")

            # Comparator observation feeds the next step's view.
            if observe is not None:
                pending_events = tuple(observe(t + dt, v_node))

            t += dt

        records = (
            rec_t, rec_vnode, rec_vproc, rec_f, rec_ppv,
            rec_pproc, rec_pdraw, rec_irr, rec_mode,
        )
        result = log.result(
            t, step + 1, brownout_count, downtime_s, cycles,
            [record[:recorded] for record in records],
        )
        result.events.extend(
            [("transitions", float(transition_count))]
            if transitions is not None
            else []
        )
        return result
