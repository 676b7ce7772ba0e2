"""The batched (structure-of-arrays) fleet simulation engine.

:class:`FleetSimulator` advances ``B`` *independent* harvest-store-
compute nodes.  Each run is split in three parts:

* a per-lane **classifier** (:func:`vectorizable`) that admits a lane
  to the vectorized core when its cell is a plain
  :class:`~repro.pv.cell.SingleDiodeCell`, its trace can be sampled up
  front, its controller is a plain MPP tracker
  (:func:`repro.fleet.control.classify_controller`) and its cycle
  target survives the float mirror;
* the **vectorized core**, which marches the admitted lanes through
  one shared time grid: the implicit single-diode PV solve (per lane
  on small batches, one array Newton on wide ones) and the capacitor
  integration run over the live lanes, and the control plane
  (:mod:`repro.fleet.control`) advances the decisions through a
  batched skip predicate and masked array resolution (real
  ``decide`` calls only when a tracker's own trigger conditions
  fire);
* every other lane -- any other controller among them -- runs through
  the scalar :class:`~repro.sim.engine.TransientSimulator` itself, so
  the scalar engine holds the only per-lane copy of the step
  semantics.

Per-lane results are merged back in input lane order, and each lane's
capacitor is left at its final voltage; together they are the whole
output of a run.

**The equivalence guarantee.**  Lane ``i`` of a fleet run is
bit-identical to a scalar :class:`~repro.sim.engine.TransientSimulator`
run of the same node.  In the core every float operation happens in
the same order on the same doubles (the PV solve is the scalar solve
itself or an array Newton that freezes each lane exactly where the
scalar iteration would return -- see :mod:`repro.fleet.pv` -- the
vectorised capacitor update preserves the scalar expression order,
and the control plane's resolution replays
:func:`repro.sim.engine.resolve_decision` expression by expression),
and skipped controller calls are provably no-ops.
``tests/fleet/`` asserts this across the full scenario matrix; the
differential harness is the contract.

Masking semantics: a core lane dies (``stop_on_brownout`` break,
``stop_on_completion`` break) by leaving the live mask -- its state
freezes at its own end step while surviving lanes march on, so lane
death never perturbs a neighbour (also a tested property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, cast

import numpy as np

from repro.errors import ModelParameterError, SimulationError
from repro.core.mppt import MppTrackingController
from repro.fleet.control import (
    M_HALT,
    MODE_NAMES,
    NO_MODE,
    ComparatorLens,
    ControlPlane,
    classify_controller,
    shared_decision_caches,
)
from repro.fleet.pv import CellParams, batched_current
from repro.monitor.comparator import ComparatorBank
from repro.processor.energy import ProcessorModel
from repro.processor.workloads import Workload
from repro.pv.cell import SingleDiodeCell
from repro.pv.traces import IrradianceTrace
from repro.regulators.base import Regulator
from repro.regulators.switched_capacitor import SwitchedCapacitorRegulator
from repro.sim.dvfs import ControllerView, DvfsController
from repro.sim.engine import (
    _IRR_PRECOMPUTE_MAX_SAMPLES,
    SimulationConfig,
    TransientSimulator,
)
from repro.sim.result import SimulationResult
from repro.sim.transitions import DvfsTransitionModel
from repro.storage.capacitor import Capacitor
from repro.telemetry.profiling import Stopwatch
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


@dataclass
class FleetNode:
    """One lane of a fleet: the same substrates a scalar run takes.

    ``telemetry`` is per-lane so each node's metric registry matches
    the scalar engine's per-run session exactly.
    """

    cell: SingleDiodeCell
    capacitor: Capacitor
    processor: ProcessorModel
    regulator: Regulator
    controller: DvfsController
    comparators: "ComparatorBank | None" = None
    workload: "Workload | None" = None
    transitions: "DvfsTransitionModel | None" = None
    telemetry: "Telemetry | None" = None

    def simulator(self, config: SimulationConfig) -> TransientSimulator:
        """This lane as a scalar :class:`TransientSimulator` run."""
        return TransientSimulator(
            cell=self.cell,
            node_capacitor=self.capacitor,
            processor=self.processor,
            regulator=self.regulator,
            controller=self.controller,
            comparators=self.comparators,
            workload=self.workload,
            config=config,
            transitions=self.transitions,
            telemetry=self.telemetry,
        )


def vectorizable(
    node: FleetNode, trace: IrradianceTrace, steps: int
) -> bool:
    """Whether the lane runs in the vectorized core (else the scalar engine).

    A lane vectorizes only when the batched PV solve applies (a plain
    :class:`SingleDiodeCell`), its irradiance can be precomputed for
    all ``steps + 1`` samples (``step_samples``, within
    ``_IRR_PRECOMPUTE_MAX_SAMPLES``), its controller/regulator pass
    every :func:`classify_controller` guard, and its workload's cycle
    target is exactly representable as a float.
    """
    if type(node.cell) is not SingleDiodeCell:
        return False
    if (
        steps + 1 > _IRR_PRECOMPUTE_MAX_SAMPLES
        or getattr(trace, "step_samples", None) is None
    ):
        return False
    target = node.workload.cycles if node.workload is not None else None
    if target is not None and float(target) != target:
        return False  # the float mirror would round
    return classify_controller(
        node.controller,
        node.processor,
        node.regulator,
        node.transitions is not None,
    )


class FleetSimulator:
    """Simulate a batch of independent nodes on per-lane traces.

    Lanes that :func:`vectorizable` admits advance together through
    the vectorized core; every other lane runs through
    :class:`~repro.sim.engine.TransientSimulator` (see the module
    docstring).  Either way each lane is bit-identical to its scalar
    run.

    Parameters
    ----------
    nodes:
        One :class:`FleetNode` per lane.
    config:
        Shared :class:`~repro.sim.engine.SimulationConfig` -- the fleet
        batches *homogeneous-config* shards.
    telemetry:
        Optional *fleet-level* session for control-plane counters
        (``fleet.lanes``, ``fleet.lanes.vectorized``, ``fleet.lanes.
        fallback``).  Per-lane sessions stay on the nodes so lane
        metrics remain bit-identical to scalar runs.
    """

    def __init__(
        self,
        nodes: Sequence[FleetNode],
        config: "SimulationConfig | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if not nodes:
            raise ModelParameterError("a fleet needs at least one node")
        self.nodes = list(nodes)
        self.config = config or SimulationConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Populated by :meth:`run`; lane classification counts
        #: (``{"lanes", "vectorized", "fallback"}``).
        self.control_summary: "Dict[str, object] | None" = None

    # -- the run -------------------------------------------------------------

    def run(
        self,
        traces: Sequence[IrradianceTrace],
        duration_s: "float | None" = None,
    ) -> List[SimulationResult]:
        """Advance every lane over its trace; per-lane results in order.

        ``duration_s`` defaults to the (common) trace duration; lanes
        share one time grid, so heterogeneous trace durations require
        an explicit ``duration_s``.  Each lane's capacitor is mutated
        to its final voltage, as the scalar engine does.
        """
        nodes = self.nodes
        lanes = len(nodes)
        if len(traces) != lanes:
            raise ModelParameterError(
                f"got {len(traces)} traces for {lanes} nodes"
            )
        cfg = self.config
        if duration_s is None:
            durations = {trace.duration_s for trace in traces}
            if len(durations) != 1:
                raise ModelParameterError(
                    "lanes have different trace durations "
                    f"({sorted(durations)}); pass duration_s explicitly"
                )
            duration_s = durations.pop()
        if duration_s <= 0.0:
            raise ModelParameterError(
                f"duration must be positive, got {duration_s}"
            )
        steps = int(np.ceil(duration_s / cfg.time_step_s))
        if steps > cfg.max_steps:
            raise SimulationError(
                f"{steps} steps exceed max_steps={cfg.max_steps}; "
                "raise time_step_s or max_steps"
            )

        vectorized = [
            vectorizable(node, trace, steps)
            for node, trace in zip(nodes, traces)
        ]
        fast = [i for i, ok in enumerate(vectorized) if ok]
        self.control_summary = {
            "lanes": lanes,
            "vectorized": len(fast),
            "fallback": lanes - len(fast),
        }
        fleet_tel = self.telemetry
        fleet_tel.count("fleet.lanes", float(lanes))
        fleet_tel.count("fleet.lanes.vectorized", float(len(fast)))
        fleet_tel.count("fleet.lanes.fallback", float(lanes - len(fast)))

        results: "Dict[int, SimulationResult]" = {}
        if fast:
            core = self._run_vectorized(
                [nodes[i] for i in fast],
                [traces[i] for i in fast],
                steps,
            )
            results.update(zip(fast, core))
        for i, node in enumerate(nodes):
            if not vectorized[i]:
                results[i] = node.simulator(cfg).run(traces[i], duration_s)
        return [results[i] for i in range(lanes)]

    # -- the vectorized core -------------------------------------------------

    def _run_vectorized(
        self,
        nodes: Sequence[FleetNode],
        traces: Sequence[IrradianceTrace],
        steps: int,
    ) -> List[SimulationResult]:
        """March classified lanes through one shared time grid."""
        cfg = self.config
        dt = cfg.time_step_s
        n = len(nodes)
        for node in nodes:
            node.controller.reset()
            if node.comparators is not None:
                node.comparators.reset()

        # -- per-lane constants ---------------------------------------
        # The classifier admits MPP trackers on SC regulators only.
        controllers = [
            cast(MppTrackingController, node.controller) for node in nodes
        ]
        processors = [node.processor for node in nodes]
        comparators = [node.comparators for node in nodes]
        tels = [
            node.telemetry if node.telemetry is not None else NULL_TELEMETRY
            for node in nodes
        ]
        targets: "List[float | None]" = [
            node.workload.cycles if node.workload is not None else None
            for node in nodes
        ]
        params = CellParams.from_cells([node.cell for node in nodes])
        assert params is not None  # the classifier admits plain cells only
        # Per-step irradiance rows, one vectorised sweep per trace
        # (bit-identical to per-step calls; see step_samples).
        irr_steps = np.ascontiguousarray(
            np.stack([trace.step_samples(dt, steps) for trace in traces]).T
        )
        # Fleet-level decision memo: lanes with fingerprint-identical
        # processors share one (v_eval, commanded_hz) cache (value-
        # transparent -- sharing changes hit rates, never values).
        plane = ControlPlane(
            controllers,
            processors,
            [
                cast(SwitchedCapacitorRegulator, node.regulator)
                for node in nodes
            ],
            shared_decision_caches(processors),
        )

        # -- SoA electrical and loop state ----------------------------
        v = np.array([node.capacitor.voltage_v for node in nodes])
        cap_c = np.array([node.capacitor.capacitance_f for node in nodes])
        cap_vmax = np.array([node.capacitor.max_voltage_v for node in nodes])
        cap_leak = np.array(
            [node.capacitor.leakage_current_a for node in nodes]
        )
        alive = np.ones(n, dtype=bool)
        cycles = np.zeros(n)
        prev_vproc = np.zeros(n)
        tmode = np.full(n, NO_MODE, dtype=np.int8)
        recovering = np.zeros(n, dtype=bool)
        in_bo = np.zeros(n, dtype=bool)
        completed = np.zeros(n, dtype=bool)
        collapsed = np.zeros(n, dtype=bool)
        downtime = np.zeros(n)
        bocount = np.zeros(n, dtype=np.int64)
        v_prev = v
        pend = np.zeros(n, dtype=bool)
        i_net = np.zeros(n)
        target_arr = np.array(
            [np.nan if target is None else float(target) for target in targets]
        )
        has_target = ~np.isnan(target_arr)
        comp_pow = np.array(
            [
                bank.total_power_w if bank is not None else 0.0
                for bank in comparators
            ]
        )
        pend_rows: "List[int]" = []
        pending_events: "List[tuple]" = [()] * n
        completion_time: "List[float | None]" = [None] * n
        brownout_time: "List[float | None]" = [None] * n
        outage_started_s: "List[float | None]" = [None] * n
        events: "List[list]" = [[] for _ in range(n)]

        # Step-major record buffers: one row per record column, so a
        # recording step stores whole rows, dead lanes included.  A
        # lane's entries past its own ``recorded[k]`` are never read.
        record_count = steps // cfg.record_every + 1
        rec_t = np.empty((record_count, n))
        rec_vnode = np.empty((record_count, n))
        rec_vproc = np.empty((record_count, n))
        rec_f = np.empty((record_count, n))
        rec_ppv = np.empty((record_count, n))
        rec_pproc = np.empty((record_count, n))
        rec_pdraw = np.empty((record_count, n))
        rec_irr = np.empty((record_count, n))
        rec_mode = np.empty((record_count, n), dtype=np.int8)
        recorded = [0] * n

        # Comparator service split: noiseless banks go through the
        # skip-predicate lens; noisy banks must observe every step
        # (their noise stream advances per sample).
        lens: "ComparatorLens | None" = None
        noisy_banks: "List[Tuple[int, ComparatorBank]]" = []
        served_pos: "List[int]" = []
        served_banks: "List[ComparatorBank]" = []
        for k, bank in enumerate(comparators):
            if bank is None:
                continue
            if bank.noiseless:
                served_pos.append(k)
                served_banks.append(bank)
            else:
                noisy_banks.append((k, bank))
        if served_pos:
            lens = ComparatorLens(served_pos, served_banks)

        watch = Stopwatch()
        for tel in tels:
            tel.begin_span(
                "engine.run", 0.0, track="engine",
                dt_s=dt, planned_steps=steps,
            )

        def finish_lane(
            k: int, lane_step: int, lane_t: float, final_cycles: float
        ) -> None:
            """The scalar engine's after-loop telemetry, at lane end."""
            tel = tels[k]
            outage_start = outage_started_s[k]
            if outage_start is not None:
                tel.end_span(lane_t)
                tel.observe("brownout.outage_s", lane_t - outage_start)
            tel.end_span(lane_t, steps=float(lane_step + 1))
            tel.count("engine.steps", float(lane_step + 1))
            tel.gauge("brownout.downtime_s", float(downtime[k]))
            tel.gauge("engine.final_cycles", final_cycles)
            tel.profile("engine.run_wall_s", watch.elapsed_s())
            alive[k] = False

        all_alive = True
        t = 0.0
        step = 0
        for step in range(steps + 1):
            # One batched PV solve across all live lanes.
            irr = irr_steps[step]
            i_pv = batched_current(params, v, irr, alive)
            p_pv = v * i_pv

            any_died = False

            # Power-good release (see the scalar engine).
            if recovering.any():
                release = alive & recovering & (v >= cfg.recovery_voltage_v)
                for k in np.nonzero(release)[0].tolist():
                    tel = tels[k]
                    recovering[k] = False
                    events[k].append(("recovered", t))
                    tel.event(
                        "recovered", t, track="engine", node_v=float(v[k])
                    )
                    outage_start = outage_started_s[k]
                    if outage_start is not None:
                        tel.end_span(t)
                        tel.observe("brownout.outage_s", t - outage_start)
                        outage_started_s[k] = None

            # Real decide calls only where the skip predicate fires.
            need = plane.decision_flags(
                step, t, v, v_prev, recovering, bocount, pend
            )
            need &= alive
            if need.any():
                for k in np.nonzero(need)[0].tolist():
                    controller = controllers[k]
                    if step > 0:
                        controller.sync_last_node_v(float(v_prev[k]))
                    view = ControllerView(
                        time_s=t,
                        node_voltage_v=float(v[k]),
                        processor_voltage_v=float(prev_vproc[k]),
                        cycles_done=float(cycles[k]),
                        comparator_events=pending_events[k],
                        recovering=bool(recovering[k]),
                        brownout_count=int(bocount[k]),
                    )
                    plane.refresh(k, controller.decide(view))

            v_proc, f, p_proc, p_draw, mode = plane.resolve(v, alive)
            if recovering.any():
                gate = recovering & alive
                v_proc = np.where(gate, 0.0, v_proc)
                f = np.where(gate, 0.0, f)
                p_proc = np.where(gate, 0.0, p_proc)
                p_draw = np.where(gate, 0.0, p_draw)
                mode = np.where(gate, M_HALT, mode).astype(np.int8)
            prev_vproc = np.where(alive, v_proc, prev_vproc)

            # Converter-path mode switch telemetry.
            changed = alive & (mode != tmode)
            if changed.any():
                for k in np.nonzero(changed)[0].tolist():
                    old_code = int(tmode[k])
                    if old_code != NO_MODE:
                        tels[k].count("regulator.mode_switches")
                        tels[k].event(
                            "regulator.mode_switch", t, track="engine",
                            previous=MODE_NAMES[old_code],
                            new=MODE_NAMES[int(mode[k])],
                            node_v=float(v[k]),
                        )
                tmode[changed] = mode[changed]

            # Brownout: commanded work the supply cannot run.
            stalled = (
                (plane.dec_f > 0.0)
                & (f == 0.0)
                & (mode == M_HALT)
                & (plane.dec_mode != M_HALT)
                & ~completed
                & ~recovering
                & alive
            )
            entering = stalled & ~in_bo
            if entering.any():
                for k in np.nonzero(entering)[0].tolist():
                    tel = tels[k]
                    in_bo[k] = True
                    bocount[k] += 1
                    if brownout_time[k] is None:
                        brownout_time[k] = t
                    events[k].append(("brownout", t))
                    tel.count("brownout.count")
                    tel.event(
                        "brownout", t, track="engine", node_v=float(v[k])
                    )
                    if cfg.stop_on_brownout:
                        # A stalled lane already resolved to halt with
                        # zero f, p_proc and p_draw, so the row stored
                        # below at a recording step is the scalar
                        # engine's final record; either way the lane
                        # keeps every record column up to this step.
                        recorded[k] = step // cfg.record_every + 1
                        finish_lane(k, step, t, float(cycles[k]))
                        any_died = True
                    elif cfg.recover_from_brownout:
                        recovering[k] = True
                        if outage_started_s[k] is None:
                            tel.begin_span(
                                "brownout.outage", t, track="engine"
                            )
                            outage_started_s[k] = t
                        v_proc[k] = 0.0
                        f[k] = 0.0
                        p_proc[k] = 0.0
                        p_draw[k] = 0.0
                        mode[k] = M_HALT
                        prev_vproc[k] = 0.0
            in_bo[(f > 0.0) & alive] = False

            if step % cfg.record_every == 0:
                col = step // cfg.record_every
                rec_t[col] = t
                rec_vnode[col] = v
                rec_vproc[col] = v_proc
                rec_f[col] = f
                rec_ppv[col] = p_pv
                rec_pproc[col] = p_proc
                rec_pdraw[col] = p_draw
                rec_irr[col] = irr
                rec_mode[col] = mode

            if step < steps:
                # Cycle bookkeeping and completion detection.
                updatable = alive.copy()
                new_cycles = cycles + f * dt
                completing = (
                    alive
                    & has_target
                    & ~completed
                    & (new_cycles >= target_arr)
                )
                if completing.any():
                    for k in np.nonzero(completing)[0].tolist():
                        tel = tels[k]
                        completed[k] = True
                        target = cast(float, targets[k])
                        f_k = float(f[k])
                        if f_k > 0.0:
                            crossed_t = t + (target - float(cycles[k])) / f_k
                        else:
                            crossed_t = t
                        completion_time[k] = crossed_t
                        events[k].append(("completed", crossed_t))
                        tel.event(
                            "workload.completed", crossed_t,
                            track="engine", cycles=float(target),
                        )
                        if cfg.stop_on_completion:
                            recorded[k] = step // cfg.record_every + 1
                            finish_lane(k, step, t, float(new_cycles[k]))
                            any_died = True
                cycles = np.where(updatable, new_cycles, cycles)

                idle = alive & (recovering | (in_bo & (f == 0.0)))
                downtime = np.where(idle, downtime + dt, downtime)

                # Node demand; the capacitor integration is batched.
                demand = p_draw + comp_pow
                ok_v = v > 1e-6
                i_draw = np.where(ok_v, demand / np.where(ok_v, v, 1.0), 0.0)
                collapsed = np.where(alive & ok_v, False, collapsed)
                collapsing = alive & ~ok_v & (demand > 0.0) & ~collapsed
                if collapsing.any():
                    for k in np.nonzero(collapsing)[0].tolist():
                        collapsed[k] = True
                        events[k].append(("node_collapse", t))
                        tels[k].event("node.collapse", t, track="engine")
                # Dead lanes get don't-care values; the capacitor
                # update never applies them (live mask).
                i_net = i_pv - i_draw

            if step == steps:
                break
            if any_died:
                all_alive = False
                if not alive.any():
                    break

            # Masked capacitor update across all live lanes, preserving
            # the scalar expression order (leak subtraction only when
            # leaking and charged; left-associative V + (I*dt)/C; clamp
            # to [0, rating]).
            adj = np.where(
                (cap_leak > 0.0) & (v > 0.0), i_net - cap_leak, i_net
            )
            v_next = np.minimum(
                np.maximum(v + adj * dt / cap_c, 0.0), cap_vmax
            )
            if not np.all(np.isfinite(v_next if all_alive else v_next[alive])):
                raise SimulationError(
                    f"node voltage became non-finite at t={t}"
                )
            v_prev = v
            v = v_next if all_alive else np.where(alive, v_next, v)

            # Comparator observations feed the next step's views.
            if pend_rows:
                for k in pend_rows:
                    pending_events[k] = ()
                pend[pend_rows] = False
                pend_rows = []
            if lens is not None:
                for row in lens.rows_to_observe(v, alive):
                    rr = int(row)
                    k = int(lens.positions[rr])
                    bank = comparators[k]
                    assert bank is not None
                    new_events = bank.observe(t + dt, float(v[k]))
                    lens.refresh(rr)
                    if new_events:
                        pending_events[k] = tuple(new_events)
                        pend[k] = True
                        pend_rows.append(k)
            for k, bank in noisy_banks:
                if alive[k]:
                    new_events = bank.observe(t + dt, float(v[k]))
                    if new_events:
                        pending_events[k] = tuple(new_events)
                        pend[k] = True
                        pend_rows.append(k)

            t += dt

        # Lanes that reached the end of the grid finish here, exactly
        # like the scalar engine's after-loop block.
        for k in range(n):
            if alive[k]:
                recorded[k] = step // cfg.record_every + 1
                finish_lane(k, step, t, float(cycles[k]))

        results: List[SimulationResult] = []
        for k, node in enumerate(nodes):
            # The scalar engine mutates its capacitor in place
            # throughout; the core writes the final voltage back.
            node.capacitor.charge(float(v[k]))
            m = recorded[k]
            result = SimulationResult(
                time_s=rec_t[:m, k].copy(),
                node_voltage_v=rec_vnode[:m, k].copy(),
                processor_voltage_v=rec_vproc[:m, k].copy(),
                frequency_hz=rec_f[:m, k].copy(),
                harvest_power_w=rec_ppv[:m, k].copy(),
                processor_power_w=rec_pproc[:m, k].copy(),
                draw_power_w=rec_pdraw[:m, k].copy(),
                irradiance=rec_irr[:m, k].copy(),
                mode=rec_mode[:m, k].copy(),
                completed=bool(completed[k]),
                completion_time_s=completion_time[k],
                browned_out=brownout_time[k] is not None,
                brownout_time_s=brownout_time[k],
                brownout_count=int(bocount[k]),
                downtime_s=float(downtime[k]),
                final_cycles=float(cycles[k]),
                events=events[k],
                metrics=tels[k].result_metrics(),
            )
            results.append(result)
        return results
