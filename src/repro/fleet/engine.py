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
  one shared time grid to its end: the implicit single-diode PV solve
  (per lane on small batches, one array Newton on wide ones) and the
  capacitor integration run over every lane, and the control plane
  (:mod:`repro.fleet.control`) advances the decisions through a
  batched skip predicate and array resolution (real ``decide`` calls
  only when a tracker's own trigger conditions fire).  Rare lane
  states (recovery, brownout, node collapse) cost array work only
  while some lane is in one;
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
and skipped controller calls are provably no-ops.  A lane's events,
sim-time trace, metrics and result come from its
:class:`~repro.sim.result.RunLog`, the scalar engine's own bookkeeping.
``tests/fleet/`` asserts this across the full scenario matrix; the
differential harness is the contract.

Lanes that may stop early: the core has no lane death.  A batch whose
shared config sets ``stop_on_brownout`` (the
:class:`~repro.sim.engine.SimulationConfig` default) or
``stop_on_completion`` runs every lane on the scalar engine, which owns
the early-exit semantics; campaigns use the halt-and-recharge config
(``stop_on_brownout=False, recover_from_brownout=True``), whose lanes
all run the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, cast

import numpy as np

from repro.errors import ModelParameterError, SimulationError
from repro.core.mppt import MppTrackingController
from repro.fleet.control import (
    M_HALT,
    MODE_NAMES,
    NO_MODE,
    ControlPlane,
    classify_controller,
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
from repro.sim.result import RunLog, SimulationResult
from repro.sim.transitions import DvfsTransitionModel
from repro.storage.capacitor import Capacitor
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
    run.  The core runs every lane to the end of the grid, so a
    ``config`` with ``stop_on_brownout`` or ``stop_on_completion`` --
    the default ``SimulationConfig()`` among them -- vectorizes no
    lane; pass the campaigns' halt-and-recharge config
    (``stop_on_brownout=False, recover_from_brownout=True``) to use the
    core.

    Parameters
    ----------
    nodes:
        One :class:`FleetNode` per lane.
    config:
        Shared :class:`~repro.sim.engine.SimulationConfig` -- the fleet
        batches *homogeneous-config* shards.
    """

    def __init__(
        self,
        nodes: Sequence[FleetNode],
        config: "SimulationConfig | None" = None,
    ) -> None:
        if not nodes:
            raise ModelParameterError("a fleet needs at least one node")
        self.nodes = list(nodes)
        self.config = config or SimulationConfig()
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

        # The core runs every lane to the end of the grid, so a config
        # that may stop a lane early sends the whole batch to the
        # scalar engine.
        runs_to_end = not (cfg.stop_on_brownout or cfg.stop_on_completion)
        vectorized = [
            runs_to_end and vectorizable(node, trace, steps)
            for node, trace in zip(nodes, traces)
        ]
        fast = [i for i, ok in enumerate(vectorized) if ok]
        self.control_summary = {
            "lanes": lanes,
            "vectorized": len(fast),
            "fallback": lanes - len(fast),
        }

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
        plane = ControlPlane(
            controllers,
            processors,
            [
                cast(SwitchedCapacitorRegulator, node.regulator)
                for node in nodes
            ],
        )

        # -- SoA electrical and loop state ----------------------------
        v = np.array([node.capacitor.voltage_v for node in nodes])
        cap_c = np.array([node.capacitor.capacitance_f for node in nodes])
        cap_vmax = np.array([node.capacitor.max_voltage_v for node in nodes])
        # Leakage current, 0 for a lane that does not leak.
        cap_leak = np.array(
            [node.capacitor.leakage_current_a for node in nodes]
        )
        cycles = np.zeros(n)
        prev_vproc = np.zeros(n)
        tmode = np.full(n, NO_MODE, dtype=np.int8)
        recovering = np.zeros(n, dtype=bool)
        in_bo = np.zeros(n, dtype=bool)
        completed = np.zeros(n, dtype=bool)
        collapsed = np.zeros(n, dtype=bool)
        # Lanes in each rare state, counted as they enter and leave it:
        # a state's array work runs only while some lane is in it.
        n_recovering = n_in_bo = n_collapsed = 0
        downtime = np.zeros(n)
        bocount = np.zeros(n, dtype=np.int64)
        v_prev = v
        pend = np.zeros(n, dtype=bool)
        # The cycle count that completes a lane's job; inf for a lane
        # with no workload or whose job has completed.
        next_target = np.array(
            [np.inf if target is None else float(target) for target in targets]
        )
        comp_pow = np.array(
            [
                bank.total_power_w if bank is not None else 0.0
                for bank in comparators
            ]
        )
        pend_rows: "List[int]" = []
        pending_events: "List[tuple]" = [()] * n

        # Step-major record buffers: one row per record column, so a
        # recording step stores whole rows.
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

        # Every bank observes every step, as in the scalar engine.
        observes = [
            (k, bank.observe)
            for k, bank in enumerate(comparators)
            if bank is not None
        ]

        # One run log per lane: the scalar engine's events, trace and
        # metrics, emitted by the same code.
        logs = [
            RunLog(
                NULL_TELEMETRY if node.telemetry is None else node.telemetry,
                dt, steps,
            )
            for node in nodes
        ]

        t = 0.0
        for step in range(steps + 1):
            # One batched PV solve across all lanes.
            irr = irr_steps[step]
            i_pv = batched_current(params, v, irr)
            p_pv = v * i_pv

            # Power-good release (see the scalar engine).
            if n_recovering:
                release = recovering & (v >= cfg.recovery_voltage_v)
                for k in np.flatnonzero(release).tolist():
                    recovering[k] = False
                    n_recovering -= 1
                    logs[k].recovered(t, float(v[k]))

            # Real decide calls only where the skip predicate fires.
            need = plane.decision_flags(
                step,
                t,
                v,
                v_prev,
                recovering if n_recovering else None,
                bocount,
                pend,
            )
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

            v_proc, f, p_proc, p_draw, mode = plane.resolve(v)
            if n_recovering:
                v_proc = np.where(recovering, 0.0, v_proc)
                f = np.where(recovering, 0.0, f)
                p_proc = np.where(recovering, 0.0, p_proc)
                p_draw = np.where(recovering, 0.0, p_draw)
                mode = np.where(recovering, M_HALT, mode).astype(np.int8)

            # Converter-path mode switch telemetry.
            changed = mode != tmode
            if changed.any():
                for k in np.nonzero(changed)[0].tolist():
                    old_code = int(tmode[k])
                    if old_code != NO_MODE:
                        logs[k].mode_switch(
                            t,
                            MODE_NAMES[old_code],
                            MODE_NAMES[int(mode[k])],
                            float(v[k]),
                        )
                tmode[changed] = mode[changed]

            # Brownout: commanded work the supply cannot run.  The full
            # test runs only on a step where some lane may stall.
            starved = (f == 0.0) & (plane.dec_f > 0.0)
            if starved.any():
                entering = (
                    starved
                    & (mode == M_HALT)
                    & (plane.dec_mode != M_HALT)
                    & ~completed
                    & ~recovering
                    & ~in_bo
                )
                for k in np.flatnonzero(entering).tolist():
                    in_bo[k] = True
                    n_in_bo += 1
                    bocount[k] += 1
                    logs[k].brownout(t, float(v[k]), cfg.recover_from_brownout)
                    if cfg.recover_from_brownout:
                        recovering[k] = True
                        n_recovering += 1
                        v_proc[k] = 0.0
                        f[k] = 0.0
                        p_proc[k] = 0.0
                        p_draw[k] = 0.0
                        mode[k] = M_HALT
            if n_in_bo:
                in_bo[f > 0.0] = False
                n_in_bo = int(np.count_nonzero(in_bo))
            prev_vproc = v_proc

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

            if step == steps:
                break

            # Cycle bookkeeping and completion detection.
            new_cycles = cycles + f * dt
            completing = new_cycles >= next_target
            if completing.any():
                for k in np.flatnonzero(completing).tolist():
                    completed[k] = True
                    next_target[k] = np.inf
                    logs[k].completed(
                        t,
                        float(cycles[k]),
                        float(f[k]),
                        cast(float, targets[k]),
                    )
            cycles = new_cycles

            if n_recovering or n_in_bo:
                downtime[recovering | (in_bo & (f == 0.0))] += dt

            # Node demand and the batched capacitor update, preserving
            # the scalar expression order (leak subtraction only when
            # leaking and charged; left-associative V + (I*dt)/C; clamp
            # to [0, rating]).
            demand = p_draw + comp_pow
            if v.min() > 1e-6:
                # Every node is charged: subtracting a zero leak leaves
                # a non-leaking lane's current bit for bit.
                if n_collapsed:
                    collapsed[:] = False
                    n_collapsed = 0
                adj = (i_pv - demand / v) - cap_leak
            else:
                # A collapsed node cannot source its demand.
                ok_v = v > 1e-6
                i_draw = np.where(ok_v, demand / np.where(ok_v, v, 1.0), 0.0)
                collapsed &= ~ok_v
                collapsing = ~ok_v & (demand > 0.0) & ~collapsed
                for k in np.flatnonzero(collapsing).tolist():
                    collapsed[k] = True
                    logs[k].collapsed(t)
                n_collapsed = int(np.count_nonzero(collapsed))
                i_net = i_pv - i_draw
                adj = np.where(
                    (cap_leak > 0.0) & (v > 0.0), i_net - cap_leak, i_net
                )
            v_next = np.minimum(
                np.maximum(v + adj * dt / cap_c, 0.0), cap_vmax
            )
            if not np.all(np.isfinite(v_next)):
                raise SimulationError(
                    f"node voltage became non-finite at t={t}"
                )
            v_prev = v
            v = v_next

            # Comparator observations feed the next step's views.
            if pend_rows:
                for k in pend_rows:
                    pending_events[k] = ()
                pend[pend_rows] = False
                pend_rows = []
            if observes:
                t_next = t + dt
                v_now = v.tolist()
                for k, observe in observes:
                    new_events = observe(t_next, v_now[k])
                    if new_events:
                        pending_events[k] = new_events
                        pend[k] = True
                        pend_rows.append(k)

            t += dt

        # Every lane reaches the end of the grid.
        records = (
            rec_t, rec_vnode, rec_vproc, rec_f, rec_ppv,
            rec_pproc, rec_pdraw, rec_irr, rec_mode,
        )
        results: List[SimulationResult] = []
        for k, node in enumerate(nodes):
            # The scalar engine mutates its capacitor in place
            # throughout; the core writes the final voltage back.
            node.capacitor.charge(float(v[k]))
            results.append(
                logs[k].result(
                    t, steps + 1, int(bocount[k]), float(downtime[k]),
                    float(cycles[k]), [record[:, k] for record in records],
                )
            )
        return results
