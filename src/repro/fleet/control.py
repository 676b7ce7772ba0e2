"""Vectorized control plane for the batched fleet engine.

The scalar :class:`~repro.sim.engine.TransientSimulator` calls
``controller.decide`` and :func:`~repro.sim.engine.resolve_decision`
once per lane per step.  For the stock controller families those calls
are overwhelmingly no-ops: a fixed-point controller returns the same
decision forever, an MPP tracker only re-tunes when a comparator pair
or probe threshold fires, a plan follower only moves at slot
boundaries.  The control plane exploits that by keeping the
*controllers as the source of truth* while mirroring exactly the state
that determines when the next real ``decide`` call is needed:

* **classification** (:func:`classify_controller`): at the start of a
  fleet run each lane's controller is assigned a vectorization
  family; unknown subclasses, overridden ``decide`` methods, or lanes
  with DVFS transition models run on the scalar engine instead.
* **skip predicates** (:meth:`ControlPlane.decision_flags`): per
  family, a masked numpy expression reproducing the controller's own
  trigger conditions flags the lanes whose ``decide`` could mutate
  state or change its output this step.  Flagged lanes get a *real*
  ``decide`` call on a faithfully reconstructed view; skipped steps
  are provably no-ops.
* **vector resolution** (:meth:`ControlPlane.resolve`): between real
  calls each lane's decision is constant, so its
  ``resolve_decision`` outcome collapses into a small per-lane record
  -- constant halt, a regulated setpoint whose only per-step work is
  the switched-capacitor ratio scan, or a bypass point evaluated
  through the (elementwise, hence batchable) processor models.  The
  ratio scan itself is hoisted into a per-band-plan
  :class:`ScBandTable` evaluated as array ops in the exact expression
  order of ``SwitchedCapacitorRegulator._best_band``, so every float
  it produces is bit-identical to the scalar loop by construction
  (asserted by the differential harness in ``tests/fleet``).

Bit-exactness ground rules observed throughout (empirically verified
in the differential tests):

* numpy elementwise ``+ - * /``, ``np.minimum``/``np.maximum``,
  ``np.exp``/``np.log1p``/``np.clip`` and non-integer ``**`` match
  the equivalent python-float expression for float64 operands;
* python ``x ** 2`` (libm ``pow``) is *not* always ``x * x``; the
  planner energy gate therefore keeps the scalar expression for the
  (rare) lanes inside a guard band around the threshold and decides
  every other lane with a vectorized approximation that provably
  agrees (:meth:`ControlPlane._planner_gate`);
* expression order and association are preserved verbatim -- the
  point is never "close", always "equal".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence, cast

import numpy as np

from repro.core.duty_cycle import DutyCycleController
from repro.core.mppt import MppTrackingController
from repro.errors import ModelParameterError
from repro.monitor.comparator import ComparatorBank
from repro.parallel.ids import stable_fingerprint
from repro.planner.adapter import PlanController, RecedingHorizonController
from repro.planner.dp import PlannerAction
from repro.processor.energy import ProcessorModel
from repro.regulators.base import Regulator
from repro.regulators.switched_capacitor import (
    ScBandPlan,
    SwitchedCapacitorRegulator,
)
from repro.sim.dvfs import (
    BypassController,
    ConstantSpeedController,
    ControlDecision,
    DvfsController,
    FixedOperatingPointController,
)
from repro.sim.engine import clamped_frequency_and_power
from repro.sim.result import SimulationResult

#: Decision-mode codes shared with :class:`SimulationResult` records.
M_REG: int = SimulationResult.MODE_CODES["regulated"]
M_BYP: int = SimulationResult.MODE_CODES["bypass"]
M_HALT: int = SimulationResult.MODE_CODES["halt"]

#: Mode-code -> mode-name (inverse of ``SimulationResult.MODE_CODES``).
MODE_NAMES: Dict[int, str] = {
    code: name for name, code in SimulationResult.MODE_CODES.items()
}

#: Vectorization family -> the controller class whose ``decide`` the
#: family's skip predicate describes.  A lane is only classified into
#: a family when its controller is an instance of the base class *and*
#: has not overridden ``decide`` (a subclass with custom behaviour
#: must fall back).
FAMILY_BASES: Dict[str, type] = {
    "fixed": FixedOperatingPointController,
    "constant_speed": ConstantSpeedController,
    "bypass": BypassController,
    "duty_cycle": DutyCycleController,
    "mppt": MppTrackingController,
    "plan": PlanController,
    "receding": RecedingHorizonController,
}

#: Stable family -> small-int code for :class:`FleetState` snapshots.
FAMILY_CODES: Dict[str, int] = {
    name: code for code, name in enumerate(sorted(FAMILY_BASES))
}

#: ``FleetState.control_family`` code for lanes run on the scalar engine.
FALLBACK_FAMILY: int = -1

#: Families whose controllers can emit bypass decisions (and hence
#: need the processor models evaluated at the node voltage).
_BYPASS_CAPABLE = frozenset(
    ("bypass", "duty_cycle", "mppt", "plan", "receding")
)

# Per-lane resolution classes (what resolve_decision collapses to
# between real decide calls).
K_HALT0 = 0  # halt decision: (0, 0, 0, 0, halt)
K_CONSTHALT = 1  # constant (v_out, 0, 0, 0, halt) every step
K_REG = 2  # regulated: per-step switched-capacitor band scan
K_BYP = 3  # bypass: per-step processor evaluation at the node voltage
K_LAZY = 4  # planner action not yet constructed (energy gate closed)

# Duty-cycle mirror states.
DU_IDLE = 0
DU_RUNNING = 1
DU_PAUSED = 2

#: Relative guard band around the planner energy gate inside which the
#: scalar expression is re-evaluated per lane.  The vectorized
#: approximation (``v * v`` instead of python ``v ** 2``) differs by
#: at most a few ulps (~1e-16 relative); 1e-9 is millions of ulps of
#: margin while still resolving almost every lane without python.
_GATE_GUARD = 1e-9


def _share_key(obj: Any) -> Any:
    """Grouping key for value-identical model objects.

    Prefers the content fingerprint (so distinct-but-equal models share
    caches and band tables); falls back to object identity, which is
    always safe, when the object is not fingerprintable.
    """
    try:
        return stable_fingerprint(obj)
    except (ModelParameterError, TypeError, ValueError):
        return f"id:{id(obj)}"


def shared_decision_caches(
    processors: Sequence[ProcessorModel],
) -> "list[dict[tuple[float, float], tuple[float, float]]]":
    """One decision memo per *distinct* processor model.

    The scalar engine keeps a per-run ``(v_eval, commanded_hz) ->
    (f, p_proc)`` memo; the mapping is a pure function of the
    processor model, so lanes whose processors share a
    :func:`~repro.parallel.ids.stable_fingerprint` can share one memo.
    Sharing only changes hit rates, never values, so it is
    value-transparent to the bit-identity contract.
    """
    by_key: "dict[Any, dict[tuple[float, float], tuple[float, float]]]" = {}
    out: "list[dict[tuple[float, float], tuple[float, float]]]" = []
    for processor in processors:
        out.append(by_key.setdefault(_share_key(processor), {}))
    return out


def classify_controller(
    controller: DvfsController,
    processor: ProcessorModel,
    regulator: "Regulator | None",
    has_transitions: bool,
) -> "str | None":
    """The lane's vectorization family, or ``None`` for the scalar engine.

    A lane vectorizes only when every assumption the family's skip
    predicate and vector resolution rely on is verified:

    * the controller class declares the family tag, is an instance of
      the family base, and has not overridden ``decide``;
    * the lane has no DVFS transition model (transition bookkeeping is
      inherently per-lane sequential);
    * non-bypass families run exactly
      :class:`SwitchedCapacitorRegulator` (the only regulator whose
      band scan is hoisted into a table);
    * bypass-capable families need the frequency model defined down to
      ``min_operating_v`` so group evaluation can pad inactive lanes
      with an in-range voltage;
    * integer cycle counts must survive the float mirror exactly.
    """
    family = getattr(type(controller), "VECTOR_FAMILY", None)
    if family is None or has_transitions:
        return None
    base = FAMILY_BASES.get(family)
    if base is None or not isinstance(controller, base):
        return None
    if type(controller).decide is not base.decide:
        return None
    if family != "bypass" and type(regulator) is not SwitchedCapacitorRegulator:
        return None
    if family in _BYPASS_CAPABLE and (
        processor.frequency.min_voltage_v > processor.min_operating_v
    ):
        return None
    if family == "constant_speed":
        total = cast(ConstantSpeedController, controller).total_cycles
        if float(total) != total:
            return None
    elif family == "duty_cycle":
        per_job = cast(DutyCycleController, controller).cycles_per_job
        if float(per_job) != per_job:
            return None
    elif family in ("plan", "receding"):
        plan_total = cast(PlanController, controller).total_cycles
        if plan_total is not None and float(plan_total) != plan_total:
            return None
    return family


class ScBandTable:
    """Precomputed switched-capacitor band scan for one band plan.

    Mirrors :meth:`SwitchedCapacitorRegulator.band_plan` constants and
    replays ``_best_band`` as masked array operations in the *exact*
    scalar expression order, so the winning band's input power (and
    hence every downstream float) is bit-identical by construction.
    Lanes whose regulators share a band plan share one table.
    """

    def __init__(self, plan: ScBandPlan) -> None:
        self.plan = plan
        self.ratios: "tuple[float, ...]" = plan.ratios
        self.switching_drop_v = plan.switching_drop_v
        self.fixed_loss_w = plan.fixed_loss_w
        self.fixed_reference_v = plan.fixed_loss_reference_v
        self.output_impedance_ohm = plan.output_impedance_ohm
        self.min_output_v = plan.min_output_v
        self.max_output_v = plan.max_output_v
        self.efficiency_derating = plan.efficiency_derating

    def scan(
        self,
        v_in: np.ndarray,
        v_out: np.ndarray,
        i_out: np.ndarray,
        switching_w: np.ndarray,
        i_threshold: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(feasible, input_power_w)`` of the best band per lane.

        ``switching_w`` and ``i_threshold`` (``i_out`` minus the
        feasibility tolerance) are per-lane constants precomputed from
        the regulated setpoint; ``v_in`` is the live node voltage.
        Infeasible lanes (no band, or a non-positive input voltage)
        report ``feasible=False`` -- the scalar path's
        ``OperatingRangeError -> halt`` degradation.
        """
        ratio_q = v_in / self.fixed_reference_v
        fixed_w = self.fixed_loss_w * ratio_q * ratio_q
        best = np.full(v_in.shape, np.inf)
        for ratio_f in self.ratios:
            v_no_load = ratio_f * v_in
            headroom = v_no_load - v_out
            current_limit = np.where(
                headroom > 0.0, headroom / self.output_impedance_ohm, 0.0
            )
            usable = (current_limit >= i_threshold) & (v_no_load > v_out)
            p_in = v_no_load * i_out + switching_w + fixed_w
            take = usable & (p_in < best)
            best = np.where(take, p_in, best)
        feasible = (best < np.inf) & (v_in > 0.0)
        p_draw = np.where(feasible, best / self.efficiency_derating, 0.0)
        return feasible, p_draw


class ControlPlane:
    """Batched decision path for the vectorizable lanes of a fleet.

    Constructed once per run over the classified lanes, after
    controller resets; every array is indexed by the lane's position
    in that batch.
    """

    def __init__(
        self,
        families: Sequence[str],
        controllers: Sequence[DvfsController],
        processors: Sequence[ProcessorModel],
        regulators: Sequence["Regulator | None"],
        caches: Sequence["dict[tuple[float, float], tuple[float, float]]"],
    ) -> None:
        n = len(families)
        self.n = n
        self.families = list(families)
        self._controllers = list(controllers)
        self._processors = list(processors)
        self._caches = list(caches)

        def positions(*names: str) -> np.ndarray:
            return np.array(
                [k for k, fam in enumerate(self.families) if fam in names],
                dtype=np.intp,
            )

        self.cs_pos = positions("constant_speed")
        self.du_pos = positions("duty_cycle")
        self.mp_pos = positions("mppt")
        self.pl_pos = positions("plan", "receding")
        #: Lanes forced through a real ``decide`` at step 0 (every
        #: family except bypass, whose law is evaluated per step).
        self.m_force0 = np.array(
            [fam != "bypass" for fam in self.families], dtype=bool
        )

        # -- decision state (what resolve_decision collapses to) ------
        self.res_kind = np.zeros(n, dtype=np.int8)
        self.dec_f = np.zeros(n)
        self.dec_mode = np.full(n, M_HALT, dtype=np.int8)
        self.byp_cmd = np.zeros(n)
        self.rs_vout = np.zeros(n)
        self.rs_f = np.zeros(n)
        self.rs_pproc = np.zeros(n)
        self.rs_iout = np.zeros(n)
        self.rs_sw = np.zeros(n)
        self.rs_ithresh = np.zeros(n)

        # -- constant-speed mirror ------------------------------------
        self.cs_total = np.full(n, np.nan)
        self.cs_done = np.zeros(n, dtype=bool)

        # -- duty-cycle mirror ----------------------------------------
        self.du_state = np.zeros(n, dtype=np.int8)
        self.du_start = np.zeros(n)
        self.du_cpj = np.full(n, np.nan)
        self.du_abort = np.full(n, np.nan)
        self.du_resume = np.full(n, np.nan)
        self.du_startv = np.full(n, np.nan)

        # -- MPPT trigger mirror --------------------------------------
        self.mp_settle = np.full(n, np.nan)
        self.mp_last_retune = np.zeros(n)
        self.mp_up = np.full(n, np.inf)
        self.mp_down = np.full(n, -np.inf)
        self.mp_pair = np.zeros(n, dtype=bool)
        self.mp_seen = np.zeros(n, dtype=np.int64)

        # -- plan-follower mirror -------------------------------------
        self.pl_start = np.full(n, np.nan)
        self.pl_slot_s = np.full(n, np.nan)
        self.pl_slots_m1 = np.full(n, np.nan)
        self.pl_total = np.full(n, np.nan)
        self.pl_deadline = np.full(n, np.nan)
        self.pl_miss = np.zeros(n, dtype=bool)
        self.pl_slot = np.full(n, np.nan)
        self.pl_min_e = np.full(n, np.nan)
        self.pl_hc_arr = np.zeros(n)
        self._pl_hc: "list[float]" = [0.0] * n
        self._pl_min_e: "list[float]" = [0.0] * n
        self._pl_action: "list[PlannerAction | None]" = [None] * n
        self._pl_workdone = np.zeros(n, dtype=bool)

        byp_laws: "list[tuple[int, Callable[[float], float]]]" = []
        for k, fam in enumerate(self.families):
            ctl = self._controllers[k]
            if fam == "constant_speed":
                cs = cast(ConstantSpeedController, ctl)
                self.cs_total[k] = float(cs.total_cycles)
            elif fam == "duty_cycle":
                du = cast(DutyCycleController, ctl)
                self.du_cpj[k] = float(du.cycles_per_job)
                self.du_abort[k] = du.abort_below_v
                self.du_resume[k] = du.abort_below_v + du.RESUME_HYSTERESIS_V
                self.du_startv[k] = du.start_above_v
            elif fam == "mppt":
                mp = cast(MppTrackingController, ctl)
                self.mp_settle[k] = mp.settle_time_s
            elif fam in ("plan", "receding"):
                pf = cast(PlanController, ctl)
                start_s, slot_s, slots = pf.vector_geometry()
                self.pl_start[k] = start_s
                self.pl_slot_s[k] = slot_s
                self.pl_slots_m1[k] = float(slots - 1)
                if pf.total_cycles is not None:
                    self.pl_total[k] = float(pf.total_cycles)
                    if pf.deadline_s is not None:
                        self.pl_deadline[k] = pf.deadline_s
                hold = 0.5 * pf.capacitance_f
                self._pl_hc[k] = hold
                self.pl_hc_arr[k] = hold
            elif fam == "bypass":
                self.res_kind[k] = K_BYP
                self.dec_mode[k] = M_BYP
                byp_laws.append(
                    (k, cast(BypassController, ctl).frequency_law)
                )
        self._byp_laws = byp_laws

        # -- static resolution groups ---------------------------------
        # Switched-capacitor band tables, shared across lanes whose
        # regulators reduce to the same (hashable) band plan.
        self._tables: "list[ScBandTable | None]" = [None] * n
        table_of: "dict[ScBandPlan, ScBandTable]" = {}
        sc_members: "dict[ScBandPlan, list[int]]" = {}
        for k, fam in enumerate(self.families):
            if fam == "bypass":
                continue
            regulator = cast(SwitchedCapacitorRegulator, regulators[k])
            plan = regulator.band_plan()
            table = table_of.get(plan)
            if table is None:
                table = ScBandTable(plan)
                table_of[plan] = table
            self._tables[k] = table
            sc_members.setdefault(plan, []).append(k)
        self._sc_groups: "list[tuple[ScBandTable, np.ndarray]]" = [
            (table_of[plan], np.array(members, dtype=np.intp))
            for plan, members in sc_members.items()
        ]
        # Bypass evaluation groups, shared across value-identical
        # processor models.
        byp_members: "dict[Any, list[int]]" = {}
        byp_proc: "dict[Any, ProcessorModel]" = {}
        for k, fam in enumerate(self.families):
            if fam in _BYPASS_CAPABLE:
                key = _share_key(self._processors[k])
                byp_members.setdefault(key, []).append(k)
                byp_proc.setdefault(key, self._processors[k])
        self._byp_groups: "list[tuple[ProcessorModel, np.ndarray]]" = [
            (byp_proc[key], np.array(members, dtype=np.intp))
            for key, members in byp_members.items()
        ]

    # -- skip predicates ----------------------------------------------

    def decision_flags(
        self,
        step: int,
        time_s: float,
        v: np.ndarray,
        v_prev: np.ndarray,
        cycles: np.ndarray,
        recovering: np.ndarray,
        brownouts: np.ndarray,
        pending: np.ndarray,
    ) -> np.ndarray:
        """Which fast lanes need a real ``decide`` call this step.

        Each family's expression reproduces the trigger conditions of
        its controller's ``decide`` exactly (see the controller seams:
        ``vector_state`` / ``vector_triggers``).  A flagged lane gets
        a real call; an unflagged lane's ``decide`` is provably a
        no-op returning the mirrored decision.  The caller masks the
        result with lane liveness.
        """
        pos = self.pl_pos
        if pos.size:
            # Stash work-done every step: resolve() overlays a halt on
            # finished plan lanes exactly like the scalar early-out.
            self._pl_workdone[pos] = cycles[pos] >= self.pl_total[pos]
        if step == 0:
            return self.m_force0.copy()
        need = np.zeros(self.n, dtype=bool)
        pos = self.cs_pos
        if pos.size:
            need[pos] = ~self.cs_done[pos] & (
                cycles[pos] >= self.cs_total[pos]
            )
        pos = self.du_pos
        if pos.size:
            v_du = v[pos]
            state = self.du_state[pos]
            job_done = (cycles[pos] - self.du_start[pos]) >= self.du_cpj[pos]
            running_trip = job_done | (v_du <= self.du_abort[pos])
            paused_trip = job_done | (v_du >= self.du_resume[pos])
            idle_trip = v_du >= self.du_startv[pos]
            need[pos] = np.where(
                state == DU_RUNNING,
                running_trip,
                np.where(state == DU_PAUSED, paused_trip, idle_trip),
            )
        pos = self.mp_pos
        if pos.size:
            v_mp = v[pos]
            settled = (time_s - self.mp_last_retune[pos]) >= self.mp_settle[
                pos
            ]
            probe_down = (v_mp < self.mp_down[pos]) & (
                v_mp <= v_prev[pos] + 1e-6
            )
            retune = settled & (
                self.mp_pair[pos] | (v_mp > self.mp_up[pos]) | probe_down
            )
            need[pos] = (
                recovering[pos]
                | pending[pos]
                | (brownouts[pos] > self.mp_seen[pos])
                | retune
            )
        pos = self.pl_pos
        if pos.size:
            raw = np.trunc((time_s - self.pl_start[pos]) / self.pl_slot_s[pos])
            slot_now = np.minimum(
                np.maximum(raw, 0.0), self.pl_slots_m1[pos]
            )
            workdone = self._pl_workdone[pos]
            deadline_fire = (
                ~self.pl_miss[pos]
                & (time_s > self.pl_deadline[pos])
                & (cycles[pos] < self.pl_total[pos])
            )
            need[pos] = (
                ~workdone & (slot_now != self.pl_slot[pos])
            ) | deadline_fire
        return need

    # -- per-step bypass commands -------------------------------------

    def bypass_commands(self, v: np.ndarray, alive: np.ndarray) -> None:
        """Evaluate bypass-family frequency laws for this step.

        The law is an arbitrary (possibly stateful) callable, so it is
        called exactly once per alive lane per step in ascending lane
        order -- the same call sequence the scalar engine makes.
        """
        for k, law in self._byp_laws:
            if alive[k]:
                cmd = max(0.0, float(law(float(v[k]))))
                self.byp_cmd[k] = cmd
                self.dec_f[k] = cmd

    # -- refresh after a real decide call -----------------------------

    def refresh(
        self, k: int, decision: ControlDecision, node_voltage_v: float
    ) -> None:
        """Re-mirror lane ``k`` after a real ``decide`` call."""
        family = self.families[k]
        if family == "constant_speed":
            self.cs_done[k] = decision.frequency_hz == 0.0
        elif family == "duty_cycle":
            du = cast(DutyCycleController, self._controllers[k])
            running, paused, start_cycles = du.vector_state()
            if running:
                self.du_state[k] = DU_PAUSED if paused else DU_RUNNING
            else:
                self.du_state[k] = DU_IDLE
            self.du_start[k] = start_cycles
        elif family == "mppt":
            mp = cast(MppTrackingController, self._controllers[k])
            snap = mp.vector_triggers()
            self.mp_last_retune[k] = snap.last_retune_s
            self.mp_up[k] = snap.probe_up_threshold_v
            self.mp_down[k] = snap.probe_down_threshold_v
            self.mp_pair[k] = snap.pair_ready
            self.mp_seen[k] = snap.brownouts_seen
        elif family in ("plan", "receding"):
            self._refresh_planner(k, decision, node_voltage_v)
            return
        self._refresh_decision(k, decision)

    def _refresh_planner(
        self, k: int, decision: ControlDecision, node_voltage_v: float
    ) -> None:
        follower = cast(PlanController, self._controllers[k])
        miss_counted, slot, action = follower.vector_state()
        self.pl_miss[k] = miss_counted
        self.pl_slot[k] = float("nan") if slot is None else float(slot)
        self._pl_action[k] = action
        if bool(self._pl_workdone[k]):
            # The follower returned its sticky halt without touching
            # the slot; resolve() overlays the halt from the mirror.
            self.res_kind[k] = K_HALT0
            self.dec_f[k] = 0.0
            self.dec_mode[k] = M_HALT
            return
        if action is None or action.mode == "halt":
            self.pl_min_e[k] = float("nan")
            self._refresh_decision(k, decision)
            return
        min_e = action.min_energy_j
        self._pl_min_e[k] = min_e
        self.pl_min_e[k] = min_e
        gated = min_e > 0.0 and (
            self._pl_hc[k] * (node_voltage_v**2) < min_e
        )
        if gated:
            # The action decision is only ever *constructed* on a
            # gate-open step; defer so any validation error raises on
            # exactly the step the scalar path would raise.
            self.res_kind[k] = K_LAZY
            self.dec_f[k] = action.frequency_hz
            self.dec_mode[k] = M_BYP if action.mode == "bypass" else M_REG
            return
        self._refresh_decision(k, decision)

    def _refresh_decision(self, k: int, decision: ControlDecision) -> None:
        """Collapse a (constant) decision into its resolution record.

        Follows :func:`~repro.sim.engine.resolve_decision` branch by
        branch; anything that path would raise on its first evaluation
        (which is this call, since the decision is constant until the
        next refresh) is deliberately allowed to propagate.
        """
        self.dec_f[k] = decision.frequency_hz
        if decision.mode == "halt":
            self.res_kind[k] = K_HALT0
            self.dec_mode[k] = M_HALT
            return
        if decision.mode == "bypass":
            self.res_kind[k] = K_BYP
            self.dec_mode[k] = M_BYP
            self.byp_cmd[k] = decision.frequency_hz
            return
        self.dec_mode[k] = M_REG
        processor = self._processors[k]
        v_out = decision.output_voltage_v
        assert v_out is not None  # regulated decisions validate this
        self.rs_vout[k] = v_out
        if v_out < processor.min_operating_v:
            self.res_kind[k] = K_CONSTHALT
            return
        f, p_proc = clamped_frequency_and_power(
            processor, v_out, decision.frequency_hz, self._caches[k]
        )
        table = self._tables[k]
        assert table is not None  # regulated lanes always carry a table
        if not table.min_output_v <= v_out <= table.max_output_v:
            # check_output_voltage raises on every step; the scalar
            # path degrades that to a constant halt at v_out.
            self.res_kind[k] = K_CONSTHALT
            return
        self.res_kind[k] = K_REG
        i_out = p_proc / v_out if v_out > 0.0 else 0.0
        self.rs_f[k] = f
        self.rs_pproc[k] = p_proc
        self.rs_iout[k] = i_out
        self.rs_sw[k] = table.switching_drop_v * i_out
        self.rs_ithresh[k] = i_out - (1e-9 + 1e-9 * i_out)

    # -- planner energy gate ------------------------------------------

    def _planner_gate(self, v: np.ndarray, alive: np.ndarray) -> np.ndarray:
        """Which plan lanes the ``CV^2/2`` energy gate closes this step.

        The scalar gate is ``0.5*C * (v ** 2) < min_e`` with python's
        libm ``pow``; ``v * v`` can differ from ``v ** 2`` by a few
        ulps, so the vectorized form only decides lanes safely outside
        a guard band and re-runs the scalar expression for the rest.
        """
        gated = np.zeros(self.n, dtype=bool)
        pos = self.pl_pos
        candidate = pos[
            alive[pos]
            & ~self._pl_workdone[pos]
            & (self.res_kind[pos] != K_HALT0)
            & (self.pl_min_e[pos] > 0.0)
        ]
        if candidate.size == 0:
            return gated
        v_g = v[candidate]
        approx = self.pl_hc_arr[candidate] * (v_g * v_g)
        min_e = self.pl_min_e[candidate]
        surely_gated = approx < min_e * (1.0 - _GATE_GUARD)
        surely_open = approx > min_e * (1.0 + _GATE_GUARD)
        gated[candidate[surely_gated]] = True
        for k in candidate[~surely_gated & ~surely_open]:
            kk = int(k)
            gated[kk] = (
                self._pl_hc[kk] * (float(v[kk]) ** 2) < self._pl_min_e[kk]
            )
        return gated

    def _resolve_lazy(self, k: int) -> None:
        """Construct a deferred planner action decision (gate open)."""
        action = self._pl_action[k]
        assert action is not None  # K_LAZY is only set with an action
        if action.mode == "bypass":
            decision = ControlDecision(
                mode="bypass", frequency_hz=action.frequency_hz
            )
        else:
            decision = ControlDecision(
                mode="regulated",
                frequency_hz=action.frequency_hz,
                output_voltage_v=action.processor_voltage_v,
            )
        self._refresh_decision(k, decision)

    # -- vector resolution --------------------------------------------

    def resolve(
        self, v: np.ndarray, alive: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Batched ``resolve_decision`` over the fast lanes.

        Returns ``(v_proc, f, p_proc, p_draw, mode, decided_f,
        decided_mode)`` where the last two are the *effective* decision
        (after the planner halt overlay) feeding the engine's stall
        detection.  Dead lanes produce don't-care values.
        """
        n = self.n
        kind = self.res_kind
        decided_f = self.dec_f
        decided_mode = self.dec_mode
        if self.pl_pos.size:
            gated = self._planner_gate(v, alive)
            if np.any(kind == K_LAZY):
                for k in np.nonzero(kind == K_LAZY)[0]:
                    kk = int(k)
                    if (
                        alive[kk]
                        and not self._pl_workdone[kk]
                        and not gated[kk]
                    ):
                        self._resolve_lazy(kk)
            halt_over = self._pl_workdone | gated
            if np.any(halt_over):
                kind = np.where(halt_over, K_HALT0, self.res_kind).astype(
                    np.int8
                )
                decided_f = np.where(halt_over, 0.0, self.dec_f)
                decided_mode = np.where(
                    halt_over, M_HALT, self.dec_mode
                ).astype(np.int8)
        v_proc = np.zeros(n)
        f = np.zeros(n)
        p_proc = np.zeros(n)
        p_draw = np.zeros(n)
        mode = np.full(n, M_HALT, dtype=np.int8)
        const_halt = kind == K_CONSTHALT
        if np.any(const_halt):
            v_proc[const_halt] = self.rs_vout[const_halt]
        for table, members in self._sc_groups:
            sub = members[(kind[members] == K_REG) & alive[members]]
            if sub.size == 0:
                continue
            feasible, draw = table.scan(
                v[sub],
                self.rs_vout[sub],
                self.rs_iout[sub],
                self.rs_sw[sub],
                self.rs_ithresh[sub],
            )
            v_proc[sub] = self.rs_vout[sub]
            f[sub] = np.where(feasible, self.rs_f[sub], 0.0)
            p_proc[sub] = np.where(feasible, self.rs_pproc[sub], 0.0)
            p_draw[sub] = draw
            mode[sub] = np.where(feasible, M_REG, M_HALT).astype(np.int8)
        for processor, members in self._byp_groups:
            sub = members[(kind[members] == K_BYP) & alive[members]]
            if sub.size == 0:
                continue
            v_sub = v[sub]
            min_op = processor.min_operating_v
            running = v_sub >= min_op
            v_eval = np.where(
                running, np.minimum(v_sub, processor.max_operating_v), min_op
            )
            f_max = np.asarray(processor.max_frequency(v_eval))
            f_sub = np.minimum(self.byp_cmd[sub], f_max)
            p_sub = np.asarray(processor.power(v_eval, f_sub))
            v_proc[sub] = v_sub
            f[sub] = np.where(running, f_sub, 0.0)
            p_run = np.where(running, p_sub, 0.0)
            p_proc[sub] = p_run
            p_draw[sub] = p_run
            mode[sub] = np.where(running, M_BYP, M_HALT).astype(np.int8)
        return (v_proc, f, p_proc, p_draw, mode, decided_f, decided_mode)


class ComparatorLens:
    """Skip-predicate mirror for noiseless comparator banks.

    A noiseless comparator's next state transition is a pure function
    of its mirrored state and the trip thresholds, so the per-step
    ``bank.observe`` call can be skipped whenever no comparator in the
    bank could trip -- a no-op observe has no side effects.  Noisy
    banks are *not* served (their noise stream must advance every
    sample); the engine keeps per-step observes for those.
    """

    def __init__(
        self, positions: Sequence[int], banks: Sequence[ComparatorBank]
    ) -> None:
        count = len(positions)
        width = max((len(b.comparators) for b in banks), default=0)
        self.positions = np.array(positions, dtype=np.intp)
        self.banks = list(banks)
        # Padding cells keep state 0 with +/-inf thresholds: never trip.
        self.state = np.zeros((count, width), dtype=np.int8)
        self.fall = np.full((count, width), -np.inf)
        self.rise = np.full((count, width), np.inf)
        for row, bank in enumerate(self.banks):
            for col, comp in enumerate(bank.comparators):
                trip = comp.threshold_v + comp.offset_v
                self.state[row, col] = -1  # None: first sample latches
                self.fall[row, col] = trip - 0.5 * comp.hysteresis_v
                self.rise[row, col] = trip + 0.5 * comp.hysteresis_v

    def rows_to_observe(
        self, v: np.ndarray, alive: np.ndarray
    ) -> np.ndarray:
        """Rows whose bank must really observe this step's sample."""
        v_col = v[self.positions][:, None]
        could_trip = (
            (self.state == -1)
            | ((self.state == 1) & (v_col < self.fall))
            | ((self.state == 0) & (v_col > self.rise))
        )
        flagged = could_trip.any(axis=1) & alive[self.positions]
        return np.nonzero(flagged)[0]

    def refresh(self, row: int) -> None:
        """Re-mirror one bank's comparator states after an observe."""
        for col, comp in enumerate(self.banks[row].comparators):
            latched = comp.input_state
            self.state[row, col] = (
                -1 if latched is None else (1 if latched else 0)
            )
