"""Vectorized control plane for the batched fleet engine.

The scalar :class:`~repro.sim.engine.TransientSimulator` calls
``controller.decide`` and :func:`~repro.sim.engine.resolve_decision`
once per lane per step.  For the paper's discharge-time MPP tracker
(Section VI-A, :class:`~repro.core.mppt.MppTrackingController`) those
calls are overwhelmingly no-ops: the tracker only re-tunes when a
comparator pair or probe threshold fires.  The control plane exploits
that by keeping the *controllers as the source of truth* while
mirroring exactly the state that determines when the next real
``decide`` call is needed:

* **classification** (:func:`classify_controller`): at the start of a
  fleet run each lane's controller is checked; only a plain MPP
  tracker on a switched-capacitor regulator vectorizes.  Every other
  controller, an overridden ``decide`` or a DVFS transition model
  sends the lane to the scalar engine instead.
* **skip predicate** (:meth:`ControlPlane.decision_flags`): a masked
  numpy expression reproducing the tracker's own trigger conditions
  flags the lanes whose ``decide`` could mutate state or change its
  output this step.  Flagged lanes get a *real* ``decide`` call on a
  faithfully reconstructed view; skipped steps are provably no-ops.
* **vector resolution** (:meth:`ControlPlane.resolve`): between real
  calls each lane's decision is constant, so its
  ``resolve_decision`` outcome collapses into a small per-lane record
  -- constant halt, a regulated setpoint whose only per-step work is
  the switched-capacitor ratio scan, or a bypass point resolved per
  lane through the scalar engine's ``clamped_frequency_and_power``.
  The ratio scan itself is hoisted into one :class:`ScBandTable` per
  batch, a row of regulator columns per lane, and runs once per step
  over every regulated lane and band as one array pass in the exact
  expression order of ``SwitchedCapacitorRegulator._best_band``, so
  every float it produces is bit-identical to the scalar loop by
  construction (asserted by the differential harness in
  ``tests/fleet``).

Bit-exactness ground rules observed throughout (empirically verified
in the differential tests):

* numpy elementwise ``+ - * /``, ``np.minimum``/``np.maximum``,
  ``np.exp``/``np.log1p``/``np.clip`` and non-integer ``**`` match
  the equivalent python-float expression for float64 operands;
* expression order and association are preserved verbatim -- the
  point is never "close", always "equal".
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro.core.mppt import MppTrackingController
from repro.processor.energy import ProcessorModel
from repro.regulators.base import Regulator
from repro.regulators.switched_capacitor import SwitchedCapacitorRegulator
from repro.sim.dvfs import ControlDecision, DvfsController
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

#: Code for "no mode yet" in the core's per-lane mode arrays.
NO_MODE = -1

# Per-lane resolution classes (what resolve_decision collapses to
# between real decide calls).
K_HALT0 = 0  # halt decision: (0, 0, 0, 0, halt)
K_CONSTHALT = 1  # constant (v_out, 0, 0, 0, halt) every step
K_REG = 2  # regulated: per-step switched-capacitor band scan
K_BYP = 3  # bypass: per-step processor evaluation at the node voltage


def classify_controller(
    controller: DvfsController,
    processor: ProcessorModel,
    regulator: "Regulator | None",
    has_transitions: bool,
) -> bool:
    """Whether the lane's controller can run in the vectorized core.

    True only when every assumption the skip predicate and vector
    resolution rely on is verified:

    * the controller's class uses :meth:`MppTrackingController.decide`
      itself -- an MPP tracker or a subclass that does not override
      ``decide`` (the skip predicate mirrors that method);
    * the lane has no DVFS transition model (transition bookkeeping is
      inherently per-lane sequential);
    * the regulator is exactly :class:`SwitchedCapacitorRegulator`
      (the only regulator whose band scan is hoisted into a table);
    * the frequency model is defined down to ``min_operating_v``.  A
      bypass lane evaluates ``max_frequency`` at whatever node voltage
      it sees from ``min_operating_v`` up, so a model with a higher
      floor could raise mid-run; such a lane stays on the scalar
      engine, where the error surfaces from the one copy of the step
      semantics instead of from the middle of a shared batch.
    """
    return (
        type(controller).decide is MppTrackingController.decide
        and not has_transitions
        and type(regulator) is SwitchedCapacitorRegulator
        and processor.frequency.min_voltage_v <= processor.min_operating_v
    )


class ScBandTable:
    """Switched-capacitor band scan over the lanes of one batch.

    One row per lane, read from that lane's regulator, and
    ``_best_band`` replayed as one two-dimensional (lane x band) array
    pass in the *exact* scalar expression order, so the winning band's
    input power (and hence every downstream float) is bit-identical by
    construction.  The scalar loop keeps the first band whose power is
    strictly below the best so far, so its result is the minimum over
    the usable bands, whatever their order; tied bands have the same
    power.  Shorter banks are padded with NaN, which fails both
    feasibility tests, so a padded band is never picked.
    ``efficiency_derating`` is read at construction; campaigns set it
    before the run, never during one.
    """

    def __init__(
        self, regulators: Sequence[SwitchedCapacitorRegulator]
    ) -> None:
        width = max((len(reg.ratios) for reg in regulators), default=0)
        self.ratios = np.full((len(regulators), width), np.nan)
        for row, regulator in enumerate(regulators):
            self.ratios[row, : len(regulator.ratios)] = [
                float(ratio) for ratio in regulator.ratios
            ]

        def column(
            read: Callable[[SwitchedCapacitorRegulator], float],
        ) -> np.ndarray:
            return np.array([read(reg) for reg in regulators], dtype=float)

        self.switching_drop_v = column(lambda r: r.switching.drop_v)
        self.fixed_loss_w = column(lambda r: r.fixed.power_w)
        self.fixed_reference_v = column(lambda r: r.fixed.reference_input_v)
        self.output_impedance_ohm = column(lambda r: r.output_impedance_ohm)
        self.min_output_v = column(lambda r: r.min_output_v)
        self.max_output_v = column(lambda r: r.max_output_v)
        self.efficiency_derating = column(lambda r: r.efficiency_derating)

    def scan(
        self,
        rows: np.ndarray,
        v_in: np.ndarray,
        v_out: np.ndarray,
        i_out: np.ndarray,
        switching_w: np.ndarray,
        i_threshold: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(feasible, input_power_w)`` of the best band per row.

        ``rows`` selects the lanes; the other arguments are aligned
        with it.  ``switching_w`` and ``i_threshold`` (``i_out`` minus
        the feasibility tolerance) are per-lane constants precomputed
        from the regulated setpoint; ``v_in`` is the live node voltage.
        Infeasible lanes (no band, or a non-positive input voltage)
        report ``feasible=False`` -- the scalar path's
        ``OperatingRangeError -> halt`` degradation.
        """
        ratio_q = v_in / self.fixed_reference_v[rows]
        fixed_w = self.fixed_loss_w[rows] * ratio_q * ratio_q
        rout = self.output_impedance_ohm[rows]
        # Every lane against every band in one pass: row ``r`` of each
        # term holds exactly the floats the scalar loop computes for
        # lane ``rows[r]``, band by band.
        v_no_load = self.ratios[rows] * v_in[:, None]
        v_out_col = v_out[:, None]
        headroom = v_no_load - v_out_col
        current_limit = np.where(
            headroom > 0.0, headroom / rout[:, None], 0.0
        )
        usable = (current_limit >= i_threshold[:, None]) & (
            v_no_load > v_out_col
        )
        p_in = (
            v_no_load * i_out[:, None]
            + switching_w[:, None]
            + fixed_w[:, None]
        )
        # The scalar loop keeps the first strictly smaller power, which
        # is the minimum; NaN pads fail ``v_no_load > v_out`` and are
        # never usable.
        best = np.where(usable, p_in, np.inf).min(axis=1)
        feasible = (best < np.inf) & (v_in > 0.0)
        p_draw = np.where(feasible, best / self.efficiency_derating[rows], 0.0)
        return feasible, p_draw


class ControlPlane:
    """Batched decision path for the MPP-tracking lanes of a fleet.

    Constructed once per run over the classified lanes, after
    controller resets; every array is indexed by the lane's position
    in that batch.
    """

    def __init__(
        self,
        controllers: Sequence[MppTrackingController],
        processors: Sequence[ProcessorModel],
        regulators: Sequence[SwitchedCapacitorRegulator],
    ) -> None:
        n = len(controllers)
        self.n = n
        self._controllers = list(controllers)
        self._processors = list(processors)

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

        # -- MPPT trigger mirror --------------------------------------
        self.mp_settle = np.array(
            [ctl.settle_time_s for ctl in controllers], dtype=float
        )
        self.mp_last_retune = np.zeros(n)
        self.mp_up = np.full(n, np.inf)
        self.mp_down = np.full(n, -np.inf)
        self.mp_pair = np.zeros(n, dtype=bool)
        self.mp_seen = np.zeros(n, dtype=np.int64)

        # -- static resolution groups ---------------------------------
        self._bands = ScBandTable(regulators)

    # -- skip predicate -----------------------------------------------

    def decision_flags(
        self,
        step: int,
        time_s: float,
        v: np.ndarray,
        v_prev: np.ndarray,
        recovering: np.ndarray,
        brownouts: np.ndarray,
        pending: np.ndarray,
    ) -> np.ndarray:
        """Which lanes need a real ``decide`` call this step.

        The expression reproduces the trigger conditions of
        :meth:`MppTrackingController.decide` exactly (see
        :class:`~repro.core.mppt.MpptTriggerSnapshot`).  A flagged
        lane gets a real call; an unflagged lane's ``decide`` is
        provably a no-op returning the mirrored decision.  Every lane
        is flagged at step 0.  The caller masks the result with lane
        liveness.
        """
        if step == 0:
            return np.ones(self.n, dtype=bool)
        settled = (time_s - self.mp_last_retune) >= self.mp_settle
        probe_down = (v < self.mp_down) & (v <= v_prev + 1e-6)
        retune = settled & (self.mp_pair | (v > self.mp_up) | probe_down)
        return (
            recovering | pending | (brownouts > self.mp_seen) | retune
        )

    # -- refresh after a real decide call -----------------------------

    def refresh(self, k: int, decision: ControlDecision) -> None:
        """Re-mirror lane ``k`` after a real ``decide`` call."""
        snap = self._controllers[k].vector_triggers()
        self.mp_last_retune[k] = snap.last_retune_s
        self.mp_up[k] = snap.probe_up_threshold_v
        self.mp_down[k] = snap.probe_down_threshold_v
        self.mp_pair[k] = snap.pair_ready
        self.mp_seen[k] = snap.brownouts_seen
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
        # Once per real decide call, so no memo: the function is pure.
        f, p_proc = clamped_frequency_and_power(
            processor, v_out, decision.frequency_hz, None
        )
        bands = self._bands
        if not bands.min_output_v[k] <= v_out <= bands.max_output_v[k]:
            # check_output_voltage raises on every step; the scalar
            # path degrades that to a constant halt at v_out.
            self.res_kind[k] = K_CONSTHALT
            return
        self.res_kind[k] = K_REG
        i_out = p_proc / v_out if v_out > 0.0 else 0.0
        self.rs_f[k] = f
        self.rs_pproc[k] = p_proc
        self.rs_iout[k] = i_out
        self.rs_sw[k] = bands.switching_drop_v[k] * i_out
        self.rs_ithresh[k] = i_out - (1e-9 + 1e-9 * i_out)

    # -- vector resolution --------------------------------------------

    def resolve(
        self, v: np.ndarray, alive: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Batched ``resolve_decision`` over the lanes.

        Returns ``(v_proc, f, p_proc, p_draw, mode)``; the decided
        frequency and mode feeding the engine's stall detection are
        :attr:`dec_f` and :attr:`dec_mode`.  Dead lanes produce
        don't-care values.
        """
        n = self.n
        kind = self.res_kind
        v_proc = np.zeros(n)
        f = np.zeros(n)
        p_proc = np.zeros(n)
        p_draw = np.zeros(n)
        mode = np.full(n, M_HALT, dtype=np.int8)
        const_halt = kind == K_CONSTHALT
        if np.any(const_halt):
            v_proc[const_halt] = self.rs_vout[const_halt]
        sub = np.nonzero((kind == K_REG) & alive)[0]
        if sub.size:
            feasible, draw = self._bands.scan(
                sub,
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
        # Bypass lanes run the processor straight off the node, whose
        # voltage almost never repeats: each resolves on its own through
        # the scalar engine's function.
        for k in np.flatnonzero((kind == K_BYP) & alive).tolist():
            processor = self._processors[k]
            v_k = float(v[k])
            v_proc[k] = v_k
            if v_k < processor.min_operating_v:
                continue  # halt: zero frequency and power
            f_k, p_k = clamped_frequency_and_power(
                processor,
                min(v_k, processor.max_operating_v),
                float(self.byp_cmd[k]),
                None,
            )
            f[k] = f_k
            p_proc[k] = p_k
            p_draw[k] = p_k
            mode[k] = M_BYP
        return (v_proc, f, p_proc, p_draw, mode)
