"""MPP tracking from capacitor discharge timing (Section VI-A).

The scheme, per the paper's Fig. 8: the solar node is watched by a few
sub-microwatt comparators (V0 > V1 > V2).  In steady state the node
sits near the MPP voltage, above all thresholds.  When the light dims,
the node discharges; the time it takes to fall from V1 to V2, together
with the known converter draw, yields the new input power by eq. (7):

    Pin = Pdraw - C (V1^2 - V2^2) / (2 t)

A pre-characterised lookup table maps that power to the new MPP
voltage and irradiance, and DVFS is retuned so the converter draws
exactly the new maximum power -- parking the node at the new MPP.
"No additional circuitry or software" beyond the comparators.

:class:`DischargeTimeMppTracker` is the estimation + lookup + retune
logic; :class:`MppTrackingController` wraps it as a simulator
controller for the Fig. 8 waveform reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operating_point import OperatingPoint, OperatingPointOptimizer
from repro.core.system import EnergyHarvestingSoC
from repro.errors import (
    InfeasibleOperatingPointError,
    ModelParameterError,
    OperatingRangeError,
)
from repro.monitor.estimator import DischargeTimePowerEstimator, PowerEstimate
from repro.monitor.lut import MppLookupTable
from repro.sim.dvfs import ControlDecision, ControllerView, DvfsController
from repro.storage.capacitor import Capacitor
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


@dataclass(frozen=True)
class RetuneRecord:
    """One completed track-and-retune action (for analysis/tests).

    ``estimate`` is None for probe retunes (surplus-driven upward
    steps), which are not backed by an eq. (7) measurement.
    """

    time_s: float
    estimate: "PowerEstimate | None"
    estimated_irradiance: float
    new_point: OperatingPoint


class DischargeTimeMppTracker:
    """Estimation, lookup and operating-point retuning.

    Parameters
    ----------
    system:
        The composed SoC.
    regulator_name:
        Converter the operating points are computed for.
    lut:
        Pre-characterised power-to-MPP table (built offline via
        :meth:`EnergyHarvestingSoC.build_mpp_lut`).
    """

    def __init__(
        self,
        system: EnergyHarvestingSoC,
        regulator_name: str,
        lut: "MppLookupTable | None" = None,
    ) -> None:
        self.system = system
        self.regulator_name = regulator_name
        self.lut = lut or system.build_mpp_lut()
        self.optimizer = OperatingPointOptimizer(system)
        self.estimator = DischargeTimePowerEstimator(
            Capacitor(system.node_capacitance_f)
        )
        self._point_memo: "dict[float, OperatingPoint]" = {}

    def operating_point_for(self, irradiance: float) -> OperatingPoint:
        """The holistic operating point for an (estimated) irradiance.

        When the estimated light cannot sustain any operation at all
        (deep darkness: leakage alone exceeds the harvest), returns a
        *survival point* -- clock gated, zero draw -- so the controller
        parks the system instead of browning it out.

        The result is a pure function of the irradiance (the system
        and regulator are fixed at construction) and the returned
        :class:`OperatingPoint` is frozen, so calls memoize: controller
        resets and fleet lanes sharing one tracker pay the optimizer
        scan once per distinct irradiance, not once per lane.
        """
        memoized = self._point_memo.get(irradiance)
        if memoized is not None:
            return memoized
        try:
            point = self.optimizer.best_point(self.regulator_name, irradiance)
        except InfeasibleOperatingPointError:
            floor_v = self.system.processor.min_operating_v
            point = OperatingPoint(
                processor_voltage_v=floor_v,
                frequency_hz=0.0,
                delivered_power_w=0.0,
                extracted_power_w=0.0,
                node_voltage_v=floor_v,
                regulator_name="bypass",
                bypassed=True,
            )
        self._point_memo[irradiance] = point
        return point

    def track(
        self,
        upper_v: float,
        lower_v: float,
        interval_s: float,
        node_draw_power_w: float,
        time_s: float = 0.0,
    ) -> RetuneRecord:
        """One full eq. (7) measurement -> LUT -> retune step."""
        estimate = self.estimator.estimate(
            upper_v, lower_v, interval_s, node_draw_power_w
        )
        entry = self.lut.interpolate(estimate.input_power_w)
        new_point = self.operating_point_for(entry.irradiance)
        return RetuneRecord(
            time_s=time_s,
            estimate=estimate,
            estimated_irradiance=entry.irradiance,
            new_point=new_point,
        )


@dataclass(frozen=True)
class MpptTriggerSnapshot:
    """Everything that decides whether the next ``decide`` call matters.

    Taken by the fleet control plane after every real call.  Between
    calls the controller's output is constant and its state only
    changes when one of these triggers fires, so the plane can skip
    calls whose scalar-engine counterpart would have been a no-op:

    * a comparator event is pending (must always be ingested);
    * ``brownout_count`` moved past ``brownouts_seen``;
    * the settle window has expired *and* either a qualifying crossing
      pair is already banked (``pair_ready``; the pair conditions are
      time-independent between calls), or the node voltage crossed the
      probe-up/probe-down thresholds.

    The probe thresholds fold in the LUT-saturation early-outs:
    ``probe_up_threshold_v`` is ``+inf`` when the irradiance estimate
    is already at the table maximum, ``probe_down_threshold_v`` is
    ``-inf`` at the table minimum.
    """

    last_retune_s: float
    probe_up_threshold_v: float
    probe_down_threshold_v: float
    pair_ready: bool
    brownouts_seen: int


class MppTrackingController(DvfsController):
    """Closed-loop discharge-time MPP tracking for the simulator.

    Starts at the operating point for ``initial_irradiance`` and
    retunes whenever the comparator bank reports the node falling (or
    rising) through two consecutive thresholds: falling pairs trigger
    the eq. (7) estimate; rising pairs use the charging-time analogue
    ``Pin = Pdraw + C (V_hi^2 - V_lo^2) / (2 t)``.  Pairs are only
    trusted when the two crossings happened within
    ``max_interval_s`` of each other -- crossings from different light
    epochs would otherwise combine into a bogus measurement.

    When the node rides *above* the top comparator (harvest surplus
    with no measurable discharge), the controller probes upward: it
    scales its irradiance estimate by ``probe_factor`` each settle
    period until the load again parks the node inside the threshold
    window -- a comparator-driven hill climb for brightening light.
    """

    def __init__(
        self,
        tracker: DischargeTimeMppTracker,
        initial_irradiance: float,
        settle_time_s: float = 2e-3,
        max_interval_s: float = 10e-3,
        probe_factor: float = 1.4,
        probe_margin_v: float = 0.03,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if settle_time_s < 0.0:
            raise ModelParameterError(
                f"settle time must be >= 0, got {settle_time_s}"
            )
        if max_interval_s <= 0.0:
            raise ModelParameterError(
                f"max interval must be positive, got {max_interval_s}"
            )
        if probe_factor <= 1.0:
            raise ModelParameterError(
                f"probe factor must exceed 1, got {probe_factor}"
            )
        self.tracker = tracker
        self.initial_irradiance = initial_irradiance
        self.settle_time_s = settle_time_s
        self.max_interval_s = max_interval_s
        self.probe_factor = probe_factor
        self.probe_margin_v = probe_margin_v
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.retunes: "list[RetuneRecord]" = []
        self._point = tracker.operating_point_for(initial_irradiance)
        self._irradiance_estimate = initial_irradiance
        self._crossings: "dict[tuple[float, str], float]" = {}
        self._last_retune_s = -float("inf")
        self._last_node_v: "float | None" = None
        self._brownouts_seen = 0

    def reset(self) -> None:
        self.retunes.clear()
        self._point = self.tracker.operating_point_for(self.initial_irradiance)
        self._irradiance_estimate = self.initial_irradiance
        self._crossings.clear()
        self._last_retune_s = -float("inf")
        self._last_node_v = None
        self._brownouts_seen = 0

    @property
    def operating_point(self) -> OperatingPoint:
        """The currently commanded operating point."""
        return self._point

    def _node_draw_power(self, v_node: float) -> float:
        """Converter input power at the commanded point (eq. 6's Pout/eta)."""
        point = self._point
        if point.bypassed:
            return point.delivered_power_w
        regulator = self.tracker.system.regulator(self.tracker.regulator_name)
        try:
            return regulator.input_power(
                point.processor_voltage_v,
                point.delivered_power_w,
                v_in=max(v_node, point.processor_voltage_v + 1e-3),
            )
        except OperatingRangeError:
            return point.extracted_power_w

    def _maybe_retune(self, view: ControllerView) -> None:
        for event in view.comparator_events:
            self._crossings[(event.threshold_v, event.direction)] = event.time_s
        if view.time_s - self._last_retune_s < self.settle_time_s:
            return
        pair = self._ready_pair()
        if pair is None:
            self._maybe_probe_upward(view)
            self._maybe_probe_downward(view)
            return
        upper, lower, direction = pair
        t_upper = self._crossings[(upper, direction)]
        t_lower = self._crossings[(lower, direction)]
        # Evaluate the known draw at the mid-threshold voltage, the
        # average node voltage during the measurement.
        draw = self._node_draw_power(0.5 * (upper + lower))
        if direction == "falling":
            record = self.tracker.track(
                upper, lower, t_lower - t_upper, draw, time_s=view.time_s
            )
        else:
            released = self.tracker.estimator.capacitor.energy_between(
                upper, lower
            )
            interval = t_upper - t_lower
            estimate = PowerEstimate(
                input_power_w=draw + released / interval,
                interval_s=interval,
                upper_v=upper,
                lower_v=lower,
            )
            entry = self.tracker.lut.interpolate(estimate.input_power_w)
            record = RetuneRecord(
                time_s=view.time_s,
                estimate=estimate,
                estimated_irradiance=entry.irradiance,
                new_point=self.tracker.operating_point_for(entry.irradiance),
            )
        self._apply(record, view.time_s, kind="measured")

    def _maybe_probe_upward(self, view: ControllerView) -> None:
        """Hill-climb when the node rides above the top comparator."""
        # A surplus shows as the node riding above both the top
        # comparator and the MPP voltage the current estimate predicts
        # (at the true estimate, MPPT parks the node at that voltage).
        top = self.tracker.system.comparator_thresholds_v[0]
        expected = max(top, self._point.node_voltage_v)
        if view.node_voltage_v <= expected + self.probe_margin_v:
            return
        lut_max = max(e.irradiance for e in self.tracker.lut.entries)
        if self._irradiance_estimate >= lut_max:
            return
        probed = min(self._irradiance_estimate * self.probe_factor, lut_max)
        record = RetuneRecord(
            time_s=view.time_s,
            estimate=None,
            estimated_irradiance=probed,
            new_point=self.tracker.operating_point_for(probed),
        )
        self._apply(record, view.time_s, kind="probe_up")

    def _maybe_probe_downward(self, view: ControllerView) -> None:
        """Back off when the node is pinned below the bottom comparator.

        The mirror of the surplus probe: a node parked below every
        threshold means the estimate is definitely too optimistic
        (the retune equation had no usable crossing pair -- e.g. the
        pair straddled two light epochs and was rejected), so the
        estimate is scaled down until the node recovers into the
        comparator window.
        """
        bottom = self.tracker.system.comparator_thresholds_v[-1]
        if view.node_voltage_v >= bottom - self.probe_margin_v:
            return
        # Only back off while the node is still falling: once a probe
        # has opened enough headroom for recovery, let it climb back
        # into the window instead of racing the recovery downward.
        if (
            self._last_node_v is not None
            and view.node_voltage_v > self._last_node_v + 1e-6
        ):
            return
        lut_min = min(e.irradiance for e in self.tracker.lut.entries)
        if self._irradiance_estimate <= lut_min:
            return
        probed = max(self._irradiance_estimate / self.probe_factor, lut_min)
        record = RetuneRecord(
            time_s=view.time_s,
            estimate=None,
            estimated_irradiance=probed,
            new_point=self.tracker.operating_point_for(probed),
        )
        self._apply(record, view.time_s, kind="probe_down")

    def _apply(
        self, record: RetuneRecord, time_s: float, kind: str = "measured"
    ) -> None:
        tel = self.telemetry
        tel.count("mppt.retracks")
        tel.count(f"mppt.retracks.{kind}")
        if self._last_retune_s > -float("inf"):
            tel.observe("mppt.retrack_interval_s", time_s - self._last_retune_s)
        tel.event(
            "mppt.retrack", time_s, track="mppt",
            kind=kind,
            irradiance=record.estimated_irradiance,
            frequency_hz=record.new_point.frequency_hz,
            node_v=record.new_point.node_voltage_v,
        )
        self.retunes.append(record)
        self._point = record.new_point
        self._irradiance_estimate = record.estimated_irradiance
        self._last_retune_s = time_s

    def _retrack_after_brownout(self, view: ControllerView) -> None:
        """Re-track after a recovery instead of trusting the stale point.

        The pre-brownout LUT point is exactly what browned the node out,
        and every in-flight crossing pair straddles the collapse, so
        both are discarded: the estimate restarts conservatively (two
        probe factors down) and the comparator-driven machinery climbs
        back up if the light turns out to be better.
        """
        self._crossings.clear()
        lut_min = min(e.irradiance for e in self.tracker.lut.entries)
        conservative = max(
            self._irradiance_estimate / (self.probe_factor**2), lut_min
        )
        record = RetuneRecord(
            time_s=view.time_s,
            estimate=None,
            estimated_irradiance=conservative,
            new_point=self.tracker.operating_point_for(conservative),
        )
        self._apply(record, view.time_s, kind="recovery")

    def _ready_pair(self) -> "tuple[float, float, str] | None":
        """The banked crossing pair that would retune right now, if any.

        Falling pairs are searched before rising ones, each in threshold
        order.  A pair is ready when both adjacent thresholds have been
        crossed in that direction, in order, after the last retune and
        within ``max_interval_s``.  Returns ``(upper, lower, direction)``
        or ``None``.  All inputs are timestamps and ``_last_retune_s``,
        none of which move between real ``decide`` calls, so the answer
        stays valid until the next call.
        """
        thresholds = self.tracker.system.comparator_thresholds_v
        for direction in ("falling", "rising"):
            for upper, lower in zip(thresholds, thresholds[1:]):
                t_upper = self._crossings.get((upper, direction))
                t_lower = self._crossings.get((lower, direction))
                if t_upper is None or t_lower is None:
                    continue
                first, last = (
                    (t_upper, t_lower)
                    if direction == "falling"
                    else (t_lower, t_upper)
                )
                if (
                    last > first
                    and last > self._last_retune_s
                    and last - first <= self.max_interval_s
                ):
                    return upper, lower, direction
        return None

    def sync_last_node_v(self, node_voltage_v: float) -> None:
        """Set ``_last_node_v`` as a per-step scalar call would have.

        The scalar engine calls :meth:`decide` every step, so
        ``_last_node_v`` always holds the previous step's node voltage.
        The fleet control plane skips no-op calls and instead syncs the
        mirror it keeps (the previous step's voltage array) through
        this seam immediately before each real call.
        """
        self._last_node_v = node_voltage_v

    def vector_triggers(self) -> MpptTriggerSnapshot:
        """Snapshot the call-skip triggers (see the snapshot docstring)."""
        entries = self.tracker.lut.entries
        lut_max = max(e.irradiance for e in entries)
        lut_min = min(e.irradiance for e in entries)
        thresholds = self.tracker.system.comparator_thresholds_v
        if self._irradiance_estimate >= lut_max:
            up = float("inf")
        else:
            expected = max(thresholds[0], self._point.node_voltage_v)
            up = expected + self.probe_margin_v
        if self._irradiance_estimate <= lut_min:
            down = -float("inf")
        else:
            down = thresholds[-1] - self.probe_margin_v
        return MpptTriggerSnapshot(
            last_retune_s=self._last_retune_s,
            probe_up_threshold_v=up,
            probe_down_threshold_v=down,
            pair_ready=self._ready_pair() is not None,
            brownouts_seen=self._brownouts_seen,
        )

    def decide(self, view: ControllerView) -> ControlDecision:
        if view.recovering:
            # Power-gated by the supply monitor: hold halt while the
            # node recharges and drop crossing pairs from the collapse.
            self._crossings.clear()
            self._last_node_v = view.node_voltage_v
            return ControlDecision(mode="halt", frequency_hz=0.0)
        if view.brownout_count > self._brownouts_seen:
            self._brownouts_seen = view.brownout_count
            self._retrack_after_brownout(view)
        self._maybe_retune(view)
        self._last_node_v = view.node_voltage_v
        point = self._point
        if point.frequency_hz <= 0.0:
            # Survival point: truly power-gate.  A bypassed f=0 point
            # would leak at the node voltage and pin the node below the
            # probe-up window forever -- the "zero draw" the survival
            # point promises requires halt, not an idle bypass.
            return ControlDecision(mode="halt", frequency_hz=0.0)
        if point.bypassed:
            return ControlDecision(
                mode="bypass", frequency_hz=point.frequency_hz
            )
        return ControlDecision(
            mode="regulated",
            frequency_hz=point.frequency_hz,
            output_voltage_v=point.processor_voltage_v,
        )
