"""Tests for discharge-time MPP tracking (Section VI-A)."""

import copy

import pytest

from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
from repro.core.system import paper_system
from repro.errors import ModelParameterError, OperatingRangeError
from repro.monitor.comparator import CrossingEvent
from repro.pv.traces import step_trace
from repro.sim.dvfs import ControllerView
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.units import micro_seconds, milli_seconds


@pytest.fixture(scope="module")
def system():
    return paper_system()


@pytest.fixture(scope="module")
def tracker(system):
    return DischargeTimeMppTracker(system, "sc")


class TestTrack:
    def test_accurate_for_synthetic_measurement(self, system, tracker):
        """Feed a noiseless eq. (6) interval: the retuned point must
        target the true irradiance."""
        true_irr = 0.3
        true_pin = system.mpp(true_irr).power_w
        draw = 12e-3
        t = tracker.estimator.expected_interval(1.05, 0.95, true_pin, draw)
        record = tracker.track(1.05, 0.95, t, draw)
        assert record.estimate.input_power_w == pytest.approx(true_pin, rel=1e-6)
        assert record.estimated_irradiance == pytest.approx(true_irr, rel=0.1)

    def test_new_point_draw_respects_estimate(self, tracker):
        record = tracker.track(1.05, 0.95, 1e-3, 12e-3)
        assert (
            record.new_point.extracted_power_w
            <= record.estimate.input_power_w * 1.5 + 1e-3
        )


class TestControllerUnit:
    def make_view(self, time_s, node_v, events=()):
        return ControllerView(
            time_s=time_s,
            node_voltage_v=node_v,
            processor_voltage_v=0.5,
            cycles_done=0.0,
            comparator_events=tuple(events),
        )

    def test_starts_at_initial_point(self, tracker):
        controller = MppTrackingController(tracker, initial_irradiance=1.0)
        expected = tracker.operating_point_for(1.0)
        decision = controller.decide(self.make_view(0.0, 1.2))
        assert decision.frequency_hz == pytest.approx(expected.frequency_hz)

    def test_retunes_on_falling_pair(self, system, tracker):
        controller = MppTrackingController(
            tracker, initial_irradiance=1.0, settle_time_s=0.0
        )
        thresholds = system.comparator_thresholds_v
        upper, lower = thresholds[0], thresholds[1]
        events = [
            CrossingEvent(1e-3, upper, "falling"),
            CrossingEvent(2e-3, lower, "falling"),
        ]
        controller.decide(self.make_view(2e-3, lower - 0.01, events))
        assert len(controller.retunes) == 1

    def test_settle_time_blocks_immediate_retunes(self, system, tracker):
        controller = MppTrackingController(
            tracker, initial_irradiance=1.0, settle_time_s=10.0
        )
        thresholds = system.comparator_thresholds_v
        events = [
            CrossingEvent(1e-3, thresholds[0], "falling"),
            CrossingEvent(2e-3, thresholds[1], "falling"),
        ]
        # First retune allowed (no prior), second blocked by settle time.
        controller.decide(self.make_view(2e-3, 1.0, events))
        more = [
            CrossingEvent(3e-3, thresholds[1], "falling"),
            CrossingEvent(4e-3, thresholds[2], "falling"),
        ]
        controller.decide(self.make_view(4e-3, 0.9, more))
        assert len(controller.retunes) == 1

    def test_rejects_negative_settle_time(self, tracker):
        with pytest.raises(ModelParameterError):
            MppTrackingController(tracker, 1.0, settle_time_s=-1.0)

    def test_reset_restores_initial_point(self, tracker):
        controller = MppTrackingController(
            tracker, initial_irradiance=1.0, settle_time_s=0.0
        )
        controller.retunes.append("sentinel")
        controller.reset()
        assert controller.retunes == []


class _RaisingRegulator:
    """A regulator stub whose input-power model always raises."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def input_power(self, *args, **kwargs):
        raise self.error


class _StubSystem:
    def __init__(self, regulator) -> None:
        self._regulator = regulator

    def regulator(self, name):
        return self._regulator


class TestNodeDrawPower:
    def controller_with(self, tracker, error):
        controller = MppTrackingController(tracker, initial_irradiance=1.0)
        assert not controller.operating_point.bypassed
        stub = copy.copy(tracker)
        stub.system = _StubSystem(_RaisingRegulator(error))
        controller.tracker = stub
        return controller

    def test_operating_range_error_falls_back_to_extracted_power(
        self, tracker
    ):
        controller = self.controller_with(
            tracker, OperatingRangeError("unreachable output")
        )
        assert (
            controller._node_draw_power(1.0)
            == controller.operating_point.extracted_power_w
        )

    def test_other_errors_propagate(self, tracker):
        controller = self.controller_with(tracker, TypeError("bad regulator"))
        with pytest.raises(TypeError, match="bad regulator"):
            controller._node_draw_power(1.0)


class TestClosedLoop:
    def test_dimming_is_tracked(self, system, tracker):
        """The full Fig. 8 loop: dim the light, watch the controller
        re-park the node near the new MPP."""
        controller = MppTrackingController(tracker, initial_irradiance=1.0)
        simulator = TransientSimulator(
            cell=system.cell,
            node_capacitor=system.new_node_capacitor(system.mpp(1.0).voltage_v),
            processor=system.processor,
            regulator=system.regulator("sc"),
            controller=controller,
            comparators=system.new_comparator_bank(),
            config=SimulationConfig(
                time_step_s=micro_seconds(10), record_every=8, stop_on_brownout=False
            ),
        )
        result = simulator.run(step_trace(1.0, 0.3, 5e-3, 60e-3))
        assert controller.retunes, "controller never reacted to the dimming"
        record = controller.retunes[0]
        true_pin = system.mpp(0.3).power_w
        assert record.estimate.input_power_w == pytest.approx(true_pin, rel=0.15)
        # The node ends near the new MPP voltage.
        final_v = float(result.node_voltage_v[-1])
        assert final_v == pytest.approx(system.mpp(0.3).voltage_v, abs=0.08)

    def test_brightening_is_tracked(self, system, tracker):
        """Rising light: the charging-time analogue retunes upward.

        Starts dim enough that the node sits below the two upper
        comparator thresholds, so the rising node crosses an adjacent
        pair on its way up.
        """
        controller = MppTrackingController(tracker, initial_irradiance=0.1)
        start_v = system.mpp(0.1).voltage_v
        simulator = TransientSimulator(
            cell=system.cell,
            node_capacitor=system.new_node_capacitor(start_v),
            processor=system.processor,
            regulator=system.regulator("sc"),
            controller=controller,
            comparators=system.new_comparator_bank(),
            config=SimulationConfig(
                time_step_s=micro_seconds(10), record_every=8, stop_on_brownout=False
            ),
        )
        simulator.run(step_trace(0.1, 1.0, 5e-3, 60e-3))
        assert controller.retunes
        assert controller.retunes[-1].estimated_irradiance > 0.5


class TestProbing:
    def test_downward_probe_when_pinned_low(self, system, tracker):
        """A node parked below every comparator (stale estimate, no
        usable crossing pair) forces the estimate down."""
        controller = MppTrackingController(
            tracker, initial_irradiance=1.0, settle_time_s=0.0
        )
        bottom = system.comparator_thresholds_v[-1]
        view = ControllerView(
            time_s=milli_seconds(1),
            node_voltage_v=bottom - 0.1,
            processor_voltage_v=0.5,
            cycles_done=0.0,
            comparator_events=(),
        )
        controller.decide(view)
        assert controller.retunes
        assert controller.retunes[-1].estimated_irradiance < 1.0
        assert controller.retunes[-1].estimate is None  # probe, not eq. (7)

    def test_downward_probe_stops_while_recovering(self, system, tracker):
        controller = MppTrackingController(
            tracker, initial_irradiance=1.0, settle_time_s=0.0
        )
        bottom = system.comparator_thresholds_v[-1]

        def view(t, v):
            return ControllerView(
                time_s=t, node_voltage_v=v, processor_voltage_v=0.5,
                cycles_done=0.0, comparator_events=(),
            )

        controller.decide(view(1e-3, bottom - 0.1))
        first = len(controller.retunes)
        # Node rising again: no further downward probes.
        controller.decide(view(2e-3, bottom - 0.08))
        assert len(controller.retunes) == first

    def test_upward_probe_respects_lut_ceiling(self, tracker):
        controller = MppTrackingController(
            tracker, initial_irradiance=1.2, settle_time_s=0.0
        )
        view = ControllerView(
            time_s=milli_seconds(1), node_voltage_v=1.5, processor_voltage_v=0.5,
            cycles_done=0.0, comparator_events=(),
        )
        controller.decide(view)
        lut_max = max(e.irradiance for e in tracker.lut.entries)
        for record in controller.retunes:
            assert record.estimated_irradiance <= lut_max + 1e-9
