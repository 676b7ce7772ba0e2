"""Differential tests for the vectorized fleet control plane.

One heterogeneous batch mixes a vectorized MPPT lane with fallback
lanes that run on the scalar engine: the six other controller classes
(fixed, constant_speed, bypass, duty_cycle, plan, receding), the
sprint controller, and MPPT lanes kept out of the core by a cell
subclass, a DVFS transition model or a trace without
``step_samples``.  The contract under test:

* classification is per lane and observable (:func:`vectorizable`
  and ``control_summary`` mark exactly the MPPT lane), and
  :func:`classify_controller` rejects each unproven assumption;
* batch-N is bit-identical to N batches of one, and to the scalar
  reference engine, lane by lane -- results and each lane's
  capacitor, written back to its final voltage;
* core lanes stay independent through brownout recovery; a batch that
  may stop a lane early (``stop_on_brownout``, ``stop_on_completion``)
  runs every lane on the scalar engine, where lanes stay independent
  through death and early completion;
* lane order is physically meaningless (results, capacitors and the
  classification counts all travel with their lanes);
* lanes whose switched-capacitor regulators differ -- ratio banks of
  different lengths, impedance, output range, losses, derating --
  share one band table and each still matches its scalar run, and the
  table's one-pass scan equals the regulator's own ``input_power`` on
  a grid;
* bypass lanes resolve per lane, above ``max_operating_v`` and below
  ``min_operating_v``;
* every comparator bank observes every step, so a batch mixing a
  noisy faulted bank, a noiseless bank and a lane with no bank matches
  the scalar runs lane for lane;
* the quiet step: a batch whose lanes pass through every rare state
  (node collapse, brownout and recovery, completion, no workload,
  bypass) matches the scalar runs, the recovery work runs only while
  some lane recovers, and the control plane re-derives its lane groups
  once per step with a real ``decide`` call.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
from repro.core.operating_point import OperatingPoint
from repro.errors import OperatingRangeError
from repro.fleet import classify_controller
from repro.fleet.control import ControlPlane, ScBandTable
from repro.pv.traces import (
    cloud_trace,
    concatenate,
    constant_trace,
    step_trace,
)
from repro.regulators.switched_capacitor import (
    FIG4_BENCH_INPUT_V,
    SwitchedCapacitorRegulator,
)
from repro.sim.dvfs import ControlDecision, ControllerView
from repro.sim.engine import SimulationConfig
from repro.sim.result import SimulationResult, results_bit_identical
from repro.sim.transitions import DvfsTransitionModel
from repro.storage.capacitor import Capacitor
from repro.telemetry.session import TelemetrySession
from repro.units import micro_amps, micro_seconds

from tests.fleet.scenarios import (
    CAMPAIGN_CONFIG,
    CAMPAIGN_SIM_CONFIG,
    CONTROLLER_SCENARIOS,
    DEATH_TRACE,
    HETERO_SCENARIOS,
    LUT,
    MATRIX_TRACE,
    RECOVERY_CONFIG,
    RECOVERY_TRACE,
    STOP_SCENARIOS,
    SYSTEM,
    TRACKER,
    VECTORIZED_LANES,
    Scenario,
    _blind_mppt_parts,
    _fig6_fixed_parts,
    _fig8_mppt_parts,
    _transitions_parts,
    assert_capacitor_written_back,
    assert_results_identical,
    campaign_scenario,
    lane_vectorizes,
    run_batch,
    run_scalar,
    run_scalar_lane,
    short_job,
)

HETERO_NAMES = [scenario.name for scenario in HETERO_SCENARIOS]


@pytest.fixture(scope="module")
def hetero():
    """One heterogeneous batch shared (read-only) by the module."""
    simulator, results, _ = run_batch(HETERO_SCENARIOS)
    return simulator, results


EXPECTED_VECTORIZED = [name in VECTORIZED_LANES for name in HETERO_NAMES]


class TestClassification:
    """Per-lane classification: only the MPPT lane is vectorized.

    The test names predate the MPPT-only core, when each lane carried
    an int8 controller-family code; the contract they guard is the
    same one, now expressed by :func:`vectorizable` per lane and by
    the batch's ``control_summary`` counts.
    """

    def test_control_summary_counts_every_family(self, hetero) -> None:
        simulator, _ = hetero
        assert simulator.control_summary == {
            "lanes": len(HETERO_SCENARIOS),
            "vectorized": sum(EXPECTED_VECTORIZED),
            "fallback": len(HETERO_SCENARIOS) - sum(EXPECTED_VECTORIZED),
        }

    def test_state_records_per_lane_family_codes(self, hetero) -> None:
        simulator, _ = hetero
        flags = [lane_vectorizes(scenario) for scenario in HETERO_SCENARIOS]
        for lane, name in enumerate(HETERO_NAMES):
            assert flags[lane] is EXPECTED_VECTORIZED[lane], name
        assert simulator.control_summary is not None
        assert simulator.control_summary["vectorized"] == sum(flags)

    def test_family_codes_are_distinct_int8(self, hetero) -> None:
        simulator, _ = hetero
        flags = [lane_vectorizes(scenario) for scenario in HETERO_SCENARIOS]
        assert all(type(flag) is bool for flag in flags)
        core = {name for name, flag in zip(HETERO_NAMES, flags) if flag}
        fallback = set(HETERO_NAMES) - core
        assert core == VECTORIZED_LANES
        assert fallback
        assert simulator.control_summary == {
            "lanes": len(HETERO_SCENARIOS),
            "vectorized": len(core),
            "fallback": len(fallback),
        }


@pytest.mark.parametrize(
    "stop", STOP_SCENARIOS, ids=[scenario.name for scenario in STOP_SCENARIOS]
)
def test_stopping_config_sends_every_lane_to_the_scalar_engine(
    stop: Scenario,
) -> None:
    """The core runs every lane to the end of the grid, so a batch whose
    config may stop a lane early runs on the scalar engine whole, even
    though the classifier admits each of its MPPT lanes.  The stopping
    lane ends early; the plain Fig. 8 lane beside it runs to the end."""
    scenarios = (
        stop,
        Scenario("fig8_mppt", stop.config, stop.trace, _fig8_mppt_parts),
        stop,
    )
    simulator, results, _ = run_batch(scenarios)
    assert all(lane_vectorizes(scenario) for scenario in scenarios)
    assert simulator.control_summary == {
        "lanes": 3,
        "vectorized": 0,
        "fallback": 3,
    }
    assert len(results[0].time_s) < len(results[1].time_s)
    for lane, scenario in enumerate(scenarios):
        scalar, capacitor = run_scalar_lane(scenario)
        assert_results_identical(scalar, results[lane])
        assert_capacitor_written_back(simulator, lane, capacitor)


class _CustomDecide(MppTrackingController):
    """An MPP tracker whose ``decide`` the skip predicate cannot mirror."""

    def decide(self, view: ControllerView) -> ControlDecision:
        return super().decide(view)


_HIGH_FLOOR_PROCESSOR = dataclasses.replace(
    SYSTEM.processor,
    frequency=dataclasses.replace(
        SYSTEM.processor.frequency,
        min_voltage_v=SYSTEM.processor.min_operating_v + 0.05,
    ),
)

#: ``(case, changes to the plain MPPT lane's parts, expected outcome)``.
CLASSIFY_CASES: "List[Tuple[str, Dict[str, Any], bool]]" = [
    ("plain_mppt", {}, True),
    (
        "mppt_overrides_decide",
        {"controller": _CustomDecide(TRACKER, initial_irradiance=1.0)},
        False,
    ),
    ("mppt_with_transitions", {"transitions": DvfsTransitionModel()}, False),
    ("mppt_on_buck", {"regulator": SYSTEM.regulator("buck")}, False),
    ("mppt_on_ldo", {"regulator": SYSTEM.regulator("ldo")}, False),
    (
        "mppt_frequency_floor_above_min_operating_v",
        {"processor": _HIGH_FLOOR_PROCESSOR},
        False,
    ),
] + [
    (scenario.name, {"controller": scenario.parts(None)["controller"]}, False)
    for scenario in CONTROLLER_SCENARIOS
    if scenario.name not in VECTORIZED_LANES
]


@pytest.mark.parametrize(
    "changes, expected",
    [(changes, expected) for _, changes, expected in CLASSIFY_CASES],
    ids=[case for case, _, _ in CLASSIFY_CASES],
)
def test_classify_controller(changes: Dict[str, Any], expected: bool) -> None:
    parts = {**_fig8_mppt_parts(None), **changes}
    assert (
        classify_controller(
            parts["controller"],
            parts["processor"],
            parts["regulator"],
            "transitions" in parts,
        )
        is expected
    )


class TestHeterogeneousBitIdentity:
    @pytest.mark.parametrize("lane", range(len(HETERO_SCENARIOS)), ids=HETERO_NAMES)
    def test_lane_matches_scalar_reference(self, hetero, lane: int) -> None:
        simulator, results = hetero
        scalar, capacitor = run_scalar_lane(HETERO_SCENARIOS[lane])
        assert_results_identical(scalar, results[lane])
        assert_capacitor_written_back(simulator, lane, capacitor)

    @pytest.mark.parametrize("lane", range(len(HETERO_SCENARIOS)), ids=HETERO_NAMES)
    def test_batch_n_equals_n_batches_of_one(self, hetero, lane: int) -> None:
        _, results = hetero
        _, solo, _ = run_batch([HETERO_SCENARIOS[lane]])
        assert_results_identical(solo[0], results[lane])


def _mixed_batch(
    config: SimulationConfig, trace
) -> Tuple[Scenario, ...]:
    """A comparator-less MPPT lane that takes the brownout branch on
    ``trace``, an MPPT lane that does not, and a fallback lane."""
    builders = (
        ("mppt_blind", _blind_mppt_parts),
        ("mppt", _fig8_mppt_parts),
        ("fixed", _fig6_fixed_parts),
    )
    return tuple(
        Scenario(name, config, trace, parts) for name, parts in builders
    )


class TestLaneIndependence:
    def test_death_by_brownout_leaves_other_lanes_untouched(self) -> None:
        """A ``stop_on_brownout`` batch runs on the scalar engine, even
        where the classifier admits its lanes, and a lane's death still
        leaves its neighbours untouched.  record_every=1: the death step
        is a recording step, so the dying lane keeps a final record
        column (the ``stop_on_brownout`` matrix lane dies between
        columns)."""
        config = SimulationConfig(
            time_step_s=micro_seconds(10),
            record_every=1,
            stop_on_brownout=True,
        )
        scenarios = _mixed_batch(config, DEATH_TRACE)
        simulator, results, _ = run_batch(scenarios)
        assert [lane_vectorizes(s) for s in scenarios] == [True, True, False]
        assert simulator.control_summary == {
            "lanes": 3,
            "vectorized": 0,
            "fallback": 3,
        }
        # The blind lane really dies mid-run; its neighbour does not.
        assert results[0].brownout_count == 1
        assert results[1].brownout_count == 0
        assert results[0].time_s[-1] < results[1].time_s[-1]
        for lane, scenario in enumerate(scenarios):
            scalar, capacitor = run_scalar_lane(scenario)
            assert_results_identical(scalar, results[lane])
            assert_capacitor_written_back(simulator, lane, capacitor)

    def test_recovery_leaves_other_lanes_untouched(self) -> None:
        scenarios = _mixed_batch(RECOVERY_CONFIG, RECOVERY_TRACE)
        simulator, results, _ = run_batch(scenarios)
        assert [lane_vectorizes(s) for s in scenarios] == [True, True, False]
        assert simulator.control_summary is not None
        assert simulator.control_summary["vectorized"] == 2
        # The passing cloud drives the blind lane through a full
        # brownout-and-recover span; its neighbour rides it out.
        assert [name for name, _ in results[0].events] == [
            "brownout",
            "recovered",
        ]
        assert results[1].events == []
        for lane, scenario in enumerate(scenarios):
            scalar, capacitor = run_scalar_lane(scenario)
            assert_results_identical(scalar, results[lane])
            assert_capacitor_written_back(simulator, lane, capacitor)

    def test_state_time_is_latest_lane_end(self) -> None:
        """A ``stop_on_completion`` batch runs on the scalar engine: the
        MPPT lanes that complete early leave the transition-model lane
        as the last one running, so its ``engine.steps`` count is the
        batch's largest."""
        config = SimulationConfig(
            time_step_s=micro_seconds(10),
            record_every=4,
            stop_on_brownout=False,
            stop_on_completion=True,
        )
        scenarios = (
            Scenario(
                "mppt_short",
                config,
                MATRIX_TRACE,
                short_job(_fig8_mppt_parts, 50_000),
            ),
            Scenario(
                "mppt_shorter",
                config,
                MATRIX_TRACE,
                short_job(_fig8_mppt_parts, 20_000),
            ),
            Scenario("transitions", config, MATRIX_TRACE, _transitions_parts),
        )
        simulator, results, _ = run_batch(scenarios, with_metrics=True)
        assert [lane_vectorizes(s) for s in scenarios] == [True, True, False]
        assert simulator.control_summary == {
            "lanes": 3,
            "vectorized": 0,
            "fallback": 3,
        }
        for lane, scenario in enumerate(scenarios):
            scalar, capacitor = run_scalar_lane(
                scenario, telemetry=TelemetrySession()
            )
            assert_results_identical(scalar, results[lane])
            assert_capacitor_written_back(simulator, lane, capacitor)
        assert results[0].completed and results[1].completed
        assert not results[2].completed
        steps = []
        for result in results:
            assert result.metrics is not None
            steps.append(result.metrics["engine.steps"])
        # The lane that never completes has the largest count.
        assert steps[1] < steps[0] < steps[2]


class TestPermutationInvariance:
    def test_reversed_lane_order_is_equivalent(self, hetero) -> None:
        simulator, results = hetero
        order: List[int] = list(reversed(range(len(HETERO_SCENARIOS))))
        perm_sim, perm_results, _ = run_batch(
            tuple(HETERO_SCENARIOS[lane] for lane in order)
        )
        for position, lane in enumerate(order):
            assert_results_identical(results[lane], perm_results[position])
            assert_capacitor_written_back(
                perm_sim, position, simulator.nodes[lane].capacitor
            )
        # Classification travels with its lanes.
        assert perm_sim.control_summary == simulator.control_summary


def _sc(**changes: Any) -> SwitchedCapacitorRegulator:
    return SwitchedCapacitorRegulator(
        nominal_input_v=FIG4_BENCH_INPUT_V, **changes
    )


def _derated_sc() -> SwitchedCapacitorRegulator:
    regulator = _sc(switching_drop_v=0.08)
    regulator.set_efficiency_derating(0.8)
    return regulator


#: One regulator per lane: the paper's bank, then banks that differ in
#: every column of the band table.  Each value changes its lane's run
#: (the impedance caps the current, the range excludes tracker
#: setpoints), so a lane read from another lane's row shows.
MIXED_REGULATORS = (
    ("paper", _sc),
    ("half_only", lambda: _sc(ratios=(Fraction(1, 2),))),
    (
        "two_ratios_12ohm",
        lambda: _sc(
            ratios=(Fraction(4, 5), Fraction(1, 2)), output_impedance_ohm=12.0
        ),
    ),
    (
        "narrow_range_2mw",
        lambda: _sc(
            min_output_v=0.4,
            max_output_v=0.6,
            fixed_loss_w=2e-3,
            fixed_loss_reference_v=1.0,
        ),
    ),
    ("derated", _derated_sc),
)


def _with_regulator(
    make: Callable[[], SwitchedCapacitorRegulator],
) -> Callable[[Any], Dict[str, Any]]:
    def parts(telemetry: Any) -> Dict[str, Any]:
        lane_parts = _fig8_mppt_parts(telemetry)
        lane_parts["regulator"] = make()
        return lane_parts

    return parts


class TestMixedRegulators:
    def test_each_lane_matches_its_scalar_run(self) -> None:
        """Ratio banks of different lengths pad the band table with NaN;
        a padded band must never win, and no lane's columns may leak
        into another's."""
        scenarios = tuple(
            Scenario(
                name, RECOVERY_CONFIG, MATRIX_TRACE, _with_regulator(make)
            )
            for name, make in MIXED_REGULATORS
        )
        simulator, results, _ = run_batch(scenarios)
        assert simulator.control_summary is not None
        assert simulator.control_summary["vectorized"] == len(scenarios)
        # The 2:1-only bank cannot hold the tracker's setpoints: it
        # browns out, halts and recovers three times.
        assert results[1].brownout_count == 3
        for lane, scenario in enumerate(scenarios):
            assert results_bit_identical(run_scalar(scenario), results[lane])


class TestBandScan:
    """The table's one-pass (lane x band) scan against the regulator."""

    @staticmethod
    def _grid(regulators):
        """Every lane against every (v_in, v_out, p_out) of the grid.

        ``v_in`` covers a dead and a negative node; ``p_out`` covers
        zero load (every usable band ties at the same power), a
        subnormal load (bands tie after rounding) and loads no band can
        carry.  Output voltages outside a lane's range never reach the
        scan (the control plane halts them first), so they are dropped.
        """
        rows, v_in, v_out, p_out = [], [], [], []
        for row, regulator in enumerate(regulators):
            for vi in (-0.2, 0.0, 0.3, 0.6, 0.9, 1.2, 1.5):
                for vo in np.linspace(0.15, 1.0, 11).tolist():
                    lo, hi = regulator.min_output_v, regulator.max_output_v
                    if not lo <= vo <= hi:
                        continue
                    for po in (0.0, 5e-324, 1e-4, 2e-3, 1e-2, 0.2):
                        rows.append(row)
                        v_in.append(vi)
                        v_out.append(vo)
                        p_out.append(po)
        return (
            np.array(rows, dtype=np.intp),
            np.array(v_in),
            np.array(v_out),
            np.array(p_out),
        )

    def test_scan_equals_input_power_on_a_grid(self) -> None:
        regulators = [make() for _, make in MIXED_REGULATORS]
        table = ScBandTable(regulators)
        rows, v_in, v_out, p_out = self._grid(regulators)
        # The per-lane constants, exactly as ControlPlane derives them
        # from a regulated decision.
        i_out = p_out / v_out
        feasible, p_draw = table.scan(
            rows,
            v_in,
            v_out,
            i_out,
            table.switching_drop_v[rows] * i_out,
            i_out - (1e-9 + 1e-9 * i_out),
        )
        outcomes = {"feasible": 0, "infeasible": 0}
        for k, row in enumerate(rows.tolist()):
            regulator = regulators[row]
            try:
                expected = regulator.input_power(
                    float(v_out[k]), float(p_out[k]), v_in=float(v_in[k])
                )
            except OperatingRangeError:
                assert not feasible[k] and p_draw[k] == 0.0, k
                outcomes["infeasible"] += 1
                continue
            assert feasible[k], k
            assert p_draw[k] == expected, k  # bit for bit
            outcomes["feasible"] += 1
        assert min(outcomes.values()) > 50

    def test_ties_and_ragged_pads(self) -> None:
        """Zero load ties every usable band; the NaN pads of the short
        bank never win, nor do they turn its scan infeasible."""
        regulators = [_sc(), _sc(ratios=(Fraction(1, 2),))]
        table = ScBandTable(regulators)
        assert np.isnan(table.ratios[1, 1:]).all()
        rows = np.array([0, 1], dtype=np.intp)
        zeros = np.zeros(2)
        feasible, p_draw = table.scan(
            rows,
            np.full(2, 1.2),
            np.full(2, 0.5),
            zeros,
            zeros,
            zeros - 1e-9,
        )
        assert feasible.tolist() == [True, True]
        for k, regulator in enumerate(regulators):
            band = regulator._best_band(0.5, 0.0, 1.2)
            assert band is not None
            assert p_draw[k] == band[1] == regulator.input_power(
                0.5, 0.0, v_in=1.2
            )


class _PinnedBypassTracker(DischargeTimeMppTracker):
    """Every estimate maps to the bright-light bypass point, so a dark
    node keeps running the processor off the node until it drops
    below ``min_operating_v``."""

    def operating_point_for(self, irradiance: float) -> OperatingPoint:
        return self.optimizer.unregulated_point(1.0)


_BYPASS_TRACKER = _PinnedBypassTracker(SYSTEM, "sc", lut=LUT)


def _bypass_mppt_parts(telemetry: Any) -> Dict[str, Any]:
    """A small node precharged above ``max_operating_v`` that the light
    leaves: bypass clamped at the ceiling, then a halt below the
    floor."""
    parts = _fig8_mppt_parts(telemetry)
    parts["controller"] = MppTrackingController(
        _BYPASS_TRACKER, initial_irradiance=1.0, telemetry=telemetry
    )
    parts["capacitor"] = Capacitor(15e-6, initial_voltage_v=1.3)
    return parts


_BYPASS_CONFIG = SimulationConfig(
    time_step_s=micro_seconds(10), record_every=1, stop_on_brownout=False
)

_BYPASS_SCENARIOS = tuple(
    Scenario(
        f"bypass_{k}",
        _BYPASS_CONFIG,
        step_trace(1.0, 0.0, 2e-3, 8e-3),
        _bypass_mppt_parts,
    )
    for k in range(3)
)


class TestBypassLanes:
    def test_bypass_lanes_match_scalar_across_the_operating_range(
        self,
    ) -> None:
        scenarios = _BYPASS_SCENARIOS
        simulator, results, _ = run_batch(scenarios)
        assert simulator.control_summary is not None
        assert simulator.control_summary["vectorized"] == len(scenarios)
        processor = SYSTEM.processor
        bypass = SimulationResult.MODE_CODES["bypass"]
        halt = SimulationResult.MODE_CODES["halt"]
        for scenario, result in zip(scenarios, results):
            assert results_bit_identical(run_scalar(scenario), result)
            v = result.node_voltage_v
            mode = result.mode
            # Clamped above the ceiling, halted below the floor, with
            # the processor rail on the node either way.
            above = (v > processor.max_operating_v) & (mode == bypass)
            assert above.sum() > 10
            below = v < processor.min_operating_v
            assert below.sum() > 100
            assert (mode[below] == halt).all()
            assert (result.processor_voltage_v[below] == v[below]).all()
            assert (result.frequency_hz[below] == 0.0).all()
            assert (mode == bypass).sum() > 300
            assert result.brownout_count == 1


class TestComparatorService:
    def test_noisy_noiseless_and_bankless_lanes_match_scalar(self) -> None:
        """One batch: a seeded campaign lane whose faulted bank draws
        per-sample noise, an MPPT lane on the noiseless design bank and
        an MPPT lane without comparators, all under the campaign's
        faulted trace.  Every bank observes every step, as in the
        scalar engine."""
        noisy = campaign_scenario(2)
        scenarios = (
            noisy,
            Scenario(
                "noiseless_bank",
                CAMPAIGN_SIM_CONFIG,
                noisy.trace,
                _fig8_mppt_parts,
                duration_s=CAMPAIGN_CONFIG.duration_s,
            ),
            Scenario(
                "no_bank",
                CAMPAIGN_SIM_CONFIG,
                noisy.trace,
                _blind_mppt_parts,
                duration_s=CAMPAIGN_CONFIG.duration_s,
            ),
        )
        simulator, results, _ = run_batch(scenarios)
        assert simulator.control_summary is not None
        assert simulator.control_summary["vectorized"] == len(scenarios)
        noisy_bank, quiet_bank, no_bank = (
            node.comparators for node in simulator.nodes
        )
        assert noisy_bank is not None and quiet_bank is not None
        assert all(c.noise_sigma_v > 0.0 for c in noisy_bank.comparators)
        assert all(c.noise_sigma_v == 0.0 for c in quiet_bank.comparators)
        assert no_bank is None
        # Both banks saw crossings, so their observes fed the trackers.
        assert noisy_bank.history and quiet_bank.history
        for lane, scenario in enumerate(scenarios):
            scalar, capacitor = run_scalar_lane(scenario)
            assert results_bit_identical(scalar, results[lane])
            assert_capacitor_written_back(simulator, lane, capacitor)


def _collapsed_leaky_parts(telemetry: Any) -> Dict[str, Any]:
    """An MPPT lane whose leaking node starts empty."""
    parts = _fig8_mppt_parts(telemetry)
    parts["capacitor"] = Capacitor(
        SYSTEM.node_capacitance_f,
        initial_voltage_v=0.0,
        leakage_current_a=micro_amps(2.0),
    )
    return parts


_RARE_DURATION_S = RECOVERY_TRACE.duration_s

#: Dark for 3 ms, then a passing cloud over the rest of the run.
_DARK_THEN_CLOUD = concatenate(
    [
        constant_trace(0.0, 3e-3),
        cloud_trace(
            1.0,
            0.01,
            8e-3,
            6e-3,
            _RARE_DURATION_S - 3e-3,
            edge_s=micro_seconds(500),
        ),
    ]
)

#: One lane per rare state of the core, on the recovery config: a
#: leaking node that starts collapsed in the dark and recharges, a
#: lane that browns out and recovers, a job that completes mid-run, a
#: lane with no workload, and a bypass lane that a dark cloud browns
#: out.
RARE_STATE_SCENARIOS = (
    Scenario(
        "collapse_then_recharge",
        RECOVERY_CONFIG,
        _DARK_THEN_CLOUD,
        _collapsed_leaky_parts,
    ),
    Scenario(
        "brownout_recovery", RECOVERY_CONFIG, RECOVERY_TRACE, _blind_mppt_parts
    ),
    Scenario(
        "completes",
        RECOVERY_CONFIG,
        RECOVERY_TRACE,
        short_job(_fig8_mppt_parts, 5_000_000),
    ),
    Scenario("no_workload", RECOVERY_CONFIG, RECOVERY_TRACE, _fig8_mppt_parts),
    Scenario(
        "bypass",
        RECOVERY_CONFIG,
        cloud_trace(
            1.0, 0.0, 2e-3, 6e-3, _RARE_DURATION_S, edge_s=micro_seconds(500)
        ),
        _bypass_mppt_parts,
    ),
)


class TestQuietStep:
    """The core does a rare state's array work only while a lane is in
    that state, and every lane still matches its scalar run."""

    def test_rare_state_lanes_match_scalar(self, monkeypatch) -> None:
        recovering_args: "List[bool | None]" = []
        flags = ControlPlane.decision_flags

        def spy(self, step, time_s, v, v_prev, recovering, *rest):
            recovering_args.append(
                None if recovering is None else bool(recovering.any())
            )
            return flags(self, step, time_s, v, v_prev, recovering, *rest)

        monkeypatch.setattr(ControlPlane, "decision_flags", spy)
        scenarios = RARE_STATE_SCENARIOS
        simulator, results, sessions = run_batch(
            scenarios, with_metrics=True
        )
        assert simulator.control_summary is not None
        assert simulator.control_summary["vectorized"] == len(scenarios)

        collapse, recovery, completes, idle, bypass = results
        assert [name for name, _ in collapse.events] == [
            "brownout",
            "node_collapse",
            "recovered",
        ]
        assert collapse.node_voltage_v[-1] > 1.0
        assert [name for name, _ in recovery.events] == [
            "brownout",
            "recovered",
        ]
        assert completes.completed
        assert [name for name, _ in completes.events] == ["completed"]
        assert 0.0 < completes.events[0][1] < _RARE_DURATION_S
        assert not idle.completed and idle.events == []
        bypass_code = SimulationResult.MODE_CODES["bypass"]
        assert (bypass.mode == bypass_code).sum() > 100
        assert [name for name, _ in bypass.events] == [
            "brownout",
            "recovered",
        ]
        for lane, scenario in enumerate(scenarios):
            scalar_session = TelemetrySession()
            scalar, capacitor = run_scalar_lane(scenario, scalar_session)
            assert_results_identical(scalar, results[lane])
            assert_capacitor_written_back(simulator, lane, capacitor)
            # The sim-time trace: event attributes, spans, outages.
            lane_session = sessions[lane]
            assert lane_session is not None
            assert lane_session.tracer.events == scalar_session.tracer.events
            assert lane_session.tracer.spans == scalar_session.tracer.spans

        # The recovery mask reaches the skip predicate only on steps
        # where some lane is recovering, and on no other step.
        assert True in recovering_args
        assert None in recovering_args
        assert False not in recovering_args

    def test_groups_derived_once_per_step_with_a_decide_call(
        self, monkeypatch
    ) -> None:
        """A 16-lane campaign batch re-derives the resolution groups on
        exactly the steps that made a real ``decide`` call (a count,
        not a time)."""
        flagged_steps: List[bool] = []
        derivations: List[int] = []
        flags = ControlPlane.decision_flags
        derive = ControlPlane._derive_groups

        def flag_spy(self, *args):
            need = flags(self, *args)
            flagged_steps.append(bool(need.any()))
            return need

        def derive_spy(self):
            derivations.append(len(flagged_steps))
            derive(self)

        monkeypatch.setattr(ControlPlane, "decision_flags", flag_spy)
        monkeypatch.setattr(ControlPlane, "_derive_groups", derive_spy)
        scenarios = tuple(campaign_scenario(seed) for seed in range(16))
        simulator, _, _ = run_batch(scenarios)
        assert simulator.control_summary is not None
        assert simulator.control_summary["vectorized"] == 16

        decide_steps = [
            step for step, flagged in enumerate(flagged_steps, 1) if flagged
        ]
        assert derivations == decide_steps
        # Quiet steps are the common case.
        assert 0 < len(decide_steps) < len(flagged_steps) // 2
