"""Differential tests for the vectorized fleet control plane.

One heterogeneous batch mixes every vectorizable controller family
(fixed, constant_speed, bypass, duty_cycle, mppt, plan, receding) with
fallback lanes that run on the scalar engine (an unknown controller
subclass, a cell subclass, a DVFS transition model, a trace without
``step_samples``).  The contract under test:

* classification is per lane and observable (``control_summary`` and
  the ``FleetState.control_family`` codes match the family names);
* batch-N is bit-identical to N batches of one, and to the scalar
  reference engine, lane by lane -- results and ``FleetState`` rows;
* lanes stay independent through death (``stop_on_brownout``) and
  brownout recovery, and the state's shared time is the latest lane
  end;
* lane order is physically meaningless (``FleetState.permuted``).
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.fleet import FALLBACK_FAMILY, FAMILY_CODES
from repro.processor.workloads import Workload
from repro.pv.traces import cloud_trace
from repro.sim.engine import SimulationConfig
from repro.units import micro_seconds, milli_seconds

from tests.fleet.scenarios import (
    EXPECTED_FAMILY,
    FAMILY_SCENARIOS,
    HETERO_SCENARIOS,
    MATRIX_TRACE,
    Scenario,
    _constant_speed_parts,
    _duty_cycle_parts,
    _fig6_fixed_parts,
    _fig8_mppt_parts,
    _transitions_parts,
    assert_results_identical,
    assert_state_row_matches,
    run_batch,
    run_scalar,
    run_scalar_lane,
)

HETERO_NAMES = [scenario.name for scenario in HETERO_SCENARIOS]


@pytest.fixture(scope="module")
def hetero():
    """One heterogeneous batch shared (read-only) by the module."""
    simulator, results, _ = run_batch(HETERO_SCENARIOS)
    return simulator, results


class TestClassification:
    def test_control_summary_counts_every_family(self, hetero) -> None:
        simulator, _ = hetero
        summary = simulator.control_summary
        assert summary is not None
        assert summary["lanes"] == len(HETERO_SCENARIOS)
        assert summary["vectorized"] == len(FAMILY_SCENARIOS)
        assert summary["fallback"] == (
            len(HETERO_SCENARIOS) - len(FAMILY_SCENARIOS)
        )
        assert summary["families"] == {
            scenario.name: 1 for scenario in FAMILY_SCENARIOS
        }

    def test_state_records_per_lane_family_codes(self, hetero) -> None:
        simulator, _ = hetero
        state = simulator.state
        assert state is not None
        for lane, scenario in enumerate(HETERO_SCENARIOS):
            family = EXPECTED_FAMILY[scenario.name]
            expected = (
                FALLBACK_FAMILY if family is None else FAMILY_CODES[family]
            )
            assert int(state.control_family[lane]) == expected, scenario.name

    def test_family_codes_are_distinct_int8(self, hetero) -> None:
        simulator, _ = hetero
        state = simulator.state
        assert state is not None
        assert state.control_family.dtype.kind == "i"
        codes = state.control_family[: len(FAMILY_SCENARIOS)]
        assert len(set(codes.tolist())) == len(FAMILY_SCENARIOS)
        assert FALLBACK_FAMILY not in codes.tolist()


class TestHeterogeneousBitIdentity:
    @pytest.mark.parametrize("lane", range(len(HETERO_SCENARIOS)), ids=HETERO_NAMES)
    def test_lane_matches_scalar_reference(self, hetero, lane: int) -> None:
        simulator, results = hetero
        scalar, end = run_scalar_lane(HETERO_SCENARIOS[lane])
        assert_results_identical(scalar, results[lane])
        assert_state_row_matches(simulator.state, lane, scalar, end)

    @pytest.mark.parametrize("lane", range(len(HETERO_SCENARIOS)), ids=HETERO_NAMES)
    def test_batch_n_equals_n_batches_of_one(self, hetero, lane: int) -> None:
        _, results = hetero
        _, solo, _ = run_batch([HETERO_SCENARIOS[lane]])
        assert_results_identical(solo[0], results[lane])


def _mixed_batch(
    config: SimulationConfig, trace=MATRIX_TRACE
) -> Tuple[Scenario, ...]:
    """Family lanes re-homed onto another config/trace (fresh parts)."""
    builders = (
        ("fixed", _fig6_fixed_parts),
        ("constant_speed", _constant_speed_parts),
        ("duty_cycle", _duty_cycle_parts),
        ("mppt", _fig8_mppt_parts),
    )
    return tuple(
        Scenario(name, config, trace, parts) for name, parts in builders
    )


class TestLaneIndependence:
    def test_death_by_brownout_leaves_other_lanes_untouched(self) -> None:
        config = SimulationConfig(
            time_step_s=micro_seconds(10),
            record_every=4,
            stop_on_brownout=True,
        )
        scenarios = _mixed_batch(config)
        simulator, results, _ = run_batch(scenarios)
        state = simulator.state
        assert state is not None
        # The design-time fixed point has no headroom under the dimmed
        # tail: the fixed-family lanes really die mid-run.
        assert not bool(state.live[0])
        assert results[0].brownout_count >= 1
        for scenario, result in zip(scenarios, results):
            assert_results_identical(run_scalar(scenario), result)

    def test_recovery_leaves_other_lanes_untouched(self) -> None:
        config = SimulationConfig(
            time_step_s=micro_seconds(10),
            record_every=4,
            stop_on_brownout=False,
            recover_from_brownout=True,
            recovery_voltage_v=1.05,
        )
        trace = cloud_trace(
            1.0, 0.01, 2e-3, 5e-3, 20e-3, edge_s=milli_seconds(0.5)
        )
        scenarios = _mixed_batch(config, trace)
        _, results, _ = run_batch(scenarios)
        # The passing cloud drives the fixed lane through a full
        # brownout-and-recover span.
        assert results[0].brownout_count >= 1
        for scenario, result in zip(scenarios, results):
            assert_results_identical(run_scalar(scenario), result)


    def test_state_time_is_latest_lane_end(self) -> None:
        """Fast lanes that complete early leave the fallback lane as the
        last one running; the state's shared time is its end."""
        config = SimulationConfig(
            time_step_s=micro_seconds(10),
            record_every=4,
            stop_on_brownout=False,
            stop_on_completion=True,
        )

        def short_job(make_parts):
            def parts(telemetry):
                lane_parts = make_parts(telemetry)
                lane_parts["workload"] = Workload("short", 50_000)
                return lane_parts

            return parts

        scenarios = (
            Scenario(
                "fixed", config, MATRIX_TRACE, short_job(_fig6_fixed_parts)
            ),
            Scenario(
                "constant_speed",
                config,
                MATRIX_TRACE,
                short_job(_constant_speed_parts),
            ),
            Scenario("transitions", config, MATRIX_TRACE, _transitions_parts),
        )
        simulator, results, _ = run_batch(scenarios)
        state = simulator.state
        assert state is not None
        assert simulator.control_summary is not None
        assert simulator.control_summary["vectorized"] == 2
        assert simulator.control_summary["fallback"] == 1
        ends = []
        for lane, scenario in enumerate(scenarios):
            scalar, end = run_scalar_lane(scenario)
            assert_results_identical(scalar, results[lane])
            assert_state_row_matches(state, lane, scalar, end)
            ends.append(end)
        assert results[0].completed and results[1].completed
        assert max(ends[0].step, ends[1].step) < ends[2].step
        assert state.step == ends[2].step
        assert state.time_s == ends[2].time_s


class TestPermutationInvariance:
    def test_reversed_lane_order_is_equivalent(self, hetero) -> None:
        simulator, results = hetero
        base_state = simulator.state
        assert base_state is not None
        order: List[int] = list(reversed(range(len(HETERO_SCENARIOS))))
        perm_sim, perm_results, _ = run_batch(
            tuple(HETERO_SCENARIOS[lane] for lane in order)
        )
        perm_state = perm_sim.state
        assert perm_state is not None
        for position, lane in enumerate(order):
            assert_results_identical(results[lane], perm_results[position])
        assert base_state.permuted(order).equals(perm_state)
        # Classification codes travel with their lanes.
        assert perm_state.control_family.tolist() == [
            int(base_state.control_family[lane]) for lane in order
        ]
