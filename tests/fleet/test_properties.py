"""Hypothesis property tests for the fleet engine's batched updates.

Randomised counterparts of the fixed differential matrix.  Every
example runs MPP-tracking lanes in the vectorized core, with and
without comparators, from a drawn initial charge under a drawn passing
cloud: from about 1.24 V up, a cloud down to half light or less browns
the comparator-less tracker out and lets it recover, so the core's
halt and release paths run on drawn schedules.  Fixed operating
point lanes ride along on the scalar engine.  Each lane must stay
bit-identical to the scalar reference and leave its capacitor where
the scalar run leaves it; lane order must never matter; a lane's
result must survive pickling bit for bit.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pv.traces import IrradianceTrace, cloud_trace, step_trace
from repro.sim.dvfs import FixedOperatingPointController
from repro.sim.engine import SimulationConfig
from repro.sim.result import results_bit_identical
from repro.telemetry.session import Telemetry
from repro.units import micro_seconds

from tests.fleet.scenarios import (
    SYSTEM,
    PartsBuilder,
    Scenario,
    _blind_mppt_parts,
    _fig8_mppt_parts,
    assert_capacitor_written_back,
    assert_results_identical,
    run_batch,
    run_scalar_lane,
)

#: Shared config of the randomized runs: brownout recovery on, so a
#: lane that browns out comes back, the core's halt/release path runs
#: and every lane runs the whole grid in the vectorized core.
CONFIG = SimulationConfig(
    time_step_s=20e-6,
    record_every=2,
    stop_on_brownout=False,
    recover_from_brownout=True,
    recovery_voltage_v=1.0,
)

DURATION_S = 8e-3


def _mppt(blind: bool, initial_v: float) -> PartsBuilder:
    """An MPPT lane (comparator-less when ``blind``) charged to ``initial_v``."""

    def parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
        builder = _blind_mppt_parts if blind else _fig8_mppt_parts
        lane_parts = builder(telemetry)
        lane_parts["capacitor"] = SYSTEM.new_node_capacitor(initial_v)
        return lane_parts

    return parts


def _fixed(
    setpoint_v: float, frequency_hz: float, initial_v: float
) -> PartsBuilder:
    def parts(telemetry: "Optional[Telemetry]") -> Dict[str, Any]:
        return {
            "cell": SYSTEM.cell,
            "capacitor": SYSTEM.new_node_capacitor(initial_v),
            "processor": SYSTEM.processor,
            "regulator": SYSTEM.regulator("sc"),
            "controller": FixedOperatingPointController(
                setpoint_v, frequency_hz
            ),
            "comparators": SYSTEM.new_comparator_bank(),
        }

    return parts


def _trace(dim_to: float) -> IrradianceTrace:
    """A 4 ms cloud down to ``dim_to``, with bright light either side."""
    return cloud_trace(
        1.0, dim_to, 1e-3, 4e-3, DURATION_S, edge_s=micro_seconds(100)
    )


@given(
    setpoint_v=st.floats(min_value=0.5, max_value=0.62),
    freq_mhz=st.floats(min_value=20.0, max_value=60.0),
    initial_v=st.floats(min_value=0.8, max_value=1.3),
    mppt_v=st.floats(min_value=1.1, max_value=1.3),
    dim_to=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=20, deadline=None)
def test_random_brownout_recovery_matches_scalar(
    setpoint_v: float,
    freq_mhz: float,
    initial_v: float,
    mppt_v: float,
    dim_to: float,
) -> None:
    """Whatever brownout/recovery schedule the draw induces, a batch of
    two core MPPT lanes and a fallback fixed-point lane is
    bit-identical to the scalar engine, lane by lane."""
    trace = _trace(dim_to)
    scenarios = (
        Scenario("mppt_blind", CONFIG, trace, _mppt(True, mppt_v)),
        Scenario("mppt", CONFIG, trace, _mppt(False, mppt_v)),
        Scenario(
            "fixed", CONFIG, trace, _fixed(setpoint_v, freq_mhz * 1e6, initial_v)
        ),
    )
    simulator, results, _ = run_batch(scenarios)
    assert simulator.control_summary is not None
    assert simulator.control_summary["vectorized"] == 2
    for lane, scenario in enumerate(scenarios):
        scalar, capacitor = run_scalar_lane(scenario)
        assert_results_identical(scalar, results[lane])
        assert_capacitor_written_back(simulator, lane, capacitor)


def _lane_parts(index: int, initial_v: float) -> PartsBuilder:
    # Distinguishable lanes: a comparator-less and a comparator MPPT
    # lane in the core, then two fixed points on the scalar engine.
    if index < 2:
        return _mppt(index == 0, initial_v)
    setpoints = (0.52, 0.58)
    freqs = (25e6, 45e6)
    return _fixed(setpoints[index - 2], freqs[index - 2], initial_v)


@given(
    order=st.permutations(list(range(4))),
    initial_vs=st.lists(
        st.floats(min_value=0.8, max_value=1.3), min_size=4, max_size=4
    ),
    dim_to=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=15, deadline=None)
def test_lane_permutation_is_invariant(
    order: List[int], initial_vs: List[float], dim_to: float
) -> None:
    """Permuting the lanes permutes the results and capacitors, exactly."""
    trace = _trace(dim_to)

    def run(lane_order: List[int]):
        simulator, results, _ = run_batch(
            tuple(
                Scenario(
                    f"lane{i}", CONFIG, trace, _lane_parts(i, initial_vs[i])
                )
                for i in lane_order
            )
        )
        assert simulator.control_summary is not None
        assert simulator.control_summary["vectorized"] == 2
        return simulator, results

    base_sim, base_results = run(list(range(4)))
    perm_sim, perm_results = run(order)
    for position, lane in enumerate(order):
        assert_results_identical(base_results[lane], perm_results[position])
        assert_capacitor_written_back(
            perm_sim, position, base_sim.nodes[lane].capacitor
        )
    assert order == list(range(4)) or any(
        not results_bit_identical(base, perm)
        for base, perm in zip(base_results, perm_results)
    )


@given(initial_v=st.floats(min_value=0.8, max_value=1.3))
@settings(max_examples=10, deadline=None)
def test_fleet_state_round_trips_through_pickle(initial_v: float) -> None:
    """A core lane's result survives pickling bit for bit."""
    scenario = Scenario("mppt", CONFIG, _trace(0.3), _mppt(True, initial_v))
    simulator, (result,), _ = run_batch((scenario,))
    assert simulator.control_summary is not None
    assert simulator.control_summary["vectorized"] == 1
    clone = pickle.loads(pickle.dumps(result))
    assert clone is not result
    assert_results_identical(result, clone)
    assert_results_identical(clone, result)
    # a bit-level perturbation must break equality
    clone.node_voltage_v[0] = clone.node_voltage_v[0] + 1e-9
    assert not results_bit_identical(result, clone)


def test_dead_lane_mask_freezes_voltage() -> None:
    """A lane killed by stop_on_brownout keeps its final voltage while
    the surviving lane keeps integrating.  The batch may stop a lane
    early, so both MPPT lanes run on the scalar engine."""
    config = SimulationConfig(
        time_step_s=20e-6, record_every=2, stop_on_brownout=True
    )
    trace = step_trace(1.0, 0.05, 2e-3, DURATION_S)
    scenarios = (
        Scenario("dying", config, trace, _mppt(True, 1.05)),
        Scenario("surviving", config, trace, _mppt(False, 1.3)),
    )
    simulator, results, _ = run_batch(scenarios)
    assert simulator.control_summary == {
        "lanes": 2,
        "vectorized": 0,
        "fallback": 2,
    }
    # The blind lane dies mid-run; the other lane runs to the end.
    assert results[0].brownout_count == 1
    assert results[1].brownout_count == 0
    assert results[0].time_s[-1] < results[1].time_s[-1]
    # Death falls between recording steps here, so the capacitor ends
    # below the last record; the scalar run is the reference.
    assert (
        simulator.nodes[0].capacitor.voltage_v < results[0].node_voltage_v[-1]
    )
    for lane, scenario in enumerate(scenarios):
        scalar, capacitor = run_scalar_lane(scenario)
        assert_results_identical(scalar, results[lane])
        assert_capacitor_written_back(simulator, lane, capacitor)
