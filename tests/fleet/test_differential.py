"""Differential equivalence: fleet engine vs scalar reference.

The contract the fleet engine ships under: a batch of one is
*bit-identical* to the scalar :class:`TransientSimulator` -- every
recorded array, scalar, event and telemetry metric -- across the whole
scenario matrix (Fig. 6 fixed point, Fig. 8 MPPT, DVFS transitions,
Fig. 9 sprint, early-exit stops, brownout recovery and seeded fault
campaigns), and a batch of N equals N independent batches of one
(lane independence).
"""

from __future__ import annotations

import math
from dataclasses import asdict

import pytest

from repro.faults import (
    SCHEMES,
    CampaignConfig,
    FaultSpec,
    run_transient_campaign,
)
from repro.faults.campaign import ENGINES
from repro.errors import ModelParameterError
from repro.telemetry.session import TelemetrySession

from tests.fleet.scenarios import (
    ALL_SCENARIOS,
    MATRIX_SCENARIOS,
    assert_results_identical,
    campaign_scenario,
    run_batch,
    run_scalar,
    trees_equal,
    values_equal,
)

SCENARIOS = ALL_SCENARIOS + tuple(
    campaign_scenario(seed) for seed in (1, 2, 3)
)


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[s.name for s in SCENARIOS]
)
def test_batch_of_one_bit_identical_to_scalar(scenario) -> None:
    scalar_session = TelemetrySession()
    scalar = run_scalar(scenario, telemetry=scalar_session)
    _, results, sessions = run_batch([scenario], with_metrics=True)
    assert sessions[0] is not None
    assert_results_identical(scalar, results[0])
    assert results[0].metrics is not None  # telemetry really recorded
    # The sim-time trace too: event attributes, span nesting, outages.
    assert sessions[0].tracer.events == scalar_session.tracer.events
    assert sessions[0].tracer.spans == scalar_session.tracer.spans


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[s.name for s in SCENARIOS]
)
def test_batch_n_equals_n_times_batch_one(scenario) -> None:
    """Three lanes of the same scenario = three independent batches."""
    lanes = [scenario] * 3
    _, batched, _ = run_batch(lanes)
    for lane in lanes:
        _, (alone,), _ = run_batch([lane])
        for result in batched:
            assert_results_identical(alone, result)


def test_mixed_scenario_batch_is_lane_independent() -> None:
    """Heterogeneous lanes in one batch each match their solo run.

    The matrix scenarios share one config, so fixed-point, MPPT,
    transition-model and sprint lanes can ride one batch; a lane must
    never see its neighbours.
    """
    _, batched, _ = run_batch(list(MATRIX_SCENARIOS), with_metrics=True)
    for scenario, result in zip(MATRIX_SCENARIOS, batched):
        scalar = run_scalar(scenario, telemetry=TelemetrySession())
        assert_results_identical(scalar, result)


def test_dying_lane_does_not_perturb_survivors() -> None:
    """A lane killed mid-batch leaves the surviving lanes bit-exact."""
    from tests.fleet.scenarios import STOP_SCENARIOS

    dying = STOP_SCENARIOS[0]  # stop_on_brownout: dies early
    survivor = next(s for s in MATRIX_SCENARIOS if s.name == "fig8_mppt")
    survivor_like = type(survivor)(
        survivor.name, dying.config, dying.trace, survivor.parts
    )
    _, batched, _ = run_batch([dying, survivor_like])
    assert batched[0].brownout_count >= 1  # the kill really happened
    assert len(batched[0].time_s) < len(batched[1].time_s)
    _, (alone,), _ = run_batch([survivor_like])
    assert_results_identical(alone, batched[1])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_campaign_fleet_engine_matches_scalar_engine(scheme: str) -> None:
    """run_transient_campaign(engine=...) is engine-transparent."""
    spec = FaultSpec(comparator_offset_sigma_v=80e-3, flicker_depth_max=0.6)
    config = CampaignConfig(
        runs=4, duration_s=30e-3, dim_time_s=12e-3, scheme=scheme
    )
    scalar = run_transient_campaign(spec, config, engine="scalar")
    fleet = run_transient_campaign(spec, config, engine="fleet")
    # Two workers split the 4 seeds into fleet shards of 2.
    sharded = run_transient_campaign(spec, config, engine="fleet", workers=2)
    for candidate_summary in (fleet, sharded):
        assert len(scalar.records) == len(candidate_summary.records)
        for left, right in zip(scalar.records, candidate_summary.records):
            la, ra = asdict(left), asdict(right)
            assert set(la) == set(ra)
            for field in la:
                assert trees_equal(la[field], ra[field]), (
                    left.seed,
                    field,
                    la[field],
                    ra[field],
                )
        reference, candidate = scalar.as_dict(), candidate_summary.as_dict()
        assert trees_equal(reference, candidate)


def test_campaign_engine_validation() -> None:
    spec = FaultSpec()
    config = CampaignConfig(runs=2, duration_s=10e-3, dim_time_s=4e-3)
    assert ENGINES == ("auto", "scalar", "fleet")
    with pytest.raises(ModelParameterError):
        run_transient_campaign(spec, config, engine="vector")


def test_summary_nan_semantics() -> None:
    """An incomplete run reports completion_time_s = NaN; the helper
    treats NaN as equal so scalar-vs-itself cannot spuriously fail."""
    scenario = MATRIX_SCENARIOS[0]
    result = run_scalar(scenario)
    summary = result.summary()
    assert math.isnan(summary["completion_time_s"])
    assert values_equal(summary["completion_time_s"], float("nan"))
    assert not values_equal(0.0, float("nan"))
