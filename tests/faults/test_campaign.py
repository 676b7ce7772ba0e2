"""Tests for the Monte Carlo robustness campaign harness.

Campaign runs are full transient simulations, so the configs here are
deliberately tiny (a few runs over tens of milliseconds); the 50+-run
campaigns live in ``benchmarks/test_robustness_campaign.py``.
"""

import math

import pytest

from repro.errors import ModelParameterError
from repro.faults import (
    FLEET_AUTO_MIN_BATCH,
    CampaignConfig,
    FaultSpec,
    IntermittentCampaignConfig,
    resolve_engine,
    run_intermittent_campaign,
    run_transient_campaign,
)

SMALL = CampaignConfig(
    runs=3, duration_s=40e-3, dim_time_s=15e-3, scheme="holistic"
)
SMALL_INTERMITTENT = IntermittentCampaignConfig(runs=3, duration_s=0.2)


@pytest.fixture(scope="module")
def small_summary():
    return run_transient_campaign(FaultSpec(), SMALL)


class TestCampaignConfig:
    def test_rejects_zero_runs(self):
        with pytest.raises(ModelParameterError):
            CampaignConfig(runs=0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ModelParameterError):
            CampaignConfig(scheme="psychic")

    def test_rejects_dim_time_outside_duration(self):
        with pytest.raises(ModelParameterError):
            CampaignConfig(duration_s=10e-3, dim_time_s=20e-3)

    def test_rejects_workload_fraction_above_one(self):
        with pytest.raises(ModelParameterError):
            CampaignConfig(workload_fraction=1.5)

    def test_base_trace_steps_down(self):
        config = CampaignConfig()
        trace = config.base_trace()
        assert trace(0.0) == pytest.approx(config.bright)
        assert trace(config.duration_s) == pytest.approx(config.dim_to)


class TestEngineDispatch:
    """Pin the ``engine="auto"`` fleet/scalar crossover policy."""

    def test_auto_routes_small_batches_to_scalar(self):
        assert resolve_engine("auto", runs=1, batch_size=64) == "scalar"
        assert (
            resolve_engine(
                "auto", runs=FLEET_AUTO_MIN_BATCH - 1, batch_size=64
            )
            == "scalar"
        )

    def test_auto_routes_large_batches_to_fleet(self):
        assert (
            resolve_engine(
                "auto", runs=FLEET_AUTO_MIN_BATCH, batch_size=64
            )
            == "fleet"
        )
        assert resolve_engine("auto", runs=1024, batch_size=64) == "fleet"

    def test_batch_size_caps_the_effective_shard(self):
        # Plenty of runs, but shards of 4 never amortize the fleet's
        # per-step array overhead.
        assert resolve_engine("auto", runs=1024, batch_size=4) == "scalar"

    def test_resilience_forces_scalar(self):
        assert (
            resolve_engine(
                "auto", runs=1024, batch_size=64, resilience_active=True
            )
            == "scalar"
        )

    def test_explicit_engines_pass_through(self):
        # Explicit selection is never second-guessed: the differential
        # harness runs engine="fleet" at batch 1 on purpose.
        assert resolve_engine("fleet", runs=1, batch_size=1) == "fleet"
        assert resolve_engine("scalar", runs=1024, batch_size=64) == "scalar"

    def test_rejects_unknown_engine(self):
        with pytest.raises(ModelParameterError):
            resolve_engine("warp", runs=1, batch_size=1)

    def test_campaign_auto_small_run_never_touches_fleet(self, monkeypatch):
        # A 3-run campaign sits below the crossover: auto must take the
        # scalar path, so poisoning the fleet batch task proves the
        # dispatch rather than trusting the (bit-identical) outputs.
        import repro.fleet.campaign as fleet_campaign

        def _poisoned(*args, **kwargs):
            raise AssertionError("auto dispatched a tiny batch to the fleet")

        monkeypatch.setattr(
            fleet_campaign, "fleet_transient_batch_task", _poisoned
        )
        summary = run_transient_campaign(FaultSpec(), SMALL, engine="auto")
        assert summary.runs == SMALL.runs

    def test_campaign_auto_splits_small_fleet_batches_across_workers(
        self, monkeypatch
    ):
        # 16 seeds fill one fleet batch at workers=1, but at workers=2
        # each worker's shard of 8 sits below the crossover: auto must
        # take the scalar path rather than run one batch serially.
        import repro.fleet.campaign as fleet_campaign

        def _poisoned(*args, **kwargs):
            raise AssertionError("auto ran a sub-crossover fleet shard")

        monkeypatch.setattr(
            fleet_campaign, "fleet_transient_batch_task", _poisoned
        )
        config = CampaignConfig(
            runs=FLEET_AUTO_MIN_BATCH,
            duration_s=4e-3,
            dim_time_s=2e-3,
            scheme="holistic",
        )
        summary = run_transient_campaign(
            FaultSpec(), config, workers=2, engine="auto"
        )
        assert summary.runs == config.runs

    def test_campaign_fleet_override_still_batches(self, monkeypatch):
        import repro.fleet.campaign as fleet_campaign

        calls = {"count": 0}
        original = fleet_campaign.fleet_transient_batch_task

        def _spying(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(
            fleet_campaign, "fleet_transient_batch_task", _spying
        )
        summary = run_transient_campaign(FaultSpec(), SMALL, engine="fleet")
        assert summary.runs == SMALL.runs
        assert calls["count"] >= 1


class TestTransientCampaign:
    def test_one_record_per_run(self, small_summary):
        assert small_summary.runs == SMALL.runs
        assert len(small_summary.records) == SMALL.runs

    def test_seeds_are_consecutive_from_base(self, small_summary):
        seeds = [r.seed for r in small_summary.records]
        assert seeds == list(
            range(SMALL.base_seed, SMALL.base_seed + SMALL.runs)
        )

    def test_rates_lie_in_unit_interval(self, small_summary):
        for rate in (
            small_summary.survival_rate,
            small_summary.completion_rate,
            small_summary.brownout_run_fraction,
        ):
            assert 0.0 <= rate <= 1.0

    def test_ideal_reference_never_browns_out(self, small_summary):
        assert small_summary.ideal_brownout_count == 0
        assert small_summary.ideal_cycles > 0.0

    def test_throughput_ratios_are_against_ideal(self, small_summary):
        for record in small_summary.records:
            assert record.throughput_ratio == pytest.approx(
                record.final_cycles / small_summary.ideal_cycles
            )

    def test_aggregates_match_records(self, small_summary):
        records = small_summary.records
        assert small_summary.max_brownouts == max(
            r.brownout_count for r in records
        )
        assert small_summary.total_downtime_s == pytest.approx(
            sum(r.downtime_s for r in records)
        )
        assert small_summary.survival_rate == pytest.approx(
            sum(r.survived for r in records) / len(records)
        )

    def test_summary_dict_is_flat_numeric(self, small_summary):
        report = small_summary.as_dict()
        assert all(isinstance(v, float) for v in report.values())
        assert report["runs"] == float(SMALL.runs)

    def test_completion_quantiles_nan_without_completions(
        self, small_summary
    ):
        if small_summary.completion_rate == 0.0:
            assert math.isnan(small_summary.p50_completion_time_s)
        else:
            assert small_summary.p50_completion_time_s > 0.0

    def test_fixed_scheme_runs(self):
        config = CampaignConfig(
            runs=2, duration_s=30e-3, dim_time_s=10e-3, scheme="fixed"
        )
        summary = run_transient_campaign(FaultSpec.ideal(), config)
        assert summary.scheme == "fixed"
        assert summary.runs == 2

    def test_ideal_spec_reproduces_ideal_throughput(self):
        config = CampaignConfig(
            runs=2, duration_s=30e-3, dim_time_s=10e-3, scheme="holistic"
        )
        summary = run_transient_campaign(FaultSpec.ideal(), config)
        # Ideal draws perturb nothing, so every run retires exactly the
        # ideal reference cycles.
        for record in summary.records:
            assert record.throughput_ratio == pytest.approx(1.0)
            assert record.brownout_count == 0


class TestDeterministicReplay:
    def test_same_seed_replays_bit_identically(self):
        spec = FaultSpec()
        config = CampaignConfig(
            runs=2, duration_s=30e-3, dim_time_s=10e-3, scheme="holistic"
        )
        first = run_transient_campaign(spec, config)
        second = run_transient_campaign(spec, config)
        assert first.as_dict() == second.as_dict()
        assert first.records == second.records

    def test_intermittent_campaign_replays_bit_identically(self):
        spec = FaultSpec(checkpoint_corruption_rate=0.5)
        config = IntermittentCampaignConfig(runs=2, duration_s=0.2)
        first = run_intermittent_campaign(spec, config)
        second = run_intermittent_campaign(spec, config)
        assert first.as_dict() == second.as_dict()
        assert first.records == second.records

    def test_different_base_seed_changes_outcomes(self):
        spec = FaultSpec()
        base = CampaignConfig(
            runs=2, duration_s=30e-3, dim_time_s=10e-3, scheme="holistic"
        )
        from dataclasses import replace

        shifted = replace(base, base_seed=101)
        first = run_transient_campaign(spec, base)
        second = run_transient_campaign(spec, shifted)
        assert [r.seed for r in first.records] != [
            r.seed for r in second.records
        ]


class TestIntermittentCampaign:
    @pytest.fixture(scope="class")
    def corrupted_summary(self):
        # Full-length runs so the first half commits checkpoints for
        # the bit flip to land in (boots take ~125 ms of charging).
        spec = FaultSpec(checkpoint_corruption_rate=1.0)
        return run_intermittent_campaign(
            spec, IntermittentCampaignConfig(runs=3)
        )

    def test_rejects_zero_runs(self):
        with pytest.raises(ModelParameterError):
            IntermittentCampaignConfig(runs=0)

    def test_corruption_rate_one_injects_every_run(self, corrupted_summary):
        assert corrupted_summary.corruptions_injected == 3
        # Every flip lands in a committed slot's CRC word and must be
        # caught by the validity check on the next restore.
        assert (
            corrupted_summary.corruptions_detected
            == corrupted_summary.corruptions_injected
        )

    def test_corruption_does_not_stop_forward_progress(
        self, corrupted_summary
    ):
        assert corrupted_summary.forward_progress_rate == 1.0

    def test_ideal_spec_still_charge_bursts(self):
        summary = run_intermittent_campaign(
            FaultSpec.ideal(), SMALL_INTERMITTENT
        )
        assert summary.mean_reboots >= 1.0
        assert summary.corruptions_injected == 0
