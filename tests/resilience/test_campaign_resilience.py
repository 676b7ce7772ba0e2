"""Acceptance tests: the campaign runtime survives the issue's chaos.

Three contracts, asserted end-to-end on the real fault campaigns:

(a) killing workers mid-campaign yields a summary bit-identical to the
    serial, fault-free-infrastructure run;
(b) a campaign interrupted after K completed runs and resumed from its
    journal produces a summary byte-identical to an uninterrupted one;
(c) a persistently failing run is quarantined after ``max_retries``
    re-dispatches, with the failure recorded on the summary.
"""

import pickle

import pytest

from repro.faults import (
    CampaignConfig,
    FaultSpec,
    IntermittentCampaignConfig,
    run_intermittent_campaign,
    run_transient_campaign,
)
from repro.resilience import ChaosSpec, ResilienceConfig, RetryPolicy

SPEC = FaultSpec(comparator_offset_sigma_v=80e-3, flicker_depth_max=0.6)
CONFIG = CampaignConfig(runs=4, duration_s=30e-3, dim_time_s=10e-3)
FAST = RetryPolicy(max_retries=3, backoff_base_s=0.0)


@pytest.fixture(scope="module")
def reference_summary():
    """The uninterrupted, unsupervised serial campaign."""
    return run_transient_campaign(SPEC, CONFIG, workers=1)


class _InterruptCampaign(RuntimeError):
    """Stands in for SIGKILL/power loss in the resume test."""


class _InterruptingProgress:
    def __init__(self, after_updates):
        self.remaining = after_updates

    def start(self, total, workers):
        pass

    def update(self, completed, worker_id, busy_s):
        self.remaining -= 1
        if self.remaining <= 0:
            raise _InterruptCampaign("interrupted mid-campaign")

    def finish(self):
        pass


#: The fleet engine composes with resilience: it runs 1-seed batches.
ENGINES = pytest.mark.parametrize("engine", ("auto", "fleet"))


class TestWorkerKillBitIdentity:
    @ENGINES
    def test_crashed_workers_leave_the_summary_bit_identical(
        self, reference_summary, engine
    ):
        chaotic = run_transient_campaign(
            SPEC,
            CONFIG,
            workers=2,
            chunk_size=1,
            resilience=ResilienceConfig(
                policy=FAST, chaos=ChaosSpec(seed=5, crash_rate=0.5)
            ),
            engine=engine,
        )
        assert chaotic.failed_runs == ()
        assert chaotic.records == reference_summary.records
        assert chaotic.as_dict() == reference_summary.as_dict()

    def test_supervised_serial_matches_legacy_path(self, reference_summary):
        supervised = run_transient_campaign(
            SPEC, CONFIG, workers=1, resilience=ResilienceConfig()
        )
        assert supervised.records == reference_summary.records
        assert supervised.as_dict() == reference_summary.as_dict()
        assert supervised.failed_runs == ()


class TestJournaledResumeByteIdentity:
    @ENGINES
    def test_interrupted_campaign_resumes_byte_identically(
        self, tmp_path, reference_summary, engine
    ):
        journal_path = str(tmp_path / "transient.jsonl")
        with pytest.raises(_InterruptCampaign):
            run_transient_campaign(
                SPEC,
                CONFIG,
                workers=1,
                chunk_size=1,
                progress=_InterruptingProgress(after_updates=2),
                resilience=ResilienceConfig(journal_path=journal_path),
                engine=engine,
            )
        resumed = run_transient_campaign(
            SPEC,
            CONFIG,
            workers=1,
            chunk_size=1,
            resilience=ResilienceConfig(journal_path=journal_path),
            engine=engine,
        )
        uninterrupted = run_transient_campaign(
            SPEC, CONFIG, workers=1, chunk_size=1
        )
        assert pickle.dumps(resumed) == pickle.dumps(uninterrupted)
        assert resumed.records == reference_summary.records
        assert resumed.as_dict() == reference_summary.as_dict()

    def test_journal_with_per_seed_results_is_refused(self, tmp_path):
        # Journals once held one RunRecord per seed under this label;
        # batch tasks journal one-record lists, so resuming such a
        # journal must fail loudly instead of mixing result shapes.
        from repro.errors import JournalError
        from repro.parallel.ids import stable_fingerprint
        from repro.resilience.journal import CampaignJournal

        journal_path = tmp_path / "transient.jsonl"
        CampaignJournal(
            journal_path,
            stable_fingerprint("transient-campaign", SPEC, CONFIG),
        ).record_chunk([0], ["stale per-seed record"])
        with pytest.raises(JournalError):
            run_transient_campaign(
                SPEC,
                CONFIG,
                workers=1,
                resilience=ResilienceConfig(journal_path=str(journal_path)),
            )

    def test_journal_for_a_different_campaign_is_refused(self, tmp_path):
        from repro.errors import JournalError

        journal_path = str(tmp_path / "transient.jsonl")
        run_transient_campaign(
            SPEC,
            CONFIG,
            workers=1,
            resilience=ResilienceConfig(journal_path=journal_path),
        )
        other_config = CampaignConfig(
            runs=5, duration_s=30e-3, dim_time_s=10e-3
        )
        with pytest.raises(JournalError):
            run_transient_campaign(
                SPEC,
                other_config,
                workers=1,
                resilience=ResilienceConfig(journal_path=journal_path),
            )


class TestQuarantineAccounting:
    @ENGINES
    def test_persistent_failure_is_quarantined_after_max_retries(
        self, reference_summary, engine
    ):
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.0)
        summary = run_transient_campaign(
            SPEC,
            CONFIG,
            workers=1,
            chunk_size=1,
            resilience=ResilienceConfig(
                policy=policy,
                chaos=ChaosSpec(poison_units=(2,)),
            ),
            engine=engine,
        )
        assert summary.quarantined == 1
        failure = summary.failed_runs[0]
        assert failure.index == 2
        assert failure.attempts == policy.max_attempts
        assert failure.kind == "exception"
        assert summary.runs == CONFIG.runs - 1
        # The completed population is the reference minus the poisoned
        # seed -- nothing else was disturbed.
        surviving = [
            r for r in reference_summary.records if r.seed != CONFIG.base_seed + 2
        ]
        assert list(summary.records) == surviving

    def test_fail_stop_mode_raises_with_failures_attached(self):
        from repro.errors import QuarantineError

        with pytest.raises(QuarantineError) as excinfo:
            run_transient_campaign(
                SPEC,
                CONFIG,
                workers=1,
                chunk_size=1,
                resilience=ResilienceConfig(
                    policy=RetryPolicy(max_retries=0),
                    chaos=ChaosSpec(poison_units=(1,)),
                    partial_results=False,
                ),
            )
        assert [f.index for f in excinfo.value.failures] == [1]

    def test_all_runs_quarantined_yields_nan_summary(self):
        summary = run_transient_campaign(
            SPEC,
            CampaignConfig(runs=2, duration_s=30e-3, dim_time_s=10e-3),
            workers=1,
            chunk_size=1,
            resilience=ResilienceConfig(
                policy=RetryPolicy(max_retries=0),
                chaos=ChaosSpec(poison_units=(0, 1)),
            ),
        )
        assert summary.runs == 0
        assert summary.records == ()
        assert summary.quarantined == 2
        assert summary.survival_rate != summary.survival_rate  # NaN
        # The golden-summary schema is unchanged: same keys as ever.
        assert set(summary.as_dict()) == set(
            run_transient_campaign(SPEC, CONFIG, workers=1).as_dict()
        )


class TestIntermittentCampaignResilience:
    CONFIG = IntermittentCampaignConfig(
        runs=3, duration_s=0.1, task_cycles=200_000, task_count=2
    )

    def test_supervised_matches_legacy(self):
        legacy = run_intermittent_campaign(SPEC, self.CONFIG, workers=1)
        supervised = run_intermittent_campaign(
            SPEC, self.CONFIG, workers=1, resilience=ResilienceConfig()
        )
        assert supervised.records == legacy.records
        assert supervised.as_dict() == legacy.as_dict()
        assert supervised.failed_runs == ()

    def test_poisoned_run_is_quarantined(self):
        summary = run_intermittent_campaign(
            SPEC,
            self.CONFIG,
            workers=1,
            chunk_size=1,
            resilience=ResilienceConfig(
                policy=RetryPolicy(max_retries=1, backoff_base_s=0.0),
                chaos=ChaosSpec(poison_units=(0,)),
            ),
        )
        assert summary.quarantined == 1
        assert summary.failed_runs[0].index == 0
        assert summary.runs == self.CONFIG.runs - 1
