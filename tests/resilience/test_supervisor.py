"""Tests for the supervised executor: retries, watchdog, journal, chaos.

Tasks live at module top level so spawn workers can import them by
qualified name, exactly as in ``tests/parallel/test_executor.py``.
"""

import pytest

from repro.errors import ModelParameterError, QuarantineError
from repro.resilience import (
    CampaignJournal,
    ChaosSpec,
    RetryPolicy,
    run_supervised,
)
from repro.telemetry.session import TelemetrySession

FAST = RetryPolicy(max_retries=2, backoff_base_s=0.0)


def square(x):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x + 1


class _InterruptCampaign(RuntimeError):
    """Stands in for SIGKILL/power loss in resume tests."""


class _InterruptingProgress:
    """A progress sink that dies after K updates, mid-campaign."""

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


class TestHappyPath:
    def test_serial_matches_plain_map(self):
        outcome = run_supervised(square, list(range(12)), workers=1)
        assert outcome.results == tuple(i * i for i in range(12))
        assert outcome.indices == tuple(range(12))
        assert outcome.complete
        assert outcome.stats.as_dict() == {
            "retries": 0,
            "timeouts": 0,
            "worker_deaths": 0,
            "corrupt_chunks": 0,
            "quarantined": 0,
            "journal_hits": 0,
            "worker_respawns": 0,
        }

    def test_parallel_is_bit_identical_to_serial(self):
        items = list(range(30))
        serial = run_supervised(square, items, workers=1, chunk_size=3)
        fanned = run_supervised(square, items, workers=3, chunk_size=3)
        assert fanned.results == serial.results
        assert fanned.indices == serial.indices

    def test_records_dispatch_telemetry(self):
        session = TelemetrySession()
        run_supervised(
            square, list(range(10)), workers=2, chunk_size=3,
            telemetry=session,
        )
        metrics = session.metrics.as_dict()
        assert metrics["parallel.workers"] == 2.0
        assert metrics["parallel.chunks"] == 4.0
        assert metrics["parallel.items"] == 10.0
        profile = session.metrics.profiling_summary()
        assert profile["parallel.chunk_wall_s.calls"] == 4.0

    def test_empty_items(self):
        outcome = run_supervised(square, [], workers=2)
        assert outcome.results == ()
        assert outcome.complete

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ModelParameterError):
            run_supervised(square, [1], workers=0)


class TestRetryAndQuarantine:
    def test_persistent_failure_is_quarantined_with_accounting(self):
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0)
        outcome = run_supervised(
            fail_on_three,
            list(range(6)),
            workers=1,
            chunk_size=1,
            policy=policy,
        )
        assert outcome.indices == (0, 1, 2, 4, 5)
        assert outcome.results == (1, 2, 3, 5, 6)
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.index == 3
        assert failure.kind == "exception"
        assert failure.attempts == policy.max_attempts
        assert "bad item 3" in failure.error
        assert "ValueError" in failure.traceback
        assert outcome.stats.retries == 1
        assert outcome.stats.quarantined == 1

    def test_failure_does_not_poison_chunk_siblings(self):
        # Item 3 shares a chunk with items 2 and 4: they must complete.
        outcome = run_supervised(
            fail_on_three,
            list(range(6)),
            workers=1,
            chunk_size=3,
            policy=RetryPolicy(max_retries=0),
        )
        assert outcome.indices == (0, 1, 2, 4, 5)
        assert [f.index for f in outcome.failures] == [3]

    def test_require_complete_raises_on_quarantine(self):
        outcome = run_supervised(
            fail_on_three,
            list(range(6)),
            workers=1,
            policy=RetryPolicy(max_retries=0),
        )
        with pytest.raises(QuarantineError):
            outcome.require_complete()

    def test_transient_failure_recovers_via_retry(self):
        # first_attempt_only chaos: the injected failure vanishes on
        # retry, so the final results are complete and correct.
        chaos = ChaosSpec(seed=9, error_rate=1.0)
        outcome = run_supervised(
            square,
            list(range(8)),
            workers=1,
            chunk_size=2,
            policy=FAST,
            chaos=chaos,
        )
        assert outcome.complete
        assert outcome.results == tuple(i * i for i in range(8))
        assert outcome.stats.retries > 0


class TestChaosRecovery:
    def test_crash_chaos_requires_real_workers(self):
        with pytest.raises(ModelParameterError):
            run_supervised(
                square,
                list(range(8)),
                workers=1,
                chaos=ChaosSpec(crash_rate=0.5),
            )

    def test_worker_crashes_are_survived_bit_identically(self):
        items = list(range(16))
        reference = run_supervised(square, items, workers=1, chunk_size=2)
        chaotic = run_supervised(
            square,
            items,
            workers=2,
            chunk_size=2,
            chaos=ChaosSpec(seed=7, crash_rate=0.4),
            policy=RetryPolicy(max_retries=3, backoff_base_s=0.0),
        )
        assert chaotic.results == reference.results
        assert chaotic.complete
        assert chaotic.stats.worker_deaths > 0
        assert chaotic.stats.worker_respawns > 0

    def test_hung_workers_hit_the_watchdog_and_recover(self):
        items = list(range(8))
        reference = tuple(i * i for i in items)
        outcome = run_supervised(
            square,
            items,
            workers=2,
            chunk_size=1,
            chaos=ChaosSpec(seed=1, hang_rate=0.5, hang_s=30.0),
            policy=RetryPolicy(
                max_retries=2, backoff_base_s=0.0, run_timeout_s=0.5
            ),
        )
        assert outcome.results == reference
        assert outcome.stats.timeouts > 0

    def test_corrupted_chunks_are_detected_and_redispatched(self):
        items = list(range(8))
        outcome = run_supervised(
            square,
            items,
            workers=1,
            chunk_size=2,
            chaos=ChaosSpec(seed=2, corrupt_rate=0.6),
            policy=FAST,
        )
        assert outcome.results == tuple(i * i for i in items)
        assert outcome.stats.corrupt_chunks > 0


class TestJournaledResume:
    def test_interrupted_run_resumes_bit_identically(self, tmp_path):
        items = list(range(10))
        path = tmp_path / "j.jsonl"
        uninterrupted = run_supervised(
            square, items, workers=1, chunk_size=1
        )
        with pytest.raises(_InterruptCampaign):
            run_supervised(
                square,
                items,
                workers=1,
                chunk_size=1,
                journal=CampaignJournal(path, key="k"),
                progress=_InterruptingProgress(after_updates=4),
            )
        resumed = run_supervised(
            square,
            items,
            workers=1,
            chunk_size=1,
            journal=CampaignJournal(path, key="k"),
        )
        assert resumed.results == uninterrupted.results
        assert resumed.indices == uninterrupted.indices
        assert resumed.complete
        assert resumed.stats.journal_hits >= 4

    def test_fully_journaled_campaign_runs_nothing(self, tmp_path):
        items = list(range(6))
        path = tmp_path / "j.jsonl"
        first = run_supervised(
            square, items, workers=1, journal=CampaignJournal(path, key="k")
        )
        second = run_supervised(
            square, items, workers=1, journal=CampaignJournal(path, key="k")
        )
        assert second.results == first.results
        assert second.stats.journal_hits == len(items)

    def test_journaled_quarantine_is_carried_forward(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = run_supervised(
            fail_on_three,
            list(range(6)),
            workers=1,
            chunk_size=1,
            policy=RetryPolicy(max_retries=0),
            journal=CampaignJournal(path, key="k"),
        )
        assert [f.index for f in first.failures] == [3]
        second = run_supervised(
            fail_on_three,
            list(range(6)),
            workers=1,
            chunk_size=1,
            policy=RetryPolicy(max_retries=0),
            journal=CampaignJournal(path, key="k"),
        )
        assert second.failures == first.failures
        assert second.results == first.results
