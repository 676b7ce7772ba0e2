"""Crash-tolerant campaign execution: supervision, journaling, chaos.

The supervised runtime around :mod:`repro.parallel`: run campaigns that
survive task exceptions, hung and killed workers, and interruption of
the campaign process itself -- without compromising the repo's
bit-identity contract.  See ``docs/resilience.md`` for the failure
model and :func:`run_supervised` for the entry point.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.resilience.chaos import (
        ChaosInjectedError,
        ChaosSpec,
        chaos_decision,
        corrupt_payload,
        execute_pre_injection,
        injected_task_error,
    )
    from repro.resilience.journal import CampaignJournal, JournalState
    from repro.resilience.records import (
        FAILURE_KINDS,
        RetryPolicy,
        RunFailure,
        SupervisedOutcome,
        SupervisorStats,
    )
    from repro.resilience.supervisor import ResilienceConfig, run_supervised

__all__ = [
    "CampaignJournal",
    "ChaosInjectedError",
    "ChaosSpec",
    "FAILURE_KINDS",
    "JournalState",
    "ResilienceConfig",
    "RetryPolicy",
    "RunFailure",
    "SupervisedOutcome",
    "SupervisorStats",
    "chaos_decision",
    "corrupt_payload",
    "execute_pre_injection",
    "injected_task_error",
    "run_supervised",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.resilience.chaos": (
            "ChaosInjectedError", "ChaosSpec", "chaos_decision",
            "corrupt_payload", "execute_pre_injection", "injected_task_error",
        ),
        "repro.resilience.journal": ("CampaignJournal", "JournalState"),
        "repro.resilience.records": (
            "FAILURE_KINDS", "RetryPolicy", "RunFailure", "SupervisedOutcome",
            "SupervisorStats",
        ),
        "repro.resilience.supervisor": ("ResilienceConfig", "run_supervised"),
    },
)
