"""Structured outcomes and retry policy for supervised execution.

The supervised executor never lets one bad run poison a campaign: every
failure is reduced to a :class:`RunFailure` record (which run, what it
raised, how many attempts it got) and every campaign ends with a
:class:`SupervisedOutcome` that accounts for *all* submitted work --
completed results, quarantined failures, and the supervisor's own
bookkeeping -- instead of an exception that discards hours of finished
runs.

:class:`RetryPolicy` is the knob set: how many re-dispatches a failing
run gets, how long the supervisor backs off between them
(deterministic bounded exponential -- retries of a pure task are
bit-identical, so the backoff only paces infrastructure recovery, it
never changes results), and the per-run watchdog deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ModelParameterError, QuarantineError

#: Failure classification carried on every :class:`RunFailure`.
#:
#: * ``exception`` -- the task raised inside a worker (captured with
#:   its traceback; the worker and its siblings keep running);
#: * ``timeout`` -- the run exceeded the watchdog deadline and its
#:   worker was killed;
#: * ``worker-death`` -- the worker process died (crash, OOM-kill,
#:   ``os._exit``) while holding the run;
#: * ``corruption`` -- the chunk result failed its CRC integrity check
#:   on receipt.
FAILURE_KINDS: Tuple[str, ...] = (
    "exception",
    "timeout",
    "worker-death",
    "corruption",
)


@dataclass(frozen=True)
class RunFailure:
    """One run that could not be completed, with its full context.

    ``index`` is the run's position in the submitted work list (for
    campaigns: the seed offset), so the culprit can be replayed with
    :func:`repro.faults.campaign.replay_transient_run` or re-submitted
    alone.  ``attempts`` counts every execution attempt the run
    received before quarantine.

    ``exception`` is the raised exception object itself, kept when it
    survives pickling (``None`` otherwise, and for failures that raised
    nothing: timeouts, deaths, corruption).  It is what fail-stop
    callers re-raise, and it is left out of equality, ``repr``,
    :meth:`as_dict` and the journal, so a resumed failure compares
    equal to the uninterrupted one.
    """

    index: int
    item_repr: str
    error: str
    traceback: str
    attempts: int
    kind: str
    exception: Optional[BaseException] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ModelParameterError(
                f"failure index must be >= 0, got {self.index}"
            )
        if self.attempts < 1:
            raise ModelParameterError(
                f"failure attempts must be >= 1, got {self.attempts}"
            )
        if self.kind not in FAILURE_KINDS:
            raise ModelParameterError(
                f"failure kind must be one of {FAILURE_KINDS}, "
                f"got {self.kind!r}"
            )

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (journal lines, CLI reports)."""
        return {
            "index": self.index,
            "item_repr": self.item_repr,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "kind": self.kind,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "RunFailure":
        """Rebuild a failure from its :meth:`as_dict` form."""
        return RunFailure(
            index=int(payload["index"]),
            item_repr=str(payload["item_repr"]),
            error=str(payload["error"]),
            traceback=str(payload["traceback"]),
            attempts=int(payload["attempts"]),
            kind=str(payload["kind"]),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Retry, backoff and watchdog configuration for one campaign.

    ``max_retries`` counts *re*-dispatches: a run gets ``1 +
    max_retries`` attempts before quarantine.  ``run_timeout_s`` is the
    per-run watchdog deadline (a chunk of N runs gets ``N *
    run_timeout_s``); ``None`` disables the deadline -- dead workers
    are still detected by process liveness, but a genuinely hung run
    is then indistinguishable from a slow one.  ``startup_grace_s``
    bounds how long the supervisor waits for a spawn worker to finish
    importing before declaring the environment broken.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    run_timeout_s: Optional[float] = None
    startup_grace_s: float = 120.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ModelParameterError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0.0:
            raise ModelParameterError(
                f"backoff base must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_cap_s < self.backoff_base_s:
            raise ModelParameterError(
                f"backoff cap {self.backoff_cap_s} must be >= base "
                f"{self.backoff_base_s}"
            )
        if self.run_timeout_s is not None and self.run_timeout_s <= 0.0:
            raise ModelParameterError(
                f"run timeout must be positive, got {self.run_timeout_s}"
            )
        if self.startup_grace_s <= 0.0:
            raise ModelParameterError(
                f"startup grace must be positive, got {self.startup_grace_s}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts a run receives before quarantine."""
        return self.max_retries + 1

    def backoff_s(self, attempt: int) -> float:
        """Deterministic bounded backoff before dispatching ``attempt``.

        ``attempt`` is the attempt about to run (2 for the first
        retry).  Doubles from ``backoff_base_s`` and saturates at
        ``backoff_cap_s``; no jitter -- retried runs are bit-identical,
        so randomising the pacing buys nothing and costs determinism.
        """
        if attempt < 2:
            return 0.0
        if self.backoff_base_s <= 0.0:
            return 0.0
        return min(
            self.backoff_base_s * 2.0 ** float(attempt - 2),
            self.backoff_cap_s,
        )

    def deadline_s(self, item_count: int) -> Optional[float]:
        """Watchdog budget for a chunk of ``item_count`` runs."""
        if self.run_timeout_s is None:
            return None
        return self.run_timeout_s * max(1, item_count)


@dataclass(frozen=True)
class SupervisorStats:
    """The supervisor's own accounting for one campaign.

    Observability only: none of these numbers feed back into results.
    ``retries``/``timeouts``/``worker_deaths`` depend on which faults
    actually fired, so (unlike the result list) they are not part of
    the bit-identity contract between worker counts.
    """

    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    corrupt_chunks: int = 0
    quarantined: int = 0
    journal_hits: int = 0
    worker_respawns: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "corrupt_chunks": self.corrupt_chunks,
            "quarantined": self.quarantined,
            "journal_hits": self.journal_hits,
            "worker_respawns": self.worker_respawns,
        }


@dataclass(frozen=True)
class SupervisedOutcome:
    """Everything the supervised executor knows at the end of a campaign.

    ``results`` holds the completed runs' return values in submission
    order; ``indices`` names the submission index of each (the two are
    aligned).  ``failures`` holds one :class:`RunFailure` per
    quarantined run, in index order.  Every submitted item appears in
    exactly one of the two -- nothing is silently dropped.
    """

    results: Tuple[Any, ...]
    indices: Tuple[int, ...]
    failures: Tuple[RunFailure, ...]
    stats: SupervisorStats

    @property
    def complete(self) -> bool:
        """True when every submitted run completed."""
        return not self.failures

    def require_complete(self) -> List[Any]:
        """The full ordered result list, or :class:`QuarantineError`.

        The strict mode for callers that cannot use partial results;
        the raised error still carries ``failures`` (and the message
        names the culprits) so the diagnosis survives the raise.
        """
        if self.failures:
            worst = ", ".join(
                f"#{f.index} ({f.kind}: {f.error})"
                for f in self.failures[:3]
            )
            suffix = (
                f" and {len(self.failures) - 3} more"
                if len(self.failures) > 3
                else ""
            )
            raise QuarantineError(
                f"{len(self.failures)} run(s) quarantined after "
                f"exhausting retries: {worst}{suffix}",
                failures=self.failures,
            )
        return list(self.results)
