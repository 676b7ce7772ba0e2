"""Supervised campaign execution: the package's one worker pool.

:func:`run_supervised` is the only code that spawns worker processes;
:func:`repro.parallel.executor.run_sharded` is a fail-stop wrapper over
it (no retries, the lowest-index task exception re-raised).  Work is
split by :func:`repro.parallel.executor.shard` into contiguous units
and run under the checkpoint/restore discipline the paper applies to
battery-less nodes:

* **per-run supervision** -- task exceptions are captured inside the
  worker as structured outcomes, never allowed to poison the pool;
* **retry with bounded backoff** -- failed runs are re-dispatched (a
  run is a pure function of its work item, so a retry is bit-identical)
  and quarantined as :class:`~repro.resilience.records.RunFailure`
  after ``max_retries`` re-dispatches, never silently dropped;
* **watchdog** -- the supervisor owns its worker processes outright:
  death is detected by process liveness (no timeout needed), hangs by
  per-chunk deadlines, and either way the worker is respawned and the
  lost chunk re-dispatched;
* **journaling** -- completed chunks append to a
  :class:`~repro.resilience.journal.CampaignJournal`, so an interrupted
  campaign resumes skipping finished work with a bit-identical final
  result;
* **chaos** -- a :class:`~repro.resilience.chaos.ChaosSpec` injects
  seeded crashes, hangs, exceptions and corrupted results to prove all
  of the above in tests.

The executor keeps :mod:`repro.parallel`'s determinism contract: the
completed-result list is assembled by submission index, so it is
bit-identical to the serial path at any worker count, with any retry
schedule, across any interruption/resume split.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import time
import traceback as traceback_module
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import ModelParameterError, ResilienceError
from repro.parallel.executor import default_chunk_size, shard
from repro.parallel.progress import NullProgress
from repro.resilience.chaos import (
    CORRUPT,
    ERROR,
    ChaosSpec,
    chaos_decision,
    corrupt_payload,
    execute_pre_injection,
    injected_task_error,
)
from repro.resilience.journal import CampaignJournal
from repro.resilience.records import (
    RetryPolicy,
    RunFailure,
    SupervisedOutcome,
    SupervisorStats,
)
from repro.telemetry.session import NULL_TELEMETRY, Telemetry

#: Parent poll interval while waiting on worker messages [s].  Pure
#: pacing: results are collected whenever they arrive, this only bounds
#: the latency of liveness/deadline checks.
_POLL_S = 0.02

#: Pre-ready worker deaths tolerated (per pool slot) before the
#: environment itself is declared broken.
_STARTUP_DEATH_BUDGET = 2


@dataclass(frozen=True)
class ResilienceConfig:
    """Caller-facing bundle: how a campaign should survive failures.

    ``partial_results=True`` (the default) reports quarantined runs on
    the summary instead of raising; ``False`` restores fail-stop
    semantics via :meth:`SupervisedOutcome.require_complete` -- but
    only after every retry is exhausted and everything completable has
    completed (and been journaled).
    """

    policy: RetryPolicy = RetryPolicy()
    journal_path: Optional[str] = None
    partial_results: bool = True
    chaos: Optional[ChaosSpec] = None


# -- work units ---------------------------------------------------------------


@dataclass
class _Unit:
    """One dispatchable chunk of ``(submission_index, item)`` pairs."""

    unit_id: int
    attempt: int
    items: Tuple[Tuple[int, Any], ...]
    #: Backoff to honour before this attempt is dispatched [s].
    delay_s: float = 0.0
    #: Parallel path: monotonic timestamp the unit becomes eligible.
    ready_at: float = 0.0


@dataclass(frozen=True)
class _Envelope:
    """A completed unit as shipped back from a worker.

    ``payload`` is the pickled tuple of per-item outcomes and ``crc``
    its checksum, computed *inside* the worker -- the parent re-checks
    it on receipt so a corrupted result is detected and re-dispatched
    rather than aggregated.
    """

    unit_id: int
    attempt: int
    worker_id: int
    elapsed_s: float
    payload: bytes
    crc: int


def _item_ok(value: Any) -> Tuple[str, Any]:
    return ("ok", value)


def _item_err(item: Any, error: BaseException, tb: str) -> Tuple[str, Any]:
    """The failure as data, carrying ``error`` itself if it pickles."""
    try:
        portable: Optional[BaseException] = pickle.loads(
            pickle.dumps(error, protocol=4)
        )
    except Exception:  # noqa: BLE001 -- any unpicklable exception
        portable = None
    return ("err", (repr(item), repr(error), tb, portable))


def _execute_item(
    task: Callable[[Any], Any], item: Any
) -> Tuple[str, Any]:
    """Run one item under supervision; exceptions become data."""
    try:
        return _item_ok(task(item))
    except Exception as error:  # noqa: BLE001 -- supervision boundary
        return _item_err(item, error, traceback_module.format_exc())


def _run_unit(
    task: Callable[[Any], Any],
    chaos: Optional[ChaosSpec],
    unit_id: int,
    attempt: int,
    items: Tuple[Tuple[int, Any], ...],
) -> _Envelope:
    """Execute one unit (inside a worker, or inline on the serial path).

    Chaos hooks: a ``crash``/``hang`` decision fires before any item
    runs (the whole point is losing the worker mid-campaign); an
    ``error`` decision makes the unit's first item raise; a ``corrupt``
    decision damages the payload *after* the CRC is computed.
    """
    decision = chaos_decision(chaos, unit_id, attempt)
    if chaos is not None:
        execute_pre_injection(chaos, decision, unit_id, attempt)
    started = time.perf_counter()
    outcomes: List[Tuple[str, Any]] = []
    for position, (index, item) in enumerate(items):
        if decision == ERROR and position == 0:
            error = injected_task_error(unit_id, attempt)
            outcomes.append(_item_err(item, error, ""))
            continue
        outcomes.append(_execute_item(task, item))
    payload = pickle.dumps(tuple(outcomes), protocol=4)
    crc = zlib.crc32(payload)
    if decision == CORRUPT:
        payload = corrupt_payload(payload)
    return _Envelope(
        unit_id=unit_id,
        attempt=attempt,
        worker_id=os.getpid(),
        elapsed_s=time.perf_counter() - started,
        payload=payload,
        crc=crc,
    )


def _worker_main(
    seq: int,
    task: Callable[[Any], Any],
    chaos: Optional[ChaosSpec],
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Worker process loop: announce readiness, run units until told.

    The task callable arrives once, through the process arguments --
    never per chunk.  ``None`` on the task queue is the shutdown
    sentinel.
    """
    result_queue.put(("ready", seq))
    while True:
        payload = task_queue.get()
        if payload is None:
            return
        unit_id, attempt, items = payload
        envelope = _run_unit(task, chaos, unit_id, attempt, items)
        result_queue.put(("done", seq, envelope))


# -- parent-side supervision --------------------------------------------------


class _WorkerHandle:
    """Parent-side view of one owned worker process."""

    def __init__(self, seq: int, process: Any, task_queue: Any) -> None:
        self.seq = seq
        self.process = process
        self.task_queue = task_queue
        self.ready = False
        self.unit: Optional[_Unit] = None
        self.deadline: Optional[float] = None
        self.spawned_at = time.monotonic()

    def assign(self, unit: _Unit, deadline_s: Optional[float]) -> None:
        self.unit = unit
        self.deadline = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        self.task_queue.put((unit.unit_id, unit.attempt, unit.items))

    def discard(self) -> None:
        """Tear the worker down without ceremony (death/timeout path)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.task_queue.close()
        self.task_queue.cancel_join_thread()


@dataclass
class _Ledger:
    """Mutable campaign state shared by the serial and parallel drains."""

    completed: Dict[int, Any] = field(default_factory=dict)
    quarantined: Dict[int, RunFailure] = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    corrupt_chunks: int = 0
    journal_hits: int = 0
    worker_respawns: int = 0

    def stats(self) -> SupervisorStats:
        return SupervisorStats(
            retries=self.retries,
            timeouts=self.timeouts,
            worker_deaths=self.worker_deaths,
            corrupt_chunks=self.corrupt_chunks,
            quarantined=len(self.quarantined),
            journal_hits=self.journal_hits,
            worker_respawns=self.worker_respawns,
        )


class _Supervisor:
    """One campaign's supervision state machine."""

    def __init__(
        self,
        task: Callable[[Any], Any],
        policy: RetryPolicy,
        journal: Optional[CampaignJournal],
        chaos: Optional[ChaosSpec],
        progress: Any,
        telemetry: Telemetry,
        ledger: _Ledger,
    ) -> None:
        self.task = task
        self.policy = policy
        self.journal = journal
        self.chaos = chaos
        self.progress = progress
        self.telemetry = telemetry
        self.ledger = ledger
        self.units: Deque[_Unit] = deque()

    # -- outcome handling (shared by serial and parallel paths) --------------

    def handle_envelope(self, unit: _Unit, envelope: _Envelope) -> None:
        """Fold one returned unit into the ledger."""
        self.telemetry.profile("parallel.chunk_wall_s", envelope.elapsed_s)
        if zlib.crc32(envelope.payload) != envelope.crc:
            self.ledger.corrupt_chunks += 1
            self.fail_unit(
                unit,
                kind="corruption",
                error=(
                    f"chunk result failed its CRC integrity check "
                    f"(unit {unit.unit_id}, attempt {unit.attempt})"
                ),
            )
            return
        outcomes = pickle.loads(envelope.payload)
        succeeded: List[Tuple[int, Any]] = []
        failed: List[Tuple[Tuple[int, Any], Tuple[Any, ...]]] = []
        for (index, item), (status, value) in zip(unit.items, outcomes):
            if status == "ok":
                succeeded.append((index, value))
            else:
                failed.append(((index, item), value))
        if succeeded:
            for index, value in succeeded:
                self.ledger.completed[index] = value
            if self.journal is not None:
                self.journal.record_chunk(
                    [index for index, _ in succeeded],
                    [value for _, value in succeeded],
                )
            self.progress.update(
                len(succeeded), envelope.worker_id, envelope.elapsed_s
            )
        if failed:
            self.retry_or_quarantine(
                unit,
                tuple(pair for pair, _ in failed),
                kind="exception",
                errors={
                    pair[0]: (err, tb, exception)
                    for pair, (_repr, err, tb, exception) in failed
                },
            )

    def fail_unit(self, unit: _Unit, kind: str, error: str) -> None:
        """Charge a whole-unit failure (timeout, death, corruption)."""
        self.retry_or_quarantine(
            unit,
            unit.items,
            kind=kind,
            errors={index: (error, "", None) for index, _ in unit.items},
        )

    def retry_or_quarantine(
        self,
        unit: _Unit,
        failed_items: Tuple[Tuple[int, Any], ...],
        kind: str,
        errors: Dict[int, Tuple[str, str, Optional[BaseException]]],
    ) -> None:
        next_attempt = unit.attempt + 1
        if next_attempt <= self.policy.max_attempts:
            self.ledger.retries += len(failed_items)
            delay = self.policy.backoff_s(next_attempt)
            self.units.append(
                _Unit(
                    unit_id=unit.unit_id,
                    attempt=next_attempt,
                    items=failed_items,
                    delay_s=delay,
                    ready_at=time.monotonic() + delay,
                )
            )
            return
        for index, item in failed_items:
            error, tb, exception = errors[index]
            failure = RunFailure(
                index=index,
                item_repr=repr(item),
                error=error,
                traceback=tb,
                attempts=unit.attempt,
                kind=kind,
                exception=exception,
            )
            self.ledger.quarantined[index] = failure
            if self.journal is not None:
                self.journal.record_quarantine(failure)
        self.progress.update(len(failed_items), "quarantine", 0.0)

    # -- serial drain --------------------------------------------------------

    def run_serial(self) -> None:
        while self.units:
            unit = self.units.popleft()
            if unit.delay_s > 0.0:
                time.sleep(unit.delay_s)
            envelope = _run_unit(
                self.task, self.chaos, unit.unit_id, unit.attempt, unit.items
            )
            self.handle_envelope(unit, envelope)

    # -- parallel drain ------------------------------------------------------

    def run_parallel(self, workers: int) -> None:
        context = get_context("spawn")
        result_queue = context.Queue()
        pool_size = min(workers, max(1, len(self.units)))
        pool: Dict[int, _WorkerHandle] = {}
        next_seq = 0
        startup_deaths = 0

        def spawn() -> None:
            nonlocal next_seq
            seq = next_seq
            next_seq += 1
            task_queue = context.Queue()
            process = context.Process(
                target=_worker_main,
                args=(seq, self.task, self.chaos, task_queue, result_queue),
                daemon=True,
            )
            process.start()
            pool[seq] = _WorkerHandle(seq, process, task_queue)

        def retire(handle: _WorkerHandle) -> None:
            pool.pop(handle.seq, None)
            handle.discard()

        def outstanding() -> int:
            return len(self.units) + sum(
                1 for handle in pool.values() if handle.unit is not None
            )

        try:
            for _ in range(pool_size):
                spawn()
            while outstanding() > 0:
                # 1) Drain every pending worker message.
                while True:
                    try:
                        message = result_queue.get(timeout=_POLL_S)
                    except queue_module.Empty:
                        break
                    if message[0] == "ready":
                        handle = pool.get(message[1])
                        if handle is not None:
                            handle.ready = True
                    elif message[0] == "done":
                        handle = pool.get(message[1])
                        envelope = message[2]
                        if handle is not None and handle.unit is not None:
                            unit, handle.unit = handle.unit, None
                            handle.deadline = None
                            self.handle_envelope(unit, envelope)
                now = time.monotonic()
                # 2) Liveness: a dead worker loses its unit, not the run.
                for handle in list(pool.values()):
                    if handle.process.exitcode is None:
                        continue
                    if not handle.ready and handle.unit is None:
                        startup_deaths += 1
                        if startup_deaths > _STARTUP_DEATH_BUDGET * pool_size:
                            raise ResilienceError(
                                f"{startup_deaths} worker(s) died before "
                                "initialising; the execution environment "
                                "is broken (import failure, OOM?)"
                            )
                    if handle.unit is not None:
                        self.ledger.worker_deaths += 1
                        unit = handle.unit
                        handle.unit = None
                        self.fail_unit(  # repro-lint: disable=REP007 -- journal record order is timing-dependent by design; determinism is restored by the ordered reduce at merge
                            unit,
                            kind="worker-death",
                            error=(
                                f"worker process died (exit code "
                                f"{handle.process.exitcode}) while running "
                                f"unit {unit.unit_id}, "
                                f"attempt {unit.attempt}"
                            ),
                        )
                    retire(handle)
                    if outstanding() > 0:
                        self.ledger.worker_respawns += 1
                        spawn()
                # 3) Watchdog deadlines: kill the hung worker, keep the run.
                for handle in list(pool.values()):
                    if (
                        handle.unit is None
                        or handle.deadline is None
                        or now <= handle.deadline
                    ):
                        continue
                    self.ledger.timeouts += 1
                    unit = handle.unit
                    handle.unit = None
                    self.fail_unit(  # repro-lint: disable=REP007 -- journal record order is timing-dependent by design; determinism is restored by the ordered reduce at merge
                        unit,
                        kind="timeout",
                        error=(
                            f"unit {unit.unit_id} (attempt {unit.attempt}, "
                            f"{len(unit.items)} run(s)) exceeded its "
                            f"{self.policy.deadline_s(len(unit.items))}s "
                            "watchdog deadline"
                        ),
                    )
                    retire(handle)
                    if outstanding() > 0:
                        self.ledger.worker_respawns += 1
                        spawn()
                # 4) Startup grace: workers must come up eventually.
                for handle in pool.values():
                    if (
                        not handle.ready
                        and now - handle.spawned_at
                        > self.policy.startup_grace_s
                    ):
                        raise ResilienceError(
                            f"worker {handle.seq} failed to initialise "
                            f"within {self.policy.startup_grace_s}s"
                        )
                # 5) Assign eligible units to idle, ready workers.
                self.assign_work(pool, now)
        finally:
            for handle in pool.values():
                if handle.process.is_alive():
                    try:
                        handle.task_queue.put(None)
                    except (OSError, ValueError):
                        pass
            for handle in pool.values():
                handle.process.join(timeout=2.0)
                handle.discard()
            result_queue.close()
            result_queue.cancel_join_thread()

    def assign_work(
        self, pool: Dict[int, _WorkerHandle], now: float
    ) -> None:
        idle = [
            handle
            for handle in pool.values()
            if handle.ready and handle.unit is None
        ]
        for handle in idle:
            unit = self.next_eligible_unit(now)
            if unit is None:
                return
            handle.assign(unit, self.policy.deadline_s(len(unit.items)))

    def next_eligible_unit(self, now: float) -> Optional[_Unit]:
        """Pop the first unit whose backoff has elapsed, if any."""
        for _ in range(len(self.units)):
            unit = self.units.popleft()
            if unit.ready_at <= now:
                return unit
            self.units.append(unit)
        return None


def run_supervised(
    task: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[CampaignJournal] = None,
    chaos: Optional[ChaosSpec] = None,
    progress: Optional[Any] = None,
    telemetry: Optional[Telemetry] = None,
) -> SupervisedOutcome:
    """Map ``task`` over ``items`` under full supervision.

    Shards ``items`` into units of ``chunk_size`` (default: about four
    per worker), runs them in-process at ``workers=1`` or on owned
    spawn workers otherwise, and reduces completed results in
    submission order -- bit-identical at any worker count.  Emits the
    ``parallel.workers``/``parallel.chunks``/``parallel.items``
    dispatch metrics and a ``parallel.chunk_wall_s`` profile per
    returned unit to ``telemetry``.  :func:`repro.parallel.executor.
    run_sharded` is this function with no retries, raising instead of
    returning failures.

    ``policy`` configures retries/backoff/deadlines; ``journal``
    enables checkpointed resume (completed work found in it is
    skipped); ``chaos`` injects seeded infrastructure faults (test
    harness -- crash/hang injection needs ``workers > 1``).  ``task``
    must be a pure, picklable function of its item: that purity is
    what makes a retry bit-identical to a first attempt.  Results are
    pickled (and CRC-checked) even at ``workers=1``, so they must be
    picklable too.

    Returns a :class:`SupervisedOutcome`; call
    :meth:`~SupervisedOutcome.require_complete` for fail-stop
    semantics.
    """
    if workers < 1:
        raise ModelParameterError(f"workers must be >= 1, got {workers}")
    policy = policy or RetryPolicy()
    if (
        chaos is not None
        and chaos.kills_workers
        and workers == 1
    ):
        raise ModelParameterError(
            "chaos crash/hang injection kills worker processes and needs "
            "workers > 1; the serial path runs in the campaign process"
        )
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    progress = progress or NullProgress()
    work = list(items)
    ledger = _Ledger()

    if journal is not None:
        state = journal.load()
        for index, value in state.results.items():
            if 0 <= index < len(work):
                ledger.completed[index] = value
        for failure in state.failures:
            if failure.index < len(work):
                ledger.quarantined.setdefault(failure.index, failure)
        # A journaled result trumps a journaled quarantine: the run
        # evidently completed on a later attempt or session.
        for index in ledger.completed:
            ledger.quarantined.pop(index, None)
        ledger.journal_hits = len(ledger.completed)

    remaining = [
        (index, item)
        for index, item in enumerate(work)
        if index not in ledger.completed
        and index not in ledger.quarantined
    ]
    resolved_chunk = (
        chunk_size
        if chunk_size is not None
        else default_chunk_size(len(work), workers)
    )
    supervisor = _Supervisor(
        task, policy, journal, chaos, progress, tel, ledger
    )
    supervisor.units.extend(
        _Unit(unit_id=unit_id, attempt=1, items=chunk)
        for unit_id, chunk in shard(remaining, resolved_chunk)
    )
    tel.gauge("parallel.workers", float(workers))
    tel.count("parallel.chunks", float(len(supervisor.units)))
    tel.count("parallel.items", float(len(work)))

    progress.start(len(work), workers)
    try:
        if ledger.journal_hits:
            progress.update(ledger.journal_hits, "journal", 0.0)
        if supervisor.units:
            # Single-unit workloads drop to the in-process path --
            # unless chaos can kill the process running the unit, in
            # which case a real worker is required for recovery.
            serial_ok = chaos is None or not chaos.kills_workers
            if workers == 1 or (len(supervisor.units) <= 1 and serial_ok):
                supervisor.run_serial()
            else:
                supervisor.run_parallel(workers)
    finally:
        progress.finish()

    stats = ledger.stats()
    for name, value in (
        ("resilience.retries", stats.retries),
        ("resilience.timeouts", stats.timeouts),
        ("resilience.worker_deaths", stats.worker_deaths),
        ("resilience.corrupt_chunks", stats.corrupt_chunks),
        ("resilience.quarantined", stats.quarantined),
        ("resilience.journal_hits", stats.journal_hits),
        ("resilience.worker_respawns", stats.worker_respawns),
    ):
        # Only non-zero counters are emitted, so a clean campaign's
        # telemetry stays byte-identical to the unsupervised path's.
        if value:
            tel.count(name, float(value))

    ordered = sorted(ledger.completed)
    return SupervisedOutcome(
        results=tuple(ledger.completed[index] for index in ordered),
        indices=tuple(ordered),
        failures=tuple(
            ledger.quarantined[index]
            for index in sorted(ledger.quarantined)
        ),
        stats=stats,
    )
