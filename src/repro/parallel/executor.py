"""Sharding and the fail-stop map over the supervised worker pool.

The execution model:

1. **shard** -- :func:`shard` splits the work list into contiguous
   chunks, each tagged with its submission index;
2. **fan out** -- :func:`repro.resilience.supervisor.run_supervised`,
   the package's one worker pool, runs the chunks in-process
   (``workers=1``) or on owned ``spawn``-context worker processes
   (spawn, not fork: workers import the code fresh, so per-worker
   caches start empty and no parent state leaks in -- the only start
   method that behaves identically on every platform);
3. **ordered reduce** -- chunk results arrive in any order and are
   reassembled by submission index before returning.

Step 3 is what makes the parallel path *bit-identical* to the serial
one: every run is a deterministic pure function of its work item, so
once ordering is restored the concatenated result list -- and any
aggregate statistic computed from it -- cannot depend on worker count,
chunk size or OS scheduling.

:func:`run_sharded` is that pool with no retries and fail-stop
semantics.  Tasks must be module-level (picklable) callables, and work
items and results must be picklable values: they travel by pickle
under ``spawn``, and results are pickled even at ``workers=1``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ModelParameterError
from repro.telemetry.session import Telemetry

#: Target chunks per worker when no explicit chunk size is given: small
#: enough to load-balance uneven run times, large enough to amortise
#: pickle/IPC overhead.
_CHUNKS_PER_WORKER = 4


def shard(
    items: Sequence[Any], chunk_size: int
) -> "List[Tuple[int, Tuple[Any, ...]]]":
    """Split ``items`` into ``(submission_index, chunk)`` pairs."""
    if chunk_size < 1:
        raise ModelParameterError(
            f"chunk size must be >= 1, got {chunk_size}"
        )
    return [
        (index, tuple(items[start : start + chunk_size]))
        for index, start in enumerate(range(0, len(items), chunk_size))
    ]


def default_chunk_size(item_count: int, workers: int) -> int:
    """Chunk size giving ~``_CHUNKS_PER_WORKER`` chunks per worker."""
    if item_count <= 0:
        return 1
    return max(1, math.ceil(item_count / (_CHUNKS_PER_WORKER * max(1, workers))))


def run_sharded(
    task: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    workers: int = 1,
    chunk_size: "int | None" = None,
    progress: Optional[Any] = None,
    telemetry: "Telemetry | None" = None,
) -> List[Any]:
    """Map ``task`` over ``items``, optionally across worker processes.

    Parameters
    ----------
    task:
        A module-level callable applied to each item.  Must be
        deterministic for the bit-identical guarantee to mean anything.
    items:
        The work list; materialised once, results come back in the
        same order regardless of scheduling.
    workers:
        ``1`` (default) runs a plain in-process loop -- the serial
        reference path.  ``>1`` fans chunks across spawn workers.
    chunk_size:
        Items per chunk; default balances ~4 chunks per worker.
    progress:
        A :class:`repro.parallel.progress.ProgressReporter` (or
        anything with its interface); default reports nothing.
    telemetry:
        Optional :class:`repro.telemetry.session.Telemetry` sink for
        dispatch-level metrics (worker count, chunk count/sizes) and
        per-chunk wall-clock profiling.  Stays in the parent process;
        it is never pickled to workers.

    Every chunk runs even when one raises; afterwards the
    lowest-index failure's exception is re-raised unchanged (same type,
    same message -- callers' ``except`` clauses keep working), annotated
    with ``submission_index`` (its position in ``items``) and
    ``failing_item`` and chained from the traceback text the worker
    captured.  An exception that cannot be pickled back from
    the worker surfaces as the :class:`~repro.errors.QuarantineError`
    of :meth:`~repro.resilience.records.SupervisedOutcome.
    require_complete`, which names the index.

    Returns the flat result list in submission order.
    """
    # Function-local: the supervisor imports this module for shard().
    from repro.resilience.records import RetryPolicy
    from repro.resilience.supervisor import run_supervised

    work = list(items)
    outcome = run_supervised(
        task,
        work,
        workers=workers,
        chunk_size=chunk_size,
        policy=RetryPolicy(max_retries=0),
        progress=progress,
        telemetry=telemetry,
    )
    if not outcome.failures:
        return list(outcome.results)
    first = outcome.failures[0]
    error = first.exception
    if error is None:
        return outcome.require_complete()  # raises: there are failures
    setattr(error, "submission_index", first.index)
    setattr(error, "failing_item", work[first.index])
    raise error from RuntimeError(first.traceback)
