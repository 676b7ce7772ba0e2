"""Deterministic process-pool execution for campaign-scale workloads.

The Monte Carlo campaigns and irradiance sweeps are embarrassingly
parallel: every seeded run is an independent, deterministic function of
``(spec, config, seed)``.  This package fans those runs across
``multiprocessing`` workers while keeping the results *bit-identical*
to the serial path:

* :mod:`repro.parallel.executor` -- shard a work list into chunks and
  map a task over them with fail-stop semantics; the chunks run on
  the supervised worker pool (:mod:`repro.resilience.supervisor`, the
  only code that spawns workers) and come back **in submission
  order** so aggregation never sees scheduler non-determinism;
* :mod:`repro.parallel.cache` -- a per-worker memoization cache so each
  worker characterises expensive pre-computation (MPP lookup tables,
  regulator efficiency grids) once instead of once per run;
* :mod:`repro.parallel.progress` -- a throughput/ETA/utilization
  reporter for long campaigns;
* :mod:`repro.parallel.ids` -- stable fingerprints and run identifiers
  that are pure functions of ``(spec, config, seed)``, used as cache
  and replay keys.

``workers=1`` everywhere falls back to a plain in-process loop, so the
serial path stays the reference implementation.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parallel.cache import (
        characterized_system,
        clear_worker_cache,
        memoize,
        worker_cache,
    )
    from repro.parallel.executor import run_sharded, shard
    from repro.parallel.ids import campaign_run_id, stable_fingerprint
    from repro.parallel.progress import NullProgress, ProgressReporter

__all__ = [
    "NullProgress",
    "ProgressReporter",
    "campaign_run_id",
    "characterized_system",
    "clear_worker_cache",
    "memoize",
    "run_sharded",
    "shard",
    "stable_fingerprint",
    "worker_cache",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.parallel.cache": (
            "characterized_system", "clear_worker_cache", "memoize",
            "worker_cache",
        ),
        "repro.parallel.executor": ("run_sharded", "shard"),
        "repro.parallel.ids": ("campaign_run_id", "stable_fingerprint"),
        "repro.parallel.progress": ("NullProgress", "ProgressReporter"),
    },
)
