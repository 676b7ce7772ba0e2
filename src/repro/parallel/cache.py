"""Per-worker memoization of expensive pre-characterization.

A campaign run needs the paper system's MPP lookup table (a
characterization sweep over the cell's P-V surface) and the regulator
bank's efficiency behaviour.  The serial path characterises once per
campaign; a naive parallel fan-out would characterise once per *run*.
This module gives every worker process one module-level cache, so each
worker pays the characterization cost exactly once no matter how many
runs it executes.

The cache lives in module globals: under the ``spawn`` start method
every worker imports this module fresh and therefore starts with an
empty cache, which is exactly the isolation we want (no state leaks
between campaigns through forked memory).  Keys must be stable strings
-- build them with :func:`repro.parallel.ids.stable_fingerprint` so a
key never depends on object identity or wall-clock time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

#: The per-process memoization store.  One per worker (and one in the
#: parent for the serial path -- memoization is value-transparent, so
#: sharing it is safe).
_CACHE: Dict[str, Any] = {}  # repro-lint: disable=REP005 -- per-process memoization is this module's whole point: spawn workers start empty, and cached values are value-transparent (bit-identical to rebuilding)


def worker_cache() -> Dict[str, Any]:
    """This process's memoization store."""
    return _CACHE


def clear_worker_cache() -> None:
    """Drop every memoized value (tests; never needed in campaigns)."""
    _CACHE.clear()


def memoize(key: str, factory: Callable[[], Any]) -> Any:
    """Return the cached value for ``key``, building it on first use.

    ``factory`` must be deterministic: the contract is that the cached
    value is indistinguishable from a freshly built one, which is what
    keeps parallel results bit-identical to serial ones.
    """
    if key not in _CACHE:
        _CACHE[key] = factory()
    return _CACHE[key]


def characterized_system(lut_points: int = 24) -> Tuple[Any, Any]:
    """The paper system plus its MPP LUT, characterised once per worker.

    Returns ``(system, lut)``.  The system is the pristine reference
    (fault draws build their own derated copies per run); the LUT is
    read-only after construction and safe to share across runs inside
    one process.
    """
    from repro.core.system import paper_system

    def build() -> Tuple[Any, Any]:
        system = paper_system()
        return system, system.build_mpp_lut(points=lut_points)

    return memoize(f"characterized-system:lut{lut_points}", build)
