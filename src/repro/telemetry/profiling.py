"""Wall-clock profiling hook (observability only).

``time.perf_counter`` is the one clock allowed inside the
deterministic packages (REP002 permits it precisely because it is the
right tool for *measuring* elapsed wall time and never a valid input
to simulated physics).  Elapsed times measured here are reported
through ``Telemetry.profile``, which files them in the
:class:`~repro.telemetry.metrics.MetricsRegistry`'s profiling
namespace -- excluded from snapshots, flattened metric dicts and every
deterministic export, so timing noise cannot reach a golden fixture.
"""

from __future__ import annotations

import time


class Stopwatch:
    """A tiny perf_counter stopwatch for hand-rolled timing."""

    def __init__(self) -> None:
        self._started: float = time.perf_counter()

    def restart(self) -> None:
        """Reset the reference instant to now."""
        self._started = time.perf_counter()

    def elapsed_s(self) -> float:
        """Wall seconds since construction / last restart."""
        return time.perf_counter() - self._started
