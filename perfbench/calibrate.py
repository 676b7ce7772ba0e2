"""Host-speed correction: a fixed reference kernel timed alongside the program.

The benchmark runs on shared virtual machines whose speed changes by a
factor of two or more within seconds, in process CPU time as much as in
wall time.  Every host time the benchmark reports is therefore turned
into *reference seconds*: host seconds divided by how slow the host ran
the kernel below while the section was being timed, so that

    reference seconds = host seconds * REFERENCE_S / kernel seconds per pass

On a host that runs the kernel in ``REFERENCE_S`` the two are equal.

A timed call is sampled from inside: :class:`Section` runs one kernel
pass every ``PERIOD_S`` of wall time from a ``SIGALRM`` handler, takes
the passes' own time out of the call's, and scales the rest by their
mean.  Samples taken before and after a call would miss the host's
speed changes during it.  The kernel uses no code of the program, so a
change to the program cannot change it, and it mixes the two kinds of
work the program does: interpreter-bound scalar float code (a Newton
solve of a diode-like equation) and small numpy array operations.  The
handler touches no state of the program, so outputs do not change.
"""

from __future__ import annotations

import math
import signal
import time
from typing import Any, List, Optional, Tuple

import numpy as np

#: Seconds per kernel pass, wall and CPU, at the reference speed.  The
#: 2-vCPU Firecracker VM the benchmark was tuned on ran a pass in about
#: 1.7 ms in its slow spells, which were most of the time, and in about
#: 0.7 ms in its fast ones.
REFERENCE_S = 0.0017
#: Wall seconds between kernel passes inside a timed section.
PERIOD_S = 0.05
#: Fewest kernel passes a section is scaled by; passes missing after a
#: short section are run after it, outside its time.
MIN_PASSES = 10

_GRID = np.linspace(0.0, 1.0, 64)


def _diode_current(volts: float, i_sc: float = 3e-3, i_0: float = 1e-12,
                   n_vt: float = 0.0335, r_s: float = 5.0) -> float:
    current = i_sc
    for _ in range(30):
        arg = (volts + current * r_s) / n_vt
        step = (i_sc - i_0 * math.expm1(arg) - current) / (
            -i_0 * math.exp(arg) * r_s / n_vt - 1.0)
        current -= step
        if abs(step) < 1e-15:
            break
    return current


def kernel() -> float:
    """One pass of fixed work; returns a checksum so nothing is skipped."""
    best = 0.0
    for k in range(100):
        volts = 0.3 + 0.004 * k
        best = max(best, volts * _diode_current(volts))
    energy = np.zeros(64)
    for step in range(150):
        energy = np.maximum(energy + 1e-3 * np.exp(-_GRID) - 1e-3 * _GRID * _GRID
                            - 1e-4 * step, 0.0)
        best += float(energy[int(np.argmax(energy))]) * 1e-6
    return best


def speed(passes: int = 50) -> Tuple[float, float]:
    """Mean kernel (wall, CPU) seconds per pass over ``passes`` back-to-back passes."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(passes):
        kernel()
    return (time.perf_counter() - wall0) / passes, (time.process_time() - cpu0) / passes


class Section:
    """Times the code in a ``with`` block in host and reference seconds."""

    def __init__(self) -> None:
        self.passes: List[Tuple[float, float, float]] = []  # (start, wall, cpu)
        self.wall_s = self.cpu_s = 0.0
        self._start = self._cpu_start = 0.0
        self._previous: Any = None

    def _sample(self, signum: Optional[int] = None, frame: Any = None) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        kernel()
        self.passes.append((wall0, time.perf_counter() - wall0, time.process_time() - cpu0))

    def __enter__(self) -> "Section":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start, self._cpu_start = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        end, cpu_end = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # A pass that started after the section ended is not part of it.
        self.passes = [p for p in self.passes if p[0] < end]
        self.wall_s = end - self._start - sum(p[1] for p in self.passes)
        self.cpu_s = cpu_end - self._cpu_start - sum(p[2] for p in self.passes)
        while len(self.passes) < MIN_PASSES:
            self._sample()

    def reference_s(self) -> Tuple[float, float]:
        """The section's (wall, CPU) time in reference seconds."""
        n = len(self.passes)
        kernel_wall = sum(p[1] for p in self.passes) / n
        kernel_cpu = sum(p[2] for p in self.passes) / n
        return (self.wall_s * REFERENCE_S / kernel_wall,
                self.cpu_s * REFERENCE_S / kernel_cpu)
