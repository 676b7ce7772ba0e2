"""Simulation result container and the run log that builds it.

Everything the figure reproductions need from a transient run: full
waveform traces as numpy arrays (the paper's Fig. 8(c), 9(b), 11(b)
waveforms), energy integrals, and completion/brownout bookkeeping.
:class:`RunLog` records a run's events, sim-time trace and metrics and
assembles its :class:`SimulationResult`, for the scalar engine and for
every lane of the fleet core alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from pathlib import Path

from repro.errors import ModelParameterError
from repro.telemetry.profiling import Stopwatch

if TYPE_CHECKING:
    from repro.telemetry.session import Telemetry


@dataclass
class SimulationResult:
    """Recorded traces and summary of one transient run.

    All arrays share the same length (one entry per recorded step).
    """

    time_s: np.ndarray
    node_voltage_v: np.ndarray
    processor_voltage_v: np.ndarray
    frequency_hz: np.ndarray
    harvest_power_w: np.ndarray
    processor_power_w: np.ndarray
    draw_power_w: np.ndarray
    irradiance: np.ndarray
    mode: np.ndarray  # small-int codes, see MODE_CODES

    completed: bool = False
    completion_time_s: "float | None" = None
    browned_out: bool = False
    brownout_time_s: "float | None" = None
    brownout_count: int = 0
    downtime_s: float = 0.0
    final_cycles: float = 0.0
    events: list = field(default_factory=list)
    metrics: "dict[str, float] | None" = None

    MODE_CODES = {"regulated": 0, "bypass": 1, "halt": 2}

    def __post_init__(self) -> None:
        lengths = {
            len(self.time_s),
            len(self.node_voltage_v),
            len(self.processor_voltage_v),
            len(self.frequency_hz),
            len(self.harvest_power_w),
            len(self.processor_power_w),
            len(self.draw_power_w),
            len(self.irradiance),
            len(self.mode),
        }
        if len(lengths) != 1:
            raise ModelParameterError(
                f"trace arrays have inconsistent lengths: {sorted(lengths)}"
            )

    # -- energy integrals ------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Simulated time span."""
        if len(self.time_s) == 0:
            return 0.0
        return float(self.time_s[-1] - self.time_s[0])

    def harvested_energy_j(self) -> float:
        """Energy actually extracted from the solar cell (trapezoid)."""
        return float(np.trapezoid(self.harvest_power_w, self.time_s))

    def consumed_energy_j(self) -> float:
        """Energy delivered into the processor."""
        return float(np.trapezoid(self.processor_power_w, self.time_s))

    def conversion_loss_j(self) -> float:
        """Energy dissipated in the converter (draw minus delivered)."""
        return float(
            np.trapezoid(self.draw_power_w - self.processor_power_w, self.time_s)
        )

    # -- waveform queries ------------------------------------------------------

    def time_in_mode(self, mode: str) -> float:
        """Total time spent in a mode ("regulated"/"bypass"/"halt")."""
        if mode not in self.MODE_CODES:
            raise ModelParameterError(f"unknown mode {mode!r}")
        if len(self.time_s) < 2:
            return 0.0
        dt = np.diff(self.time_s)
        mask = self.mode[:-1] == self.MODE_CODES[mode]
        return float(np.sum(dt[mask]))

    def min_node_voltage_v(self) -> float:
        """Lowest solar-node voltage reached."""
        return float(np.min(self.node_voltage_v))

    def average_frequency_hz(self) -> float:
        """Time-averaged clock over the run."""
        if self.duration_s == 0.0:
            return 0.0
        return float(np.trapezoid(self.frequency_hz, self.time_s) / self.duration_s)

    def to_csv(self, path: "str | Path") -> None:
        """Write the recorded waveforms as CSV (one row per sample).

        Columns match the trace arrays; ``mode`` is written as its
        name.  For loading into pandas/spreadsheets to plot the
        Fig. 8/9(b)/11(b)-style waveforms.
        """
        code_to_name = {v: k for k, v in self.MODE_CODES.items()}
        header = (
            "time_s,node_voltage_v,processor_voltage_v,frequency_hz,"
            "harvest_power_w,processor_power_w,draw_power_w,irradiance,mode"
        )
        lines = [header]
        for i in range(len(self.time_s)):
            lines.append(
                f"{self.time_s[i]:.9g},{self.node_voltage_v[i]:.6g},"
                f"{self.processor_voltage_v[i]:.6g},{self.frequency_hz[i]:.6g},"
                f"{self.harvest_power_w[i]:.6g},{self.processor_power_w[i]:.6g},"
                f"{self.draw_power_w[i]:.6g},{self.irradiance[i]:.6g},"
                f"{code_to_name[int(self.mode[i])]}"
            )
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

    def summary(self) -> "dict[str, float]":
        """Headline numbers for reports and benches.

        Key order is deterministic: the fixed headline keys, then
        ``time_in_mode.*`` in sorted mode order, then any telemetry
        metrics (already sorted) when the run was instrumented.
        """
        out = {
            "duration_s": self.duration_s,
            "completed": float(self.completed),
            "completion_time_s": (
                float("nan")
                if self.completion_time_s is None
                else self.completion_time_s
            ),
            "browned_out": float(self.browned_out),
            "brownout_count": float(self.brownout_count),
            "downtime_s": self.downtime_s,
            "harvested_energy_j": self.harvested_energy_j(),
            "consumed_energy_j": self.consumed_energy_j(),
            "conversion_loss_j": self.conversion_loss_j(),
            "final_cycles": self.final_cycles,
            "min_node_voltage_v": self.min_node_voltage_v(),
            "average_frequency_hz": self.average_frequency_hz(),
        }
        for name in sorted(self.MODE_CODES):
            out[f"time_in_mode.{name}"] = self.time_in_mode(name)
        if self.metrics is not None:
            for name in sorted(self.metrics):
                out[f"metrics.{name}"] = self.metrics[name]
        return out


class RunLog:
    """The bookkeeping of one transient run, shared by both engines.

    Owns the run's events, its first-brownout and completion times, its
    open outage span and its wall-clock timer, and emits every engine
    event, span and end-of-run metric into ``telemetry``.  The scalar
    engine keeps one per run and the fleet core one per lane, calling
    it only when something happens and at the end of the run, so a
    lane's events, trace and metrics match its scalar run by
    construction.  Opening the log opens the ``engine.run`` span.
    """

    def __init__(self, telemetry: "Telemetry", dt_s: float, steps: int) -> None:
        self.telemetry = telemetry
        self.events: list = []
        self.brownout_time_s: "float | None" = None
        self.completion_time_s: "float | None" = None
        self._outage_started_s: "float | None" = None
        self._watch = Stopwatch()
        telemetry.begin_span(
            "engine.run", 0.0, track="engine", dt_s=dt_s, planned_steps=steps
        )

    def recovered(self, t: float, node_v: float) -> None:
        """Power-good: the load reconnects and the outage span closes."""
        self.events.append(("recovered", t))
        self.telemetry.event("recovered", t, track="engine", node_v=node_v)
        self._close_outage(t)

    def mode_switch(
        self, t: float, previous: str, new: str, node_v: float
    ) -> None:
        """The converter path changed (regulated/bypass/halt)."""
        self.telemetry.count("regulator.mode_switches")
        self.telemetry.event(
            "regulator.mode_switch", t, track="engine",
            previous=previous, new=new, node_v=node_v,
        )

    def transition(
        self, t: float, previous: str, new: str, setpoint_v: float
    ) -> None:
        """A DVFS mode or setpoint change (transition-model runs)."""
        self.telemetry.count("dvfs.transitions")
        self.telemetry.event(
            "dvfs.transition", t, track="engine",
            previous=previous, new=new, setpoint_v=setpoint_v,
        )

    def brownout(self, t: float, node_v: float, recover: bool) -> None:
        """A brownout; with ``recover`` the outage span opens."""
        if self.brownout_time_s is None:
            self.brownout_time_s = t
        self.events.append(("brownout", t))
        self.telemetry.count("brownout.count")
        self.telemetry.event("brownout", t, track="engine", node_v=node_v)
        if recover and self._outage_started_s is None:
            self.telemetry.begin_span("brownout.outage", t, track="engine")
            self._outage_started_s = t

    def completed(self, t: float, cycles: float, f: float, target: float) -> None:
        """The step from ``t`` (``cycles`` done, clock ``f``) crossed
        ``target``; the crossing instant is interpolated linearly."""
        crossed_t = t + (target - cycles) / f if f > 0.0 else t
        self.completion_time_s = crossed_t
        self.events.append(("completed", crossed_t))
        self.telemetry.event(
            "workload.completed", crossed_t, track="engine",
            cycles=float(target),
        )

    def collapsed(self, t: float) -> None:
        """The node hit 0 V while the load still drew power."""
        self.events.append(("node_collapse", t))
        self.telemetry.event("node.collapse", t, track="engine")

    def _close_outage(self, t: float) -> None:
        started = self._outage_started_s
        if started is not None:
            self.telemetry.end_span(t)
            self.telemetry.observe("brownout.outage_s", t - started)
            self._outage_started_s = None

    def result(
        self, t: float, steps: int, brownout_count: int, downtime_s: float,
        cycles: float, records: Sequence[np.ndarray],
    ) -> SimulationResult:
        """End the run at ``t`` after ``steps`` steps and build its result.

        An outage still open closes at ``t``, so the trace stays
        balanced.  ``records`` are the nine recorded trace arrays in
        :class:`SimulationResult` field order; the result copies them.
        """
        tel = self.telemetry
        self._close_outage(t)
        tel.end_span(t, steps=float(steps))
        tel.count("engine.steps", float(steps))
        tel.gauge("brownout.downtime_s", downtime_s)
        tel.gauge("engine.final_cycles", float(cycles))
        tel.profile("engine.run_wall_s", self._watch.elapsed_s())
        return SimulationResult(
            *(record.copy() for record in records),
            completed=self.completion_time_s is not None,
            completion_time_s=self.completion_time_s,
            browned_out=self.brownout_time_s is not None,
            brownout_time_s=self.brownout_time_s,
            brownout_count=brownout_count,
            downtime_s=downtime_s,
            final_cycles=cycles,
            events=self.events,
            metrics=tel.result_metrics(),
        )


def results_bit_identical(a: SimulationResult, b: SimulationResult) -> bool:
    """Exact equality of every recorded array, scalar and event.

    The one definition of "bit-identical" shared by the differential
    equivalence harness in ``tests/fleet/``, the planner adapter tests
    and the fleet engine bench.
    """
    arrays = (
        "time_s",
        "node_voltage_v",
        "processor_voltage_v",
        "frequency_hz",
        "harvest_power_w",
        "processor_power_w",
        "draw_power_w",
        "irradiance",
        "mode",
    )
    if any(
        not np.array_equal(getattr(a, name), getattr(b, name))
        for name in arrays
    ):
        return False
    return (
        a.completed == b.completed
        and a.completion_time_s == b.completion_time_s
        and a.browned_out == b.browned_out
        and a.brownout_time_s == b.brownout_time_s
        and a.brownout_count == b.brownout_count
        and a.downtime_s == b.downtime_s
        and a.final_cycles == b.final_cycles
        and a.events == b.events
    )
