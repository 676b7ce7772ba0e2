"""DVFS controller interface and basic controllers.

The paper's system closes a feedback loop from the solar node, through
the regulator, down to the processor's clock and supply (Fig. 1).  In
the simulator that loop is a :class:`DvfsController`: every step it
sees the live node state and returns a :class:`ControlDecision` --
regulated at a voltage/frequency setpoint, bypassed, or halted.

The advanced controllers (discharge-time MPP tracking, sprinting) live
in :mod:`repro.core`; this module provides the protocol plus the simple
controllers the baselines and tests use.
"""

from __future__ import annotations

import abc
from typing import Callable
from dataclasses import dataclass

from repro.errors import ModelParameterError


@dataclass(frozen=True)
class ControllerView:
    """What a controller is allowed to observe each step.

    The live node voltage and time are physically measurable (the
    comparator bank); cycle progress is the processor's own counter.
    The true irradiance is deliberately *not* exposed -- controllers
    that need it must estimate it, as the paper's scheme does.

    ``recovering`` is the supply monitor's power-good line held low:
    the engine has power-gated the load after a brownout and is
    recharging the node; any work the controller commands is ignored
    until the line releases.  ``brownout_count`` counts completed
    brownout entries so far, so a controller can detect "I just came
    back from a brownout" and re-track instead of trusting stale state.
    """

    time_s: float
    node_voltage_v: float
    processor_voltage_v: float
    cycles_done: float
    comparator_events: tuple
    recovering: bool = False
    brownout_count: int = 0

    # The engine builds one view per step.  Writing the instance dict
    # directly skips the ``object.__setattr__`` per field that a
    # generated frozen ``__init__`` pays; the frozen ``__setattr__``,
    # ``__eq__``, ``__hash__`` and ``__repr__`` are still generated.
    def __init__(
        self,
        time_s: float,
        node_voltage_v: float,
        processor_voltage_v: float,
        cycles_done: float,
        comparator_events: tuple,
        recovering: bool = False,
        brownout_count: int = 0,
    ) -> None:
        if time_s < 0.0:
            raise ModelParameterError(f"time must be >= 0, got {time_s}")
        state = self.__dict__
        state["time_s"] = time_s
        state["node_voltage_v"] = node_voltage_v
        state["processor_voltage_v"] = processor_voltage_v
        state["cycles_done"] = cycles_done
        state["comparator_events"] = comparator_events
        state["recovering"] = recovering
        state["brownout_count"] = brownout_count


@dataclass(frozen=True)
class ControlDecision:
    """One step's actuation.

    ``mode`` is one of:

    * ``"regulated"`` -- run the regulator at ``output_voltage_v`` and
      clock the processor at ``frequency_hz``;
    * ``"bypass"`` -- close the bypass switch (processor follows the
      node voltage) and clock at ``frequency_hz``;
    * ``"halt"`` -- gate the clock (leakage only, at the node voltage
      if bypassed, output voltage otherwise).
    """

    mode: str
    frequency_hz: float
    output_voltage_v: "float | None" = None

    VALID_MODES = ("regulated", "bypass", "halt")

    # Direct instance-dict writes, as in ControllerView; controllers
    # with a fixed set of actuations build each decision once.
    def __init__(
        self,
        mode: str,
        frequency_hz: float,
        output_voltage_v: "float | None" = None,
    ) -> None:
        if mode not in self.VALID_MODES:
            raise ModelParameterError(
                f"mode must be one of {self.VALID_MODES}, got {mode!r}"
            )
        if frequency_hz < 0.0:
            raise ModelParameterError(
                f"frequency must be >= 0, got {frequency_hz}"
            )
        if mode == "regulated" and (
            output_voltage_v is None or output_voltage_v <= 0.0
        ):
            raise ModelParameterError(
                "regulated mode needs a positive output voltage setpoint"
            )
        state = self.__dict__
        state["mode"] = mode
        state["frequency_hz"] = frequency_hz
        state["output_voltage_v"] = output_voltage_v


class DvfsController(abc.ABC):
    """Per-step decision maker closing the Fig. 1 feedback loop."""

    @abc.abstractmethod
    def decide(self, view: ControllerView) -> ControlDecision:
        """Return this step's actuation given the observable state."""

    def reset(self) -> None:
        """Clear controller state before a fresh run (default: nothing)."""


class FixedOperatingPointController(DvfsController):
    """Hold one regulated operating point forever.

    The simplest policy: what a conventionally-designed system does
    after picking its (local) optimum at design time.
    """

    def __init__(self, output_voltage_v: float, frequency_hz: float) -> None:
        if output_voltage_v <= 0.0:
            raise ModelParameterError(
                f"output voltage must be positive, got {output_voltage_v}"
            )
        if frequency_hz <= 0.0:
            raise ModelParameterError(
                f"frequency must be positive, got {frequency_hz}"
            )
        self.output_voltage_v = output_voltage_v
        self.frequency_hz = frequency_hz
        self._decision = ControlDecision(
            mode="regulated",
            frequency_hz=frequency_hz,
            output_voltage_v=output_voltage_v,
        )

    def decide(self, view: ControllerView) -> ControlDecision:
        return self._decision


class ConstantSpeedController(DvfsController):
    """Run at the deadline's average speed, halting when work is done.

    The paper's Fig. 9(b)/11(b) "w/o sprinting" baseline: constant
    frequency sized to ``N / T``, no speed modulation, regulator always
    on.
    """

    def __init__(
        self, output_voltage_v: float, frequency_hz: float, total_cycles: int
    ) -> None:
        if output_voltage_v <= 0.0:
            raise ModelParameterError(
                f"output voltage must be positive, got {output_voltage_v}"
            )
        if frequency_hz <= 0.0:
            raise ModelParameterError(
                f"frequency must be positive, got {frequency_hz}"
            )
        if total_cycles <= 0:
            raise ModelParameterError(
                f"total cycles must be positive, got {total_cycles}"
            )
        self.output_voltage_v = output_voltage_v
        self.frequency_hz = frequency_hz
        self.total_cycles = total_cycles
        self._running = ControlDecision(
            mode="regulated",
            frequency_hz=frequency_hz,
            output_voltage_v=output_voltage_v,
        )
        self._done = ControlDecision(
            mode="regulated", frequency_hz=0.0, output_voltage_v=output_voltage_v
        )

    def decide(self, view: ControllerView) -> ControlDecision:
        if view.cycles_done >= self.total_cycles:
            return self._done
        return self._running


class BypassController(DvfsController):
    """Always-bypassed operation at maximum safe speed.

    The passive-voltage-scaling baseline: the processor follows the
    node voltage and clocks as fast as that voltage allows (the caller
    provides the frequency law to avoid a dependency on the processor
    model here).
    """

    def __init__(self, frequency_law: "Callable[[float], float]") -> None:
        if not callable(frequency_law):
            raise ModelParameterError("frequency_law must be callable: V -> Hz")
        self.frequency_law = frequency_law

    def decide(self, view: ControllerView) -> ControlDecision:
        return ControlDecision(
            mode="bypass",
            frequency_hz=max(0.0, float(self.frequency_law(view.node_voltage_v))),
        )
