"""Discrete-time transient simulator substrate.

Replaces the paper's Cadence transient simulations and bench
measurements (Figs. 8, 9(b), 11(b)): a one-node circuit simulator for
the battery-less system -- solar cell into the node capacitor, a
regulator (or bypass switch) between the node and the processor, and a
pluggable DVFS controller closing the loop, exactly the feedback path
of Fig. 1.

The simulator integrates the node ODE ``C dV/dt = I_pv(V) - I_draw``
with a fixed microsecond-scale step, feeds every sample to the
comparator bank, lets the controller react, and records full waveform
traces for the figure reproductions.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.dvfs import (
        ControlDecision,
        DvfsController,
        FixedOperatingPointController,
        ConstantSpeedController,
    )
    from repro.sim.engine import TransientSimulator, SimulationConfig
    from repro.sim.events import LightStepEvent, detect_light_steps
    from repro.sim.result import SimulationResult

__all__ = [
    "ControlDecision",
    "DvfsController",
    "FixedOperatingPointController",
    "ConstantSpeedController",
    "TransientSimulator",
    "SimulationConfig",
    "SimulationResult",
    "LightStepEvent",
    "detect_light_steps",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.sim.dvfs": (
            "ControlDecision", "DvfsController",
            "FixedOperatingPointController", "ConstantSpeedController",
        ),
        "repro.sim.engine": ("TransientSimulator", "SimulationConfig"),
        "repro.sim.events": ("LightStepEvent", "detect_light_steps"),
        "repro.sim.result": ("SimulationResult",),
    },
)
