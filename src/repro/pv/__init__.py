"""Photovoltaic harvester substrate.

Models the paper's energy source: a small monocrystalline solar cell
(IXYS KXOB22-04X3F class, three series junctions, ~22 x 7 mm) whose
measured I-V family under variable light is Fig. 2 of the paper.  The
single-diode model here generates the same curve family from physical
parameters: photocurrent proportional to irradiance, an exponential
diode knee, and shunt/series parasitics.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.pv.cell import SingleDiodeCell, kxob22_cell
    from repro.pv.environment import (
        LightCondition,
        FULL_SUN,
        HALF_SUN,
        QUARTER_SUN,
        INDOOR,
        STANDARD_CONDITIONS,
    )
    from repro.pv.mpp import MaximumPowerPoint, find_mpp
    from repro.pv.traces import (
        IrradianceTrace,
        constant_trace,
        step_trace,
        ramp_trace,
        cloud_trace,
        random_walk_trace,
        scaled_trace,
        overlay_flicker,
    )

__all__ = [
    "SingleDiodeCell",
    "kxob22_cell",
    "LightCondition",
    "FULL_SUN",
    "HALF_SUN",
    "QUARTER_SUN",
    "INDOOR",
    "STANDARD_CONDITIONS",
    "MaximumPowerPoint",
    "find_mpp",
    "IrradianceTrace",
    "constant_trace",
    "step_trace",
    "ramp_trace",
    "cloud_trace",
    "random_walk_trace",
    "scaled_trace",
    "overlay_flicker",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.pv.cell": ("SingleDiodeCell", "kxob22_cell"),
        "repro.pv.environment": (
            "LightCondition", "FULL_SUN", "HALF_SUN", "QUARTER_SUN", "INDOOR",
            "STANDARD_CONDITIONS",
        ),
        "repro.pv.mpp": ("MaximumPowerPoint", "find_mpp"),
        "repro.pv.traces": (
            "IrradianceTrace", "constant_trace", "step_trace", "ramp_trace",
            "cloud_trace", "random_walk_trace", "scaled_trace",
            "overlay_flicker",
        ),
    },
)
