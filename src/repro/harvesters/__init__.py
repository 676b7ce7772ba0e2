"""Alternative energy harvesters.

The paper's system is solar, but nothing in the holistic machinery is
solar-specific: the optimizers, trackers and simulator consume any
source exposing the harvester interface (terminal ``current``/``power``
versus voltage at an environmental intensity, plus ``Voc``/``Isc``) --
:class:`~repro.pv.cell.SingleDiodeCell` is simply the reference
implementation.

This package adds the other harvester common in deployed battery-less
nodes, a thermoelectric generator, demonstrating the generality: a TEG
drops straight into :class:`~repro.core.system.EnergyHarvestingSoC`
and every scheme (holistic operating point, MEP, discharge-time
tracking, sprinting) runs unchanged on body heat or machine waste heat
instead of light.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.harvesters.base import Harvester
    from repro.harvesters.thermoelectric import (
        ThermoelectricGenerator,
        wearable_teg,
    )

__all__ = ["Harvester", "ThermoelectricGenerator", "wearable_teg"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.harvesters.base": ("Harvester",),
        "repro.harvesters.thermoelectric": (
            "ThermoelectricGenerator", "wearable_teg",
        ),
    },
)
