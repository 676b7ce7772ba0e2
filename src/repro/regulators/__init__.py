"""On-chip voltage regulator substrate.

The paper implements three fully-integrated 65 nm regulators and
measures their efficiency-versus-voltage profiles:

* a linear/low-dropout regulator (Fig. 3, ~45% at 0.55 V),
* a reconfigurable switched-capacitor regulator with 5:4 / 3:2 / 2:1
  ratios (Fig. 4, 67% full load / 64% half load at 0.55 V),
* an on-chip buck regulator (Fig. 5, 63% / 58% at 0.55 V, 40-75%
  across its 0.3-0.8 V range),

plus the *bypass* path (direct solar-to-processor connection) that the
holistic policy engages at low light and at the end of a sprint.

Each model decomposes into physical loss components (conduction,
switching, fixed/controller, quiescent) so the efficiency *shape* --
which is what the holistic optimisation exploits -- emerges from first
principles rather than a lookup of the paper's curves.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.regulators.base import Regulator, RegulatorOperatingPoint
    from repro.regulators.bypass import BypassPath
    from repro.regulators.buck import BuckRegulator, paper_buck
    from repro.regulators.ldo import LinearRegulator, paper_ldo
    from repro.regulators.switched_capacitor import (
        SwitchedCapacitorRegulator,
        paper_switched_capacitor,
    )

__all__ = [
    "Regulator",
    "RegulatorOperatingPoint",
    "LinearRegulator",
    "SwitchedCapacitorRegulator",
    "BuckRegulator",
    "BypassPath",
    "paper_ldo",
    "paper_switched_capacitor",
    "paper_buck",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.regulators.base": ("Regulator", "RegulatorOperatingPoint"),
        "repro.regulators.bypass": ("BypassPath",),
        "repro.regulators.buck": ("BuckRegulator", "paper_buck"),
        "repro.regulators.ldo": ("LinearRegulator", "paper_ldo"),
        "repro.regulators.switched_capacitor": (
            "SwitchedCapacitorRegulator", "paper_switched_capacitor",
        ),
    },
)
