"""Baseline strategies the paper compares against.

Each module implements one conventional design the paper's holistic
schemes are measured against:

* :mod:`repro.baselines.raw_solar` -- direct connection (no converter),
  the passive-voltage-scaling setup;
* :mod:`repro.baselines.mppt_only` -- module-local MPPT: track the
  cell's MPP, but pick the processor point ignoring converter
  efficiency (the "conventional rule of thumb" of the abstract);
* :mod:`repro.baselines.conventional_mep` -- operate at the processor's
  textbook MEP through the regulator (Section V's strawman);
* :mod:`repro.baselines.fixed_speed` -- constant-speed deadline
  execution without sprinting or bypass (Fig. 9(b)/11(b) baseline).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.conventional_mep import ConventionalMepBaseline
    from repro.baselines.fixed_speed import FixedSpeedBaseline
    from repro.baselines.mppt_only import MpptOnlyBaseline
    from repro.baselines.raw_solar import RawSolarBaseline

__all__ = [
    "RawSolarBaseline",
    "MpptOnlyBaseline",
    "ConventionalMepBaseline",
    "FixedSpeedBaseline",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.baselines.conventional_mep": ("ConventionalMepBaseline",),
        "repro.baselines.fixed_speed": ("FixedSpeedBaseline",),
        "repro.baselines.mppt_only": ("MpptOnlyBaseline",),
        "repro.baselines.raw_solar": ("RawSolarBaseline",),
    },
)
