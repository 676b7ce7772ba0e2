"""The paper's contribution: holistic energy management.

Four schemes, each mapping to a section of the paper:

* :mod:`repro.core.operating_point` -- the holistic optimal voltage
  point under the solar MPP constraint (Section IV, eqs. 1-4);
* :mod:`repro.core.mep` -- the holistic minimum energy point with the
  regulator's efficiency folded in (Section V, eq. 5);
* :mod:`repro.core.mppt` -- MPP tracking from capacitor discharge
  timing (Section VI-A, eqs. 6-7);
* :mod:`repro.core.sprint` -- "sprinting" deadline scheduling with
  regulator bypass (Section VI-B, eqs. 8-13).

:mod:`repro.core.scheduler` combines them into the policy engine a
deployed node would run, and :mod:`repro.core.system` bundles the
hardware substrates into the test system of Section VII.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.admission import (
        AdmissionController,
        AdmissionReport,
        PeriodicTask,
    )
    from repro.core.system import EnergyHarvestingSoC, paper_system
    from repro.core.operating_point import (
        OperatingPoint,
        OperatingPointOptimizer,
    )
    from repro.core.mep import HolisticMepOptimizer, MepComparison
    from repro.core.duty_cycle import (
        DutyCycleController,
        DutyCycleScheduler,
        SustainableRate,
    )
    from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
    from repro.core.sprint import SprintScheduler, SprintPlan, SprintController
    from repro.core.scheduler import HolisticEnergyManager, OperatingPlan
    from repro.core.policies import Policy

__all__ = [
    "AdmissionController",
    "AdmissionReport",
    "PeriodicTask",
    "EnergyHarvestingSoC",
    "paper_system",
    "OperatingPoint",
    "OperatingPointOptimizer",
    "HolisticMepOptimizer",
    "MepComparison",
    "DutyCycleScheduler",
    "DutyCycleController",
    "SustainableRate",
    "DischargeTimeMppTracker",
    "MppTrackingController",
    "SprintScheduler",
    "SprintPlan",
    "SprintController",
    "HolisticEnergyManager",
    "OperatingPlan",
    "Policy",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.core.admission": (
            "AdmissionController", "AdmissionReport", "PeriodicTask",
        ),
        "repro.core.system": ("EnergyHarvestingSoC", "paper_system"),
        "repro.core.operating_point": (
            "OperatingPoint", "OperatingPointOptimizer",
        ),
        "repro.core.mep": ("HolisticMepOptimizer", "MepComparison"),
        "repro.core.duty_cycle": (
            "DutyCycleController", "DutyCycleScheduler", "SustainableRate",
        ),
        "repro.core.mppt": (
            "DischargeTimeMppTracker", "MppTrackingController",
        ),
        "repro.core.sprint": (
            "SprintScheduler", "SprintPlan", "SprintController",
        ),
        "repro.core.scheduler": ("HolisticEnergyManager", "OperatingPlan"),
        "repro.core.policies": ("Policy",),
    },
)
