"""Board-level energy monitor substrate.

The paper's test PCB adds "multiple comparators with less than 0.1 uW
power ... to serve as a simplified energy monitor to the solar cells"
(Section VII).  Their outputs drive the MPP-tracking scheme of
Section VI-A: the time the solar-node voltage takes to fall between two
comparator thresholds reveals the input power (eqs. 6-7), which a
pre-characterised lookup table maps to the new MPP voltage and DVFS
setting.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.monitor.comparator import ThresholdComparator, ComparatorBank, CrossingEvent
    from repro.monitor.current_sense import CurrentSenseEstimator
    from repro.monitor.estimator import DischargeTimePowerEstimator, PowerEstimate
    from repro.monitor.lut import MppLookupTable, MppEntry, build_mpp_lut

__all__ = [
    "ThresholdComparator",
    "ComparatorBank",
    "CrossingEvent",
    "CurrentSenseEstimator",
    "DischargeTimePowerEstimator",
    "PowerEstimate",
    "MppLookupTable",
    "MppEntry",
    "build_mpp_lut",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.monitor.comparator": (
            "ThresholdComparator", "ComparatorBank", "CrossingEvent",
        ),
        "repro.monitor.current_sense": ("CurrentSenseEstimator",),
        "repro.monitor.estimator": (
            "DischargeTimePowerEstimator", "PowerEstimate",
        ),
        "repro.monitor.lut": ("MppLookupTable", "MppEntry", "build_mpp_lut"),
    },
)
