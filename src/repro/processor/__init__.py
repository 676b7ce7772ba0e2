"""Microprocessor energy/performance substrate.

Models the paper's test vehicle: a 65 nm pattern-recognition image
processor (Section VII, Fig. 10) that runs from roughly 0.2 V
(subthreshold) up to 1 V, processing a 64x64 frame in about 15 ms at
0.5 V.  Three coupled models reproduce the measured characteristics of
Fig. 11(a):

* :class:`~repro.processor.frequency.FrequencyModel` -- maximum clock
  versus supply voltage, smooth across the sub/near/super-threshold
  regions (EKV-style drive current over load capacitance);
* :class:`~repro.processor.power.DynamicPowerModel` -- switched
  capacitance ``Ceff * V^2 * f``;
* :class:`~repro.processor.power.LeakageModel` -- subthreshold leakage
  with DIBL, whose energy-per-cycle divergence at low voltage creates
  the minimum energy point.

:mod:`repro.processor.image` additionally implements the image pipeline
*functionally* (gradient features, windowed vectors, classification) so
workload cycle counts come from real computation rather than constants.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.processor.frequency import FrequencyModel
    from repro.processor.power import DynamicPowerModel, LeakageModel
    from repro.processor.energy import ProcessorModel, paper_processor
    from repro.processor.workloads import (
        Workload,
        image_frame_workload,
        standard_workloads,
    )

__all__ = [
    "FrequencyModel",
    "DynamicPowerModel",
    "LeakageModel",
    "ProcessorModel",
    "paper_processor",
    "Workload",
    "image_frame_workload",
    "standard_workloads",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.processor.frequency": ("FrequencyModel",),
        "repro.processor.power": ("DynamicPowerModel", "LeakageModel"),
        "repro.processor.energy": ("ProcessorModel", "paper_processor"),
        "repro.processor.workloads": (
            "Workload", "image_frame_workload", "standard_workloads",
        ),
    },
)
