"""Combined processor model and the conventional minimum energy point.

:class:`ProcessorModel` bundles the frequency, dynamic-power and
leakage models into the single object the optimizers and simulator
consume.  It answers the questions the paper's equations pose:

* eq. (3)-(4): maximum clock and total power at a supply voltage;
* eq. (5) without the regulator term: energy per cycle and the
  *conventional* MEP (the baseline the holistic MEP of
  :mod:`repro.core.mep` is compared against);
* the inverse problem the DVFS loop needs: given a power budget at the
  supply pins, the fastest sustainable clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelParameterError, OperatingRangeError
from repro.minimize import bounded_minimize
from repro.processor.frequency import FrequencyModel
from repro.processor.power import DynamicPowerModel, LeakageModel
from repro.units import mega_hertz, milli_amps, pico_farads


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-cycle energy at one operating point, split by mechanism."""

    voltage_v: float
    frequency_hz: float
    dynamic_j: float
    leakage_j: float

    @property
    def total_j(self) -> float:
        """Total energy charged to one clock cycle [J]."""
        return self.dynamic_j + self.leakage_j


@dataclass(frozen=True)
class MinimumEnergyPoint:
    """A located minimum energy point (voltage and energy per cycle)."""

    voltage_v: float
    energy_per_cycle_j: float
    frequency_hz: float


@dataclass(frozen=True)
class ProcessorModel:
    """A DVFS-capable microprocessor for energy analysis.

    Parameters
    ----------
    frequency:
        Supply-to-clock model.
    dynamic:
        Switched-capacitance dynamic power model.
    leakage:
        Subthreshold/DIBL leakage model.
    min_operating_v / max_operating_v:
        The logic's functional supply window (the paper's chip runs
        0.2-1.0 V; it browns out below ~0.5 V when regulated at speed,
        which the simulator enforces separately).
    """

    frequency: FrequencyModel
    dynamic: DynamicPowerModel
    leakage: LeakageModel
    min_operating_v: float = 0.15
    max_operating_v: float = 1.1
    name: str = "image-processor"

    def __post_init__(self) -> None:
        if not 0.0 < self.min_operating_v < self.max_operating_v:
            raise ModelParameterError(
                f"invalid operating window [{self.min_operating_v}, "
                f"{self.max_operating_v}]"
            )

    def with_activity(self, activity: float) -> "ProcessorModel":
        """This processor under a workload of the given activity factor.

        Frequency capability and leakage are workload-independent; only
        the switched capacitance scales.  Use with
        :attr:`Workload.activity <repro.processor.workloads.Workload>`
        to plan heterogeneous workloads:
        ``processor.with_activity(workload.activity)``.
        """
        from dataclasses import replace as dataclass_replace

        if activity == self.dynamic.activity:
            return self
        return dataclass_replace(
            self,
            dynamic=DynamicPowerModel(
                effective_capacitance_f=self.dynamic.effective_capacitance_f,
                activity=activity,
            ),
        )

    # -- forward characteristics ------------------------------------------------

    def check_voltage(self, voltage_v: float) -> None:
        """Raise when the supply is outside the functional window."""
        if not self.min_operating_v <= voltage_v <= self.max_operating_v:
            raise OperatingRangeError(
                f"{self.name}: supply {voltage_v:.3f} V outside "
                f"[{self.min_operating_v:.3f}, {self.max_operating_v:.3f}] V"
            )

    def max_frequency(
        self, voltage_v: "float | np.ndarray"
    ) -> "float | np.ndarray":
        """Maximum clock at the given supply [Hz].

        Raises outside the functional window; NaN passes through.  A
        float (or int) is range-checked with plain comparisons and
        takes the frequency model's scalar path, which returns its
        array element's exact bits.
        """
        if isinstance(voltage_v, (float, int)):
            if voltage_v < self.min_operating_v or voltage_v > self.max_operating_v:
                raise OperatingRangeError(
                    f"{self.name}: supply outside functional window"
                )
            return self.frequency.max_frequency(voltage_v)
        arr = np.atleast_1d(np.asarray(voltage_v, dtype=float))
        if np.any(arr < self.min_operating_v) or np.any(arr > self.max_operating_v):
            raise OperatingRangeError(
                f"{self.name}: supply outside functional window"
            )
        return self.frequency.max_frequency(voltage_v)

    def power(
        self, voltage_v: "float | np.ndarray", frequency_hz: "float | np.ndarray"
    ) -> "float | np.ndarray":
        """Total power ``Pdyn + Pleak`` at a supply/clock pair [W].

        A float (or int) pair stays in plain floats through both models.
        """
        return self.dynamic.power(voltage_v, frequency_hz) + self.leakage.power(
            voltage_v
        )

    def max_power(self, voltage_v: "float | np.ndarray") -> "float | np.ndarray":
        """Total power when clocked at the maximum frequency [W].

        This is the processor's power-voltage curve of Fig. 6(a).
        """
        return self.power(voltage_v, self.max_frequency(voltage_v))

    def energy_breakdown(
        self, voltage_v: float, frequency_hz: "float | None" = None
    ) -> EnergyBreakdown:
        """Per-cycle dynamic/leakage energy split (Fig. 11(a) curves)."""
        self.check_voltage(voltage_v)
        if frequency_hz is None:
            frequency_hz = float(self.max_frequency(voltage_v))
        if frequency_hz <= 0.0:
            raise OperatingRangeError("energy per cycle needs a running clock")
        return EnergyBreakdown(
            voltage_v=voltage_v,
            frequency_hz=frequency_hz,
            dynamic_j=float(self.dynamic.energy_per_cycle(voltage_v)),
            leakage_j=float(
                self.leakage.energy_per_cycle(voltage_v, frequency_hz)
            ),
        )

    def energy_per_cycle(
        self,
        voltage_v: "float | np.ndarray",
        frequency_hz: "float | np.ndarray | None" = None,
    ) -> "float | np.ndarray":
        """Total energy per cycle [J], at max frequency unless given."""
        if frequency_hz is None:
            frequency_hz = self.max_frequency(voltage_v)
        return self.dynamic.energy_per_cycle(
            voltage_v
        ) + self.leakage.energy_per_cycle(voltage_v, frequency_hz)

    # -- inverse problems -------------------------------------------------------

    def frequency_for_power(
        self,
        voltage_v: "float | np.ndarray",
        power_budget_w: "float | np.ndarray",
    ) -> "float | np.ndarray":
        """Fastest clock sustainable inside ``power_budget_w`` at ``voltage_v``.

        Solves ``Pdyn(V, f) + Pleak(V) = budget`` for ``f``, clamped to
        the maximum frequency.  Returns 0 when leakage alone exceeds the
        budget (the processor cannot even idle at this voltage).
        Vectorised over voltages and budgets: every element has the bits
        of its own scalar call, and scalar inputs return a float.
        """
        scalar = np.ndim(voltage_v) == 0 and np.ndim(power_budget_w) == 0
        if scalar:
            self.check_voltage(float(voltage_v))
        budget = np.asarray(power_budget_w, dtype=float)
        if np.any(budget < 0.0):
            raise OperatingRangeError(
                f"power budget must be >= 0, got {power_budget_w}"
            )
        v = np.asarray(voltage_v, dtype=float)
        f_max = self.max_frequency(v)
        headroom = budget - self.leakage.power(v)
        f_budget = headroom / self.dynamic.energy_per_cycle(v)
        f = np.where(headroom <= 0.0, 0.0, np.minimum(f_budget, f_max))
        return float(f) if scalar else f

    def voltage_for_frequency(self, frequency_hz: float) -> float:
        """Lowest supply in the functional window reaching ``frequency_hz``."""
        v = self.frequency.voltage_for_frequency(
            frequency_hz, v_max=self.max_operating_v
        )
        return max(v, self.min_operating_v)

    # -- the conventional minimum energy point ------------------------------------

    def conventional_mep(
        self, low_v: "float | None" = None, high_v: "float | None" = None
    ) -> MinimumEnergyPoint:
        """The classic MEP: minimise ``Edyn + Eleak`` per cycle over supply.

        This is the module-local optimum the paper's Section V revisits;
        it ignores any regulator between the harvester and these pins.
        """
        low = self.min_operating_v if low_v is None else low_v
        high = self.max_operating_v if high_v is None else high_v
        if not self.min_operating_v <= low < high <= self.max_operating_v:
            raise ModelParameterError(f"invalid MEP search window [{low}, {high}]")

        grid = np.linspace(low, high, 96)
        energies = self.energy_per_cycle(grid)
        seed = int(np.argmin(energies))
        bracket_low = grid[max(seed - 1, 0)]
        bracket_high = grid[min(seed + 1, len(grid) - 1)]
        v_mep = bounded_minimize(
            lambda v: float(self.energy_per_cycle(v)),
            bracket_low,
            bracket_high,
            xatol=1e-6,
        )
        return MinimumEnergyPoint(
            voltage_v=v_mep,
            energy_per_cycle_j=float(self.energy_per_cycle(v_mep)),
            frequency_hz=float(self.max_frequency(v_mep)),
        )


def paper_processor() -> ProcessorModel:
    """The paper's 65 nm image processor, calibrated to Section VII.

    Calibration targets:

    * a 64x64 frame (~6M cycles through the functional pipeline of
      :mod:`repro.processor.image`) takes ~15 ms at 0.5 V, i.e.
      ~400 MHz at 0.5 V;
    * the frequency curve reaches ~1 GHz near 1.0 V (Fig. 11(a));
    * at maximum speed the power-voltage curve crosses the solar cell's
      current-limited region near 0.7 V (Fig. 6(a));
    * the conventional MEP lands near 0.3 V (Fig. 11(a)).
    """
    return ProcessorModel(
        frequency=FrequencyModel(
            drive_scale_hz=mega_hertz(29.17),
            threshold_v=0.25,
            alpha=1.5,
            subthreshold_slope_factor=1.35,
            min_voltage_v=0.05,
        ),
        dynamic=DynamicPowerModel(effective_capacitance_f=pico_farads(32.0)),
        leakage=LeakageModel(reference_current_a=milli_amps(0.84), dibl_voltage_v=0.8),
        min_operating_v=0.15,
        max_operating_v=1.1,
    )
