"""Composition of the full battery-less SoC (the paper's Fig. 1/10).

:class:`EnergyHarvestingSoC` bundles the substrates -- solar cell, node
capacitor, regulator bank, processor, comparator thresholds -- into the
single object the optimizers, schedulers and experiments operate on.
:func:`paper_system` builds the configuration of the paper's test
setup: the KXOB22 cell, the three on-chip regulators of Figs. 3-5 plus
the bypass switch, the 65 nm image processor, and board comparators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.errors import ModelParameterError
from repro.monitor.comparator import ComparatorBank
from repro.monitor.lut import MppLookupTable, build_mpp_lut
from repro.processor.energy import ProcessorModel, paper_processor
from repro.pv.cell import SingleDiodeCell, kxob22_cell
from repro.pv.mpp import MaximumPowerPoint, find_mpps
from repro.regulators.base import Regulator
from repro.regulators.buck import paper_buck
from repro.regulators.bypass import BypassPath
from repro.regulators.ldo import paper_ldo
from repro.regulators.switched_capacitor import paper_switched_capacitor
from repro.storage.capacitor import Capacitor

#: Comparator thresholds on the solar node (the V0 > V1 > V2 of Fig. 8).
DEFAULT_THRESHOLDS_V = (1.15, 1.05, 0.95)

#: Node storage capacitance of the reference bench.  Sized so a
#: millisecond-scale deadline job discharges the node over the same
#: 1.2 V -> ~0.55 V trajectory as the paper's measured waveform
#: (Fig. 11(b)): a few mW of deficit for ~20 ms swings ~half the
#: stored energy.
DEFAULT_NODE_CAPACITANCE_F = 150e-6


@dataclass
class EnergyHarvestingSoC:
    """The full system under study.

    Parameters
    ----------
    cell / processor:
        Harvester and load models.
    regulators:
        Converter bank by name; must include the key ``"bypass"``.
    node_capacitance_f:
        Solar-node storage capacitance.
    comparator_thresholds_v:
        Monitor thresholds, highest first.
    """

    cell: SingleDiodeCell
    processor: ProcessorModel
    regulators: Dict[str, Regulator]
    node_capacitance_f: float = DEFAULT_NODE_CAPACITANCE_F
    comparator_thresholds_v: Tuple[float, ...] = DEFAULT_THRESHOLDS_V
    _mpp_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.node_capacitance_f <= 0.0:
            raise ModelParameterError(
                f"node capacitance must be positive, got {self.node_capacitance_f}"
            )
        if "bypass" not in self.regulators:
            raise ModelParameterError(
                'regulator bank must include a "bypass" entry'
            )
        if len(self.comparator_thresholds_v) < 2:
            raise ModelParameterError(
                "need at least two comparator thresholds for eq. (7) timing"
            )
        ordered = sorted(self.comparator_thresholds_v, reverse=True)
        if tuple(ordered) != tuple(self.comparator_thresholds_v):
            raise ModelParameterError(
                "comparator thresholds must be listed highest first"
            )

    # -- derived components -----------------------------------------------------

    def regulator(self, name: str) -> Regulator:
        """Look up a converter by name with a helpful error."""
        try:
            return self.regulators[name]
        except KeyError:
            raise ModelParameterError(
                f"unknown regulator {name!r}; available: "
                f"{sorted(self.regulators)}"
            ) from None

    @property
    def converter_names(self) -> "tuple[str, ...]":
        """Names of real converters (bypass excluded), sorted."""
        return tuple(sorted(n for n in self.regulators if n != "bypass"))

    def new_node_capacitor(self, initial_voltage_v: float) -> Capacitor:
        """A fresh node capacitor at the given precharge."""
        return Capacitor(
            self.node_capacitance_f, initial_voltage_v=initial_voltage_v
        )

    def new_comparator_bank(self) -> ComparatorBank:
        """A fresh comparator bank at the configured thresholds."""
        return ComparatorBank(list(self.comparator_thresholds_v))

    def mpp(self, irradiance: float) -> MaximumPowerPoint:
        """The cell's MPP at an irradiance (cached -- it is pure).

        Keyed on the exact float: a hit returns this irradiance's own
        MPP, whatever was queried first.
        """
        if irradiance not in self._mpp_cache:
            self.mpps([irradiance])
        return self._mpp_cache[irradiance]

    def mpps(self, irradiances: "Sequence[float]") -> "list[MaximumPowerPoint]":
        """The cell's MPPs at several irradiances, in order.

        Repeated irradiances are solved once, and only those missing
        from the :meth:`mpp` cache are characterized, in one
        :func:`~repro.pv.mpp.find_mpps` call.
        """
        cache = self._mpp_cache
        misses = list(dict.fromkeys(g for g in irradiances if g not in cache))
        if misses:
            cache.update(zip(misses, find_mpps(self.cell, misses)))
        return [cache[g] for g in irradiances]

    def build_mpp_lut(self, points: int = 24) -> MppLookupTable:
        """Pre-characterise the power-to-MPP LUT for this cell."""
        return build_mpp_lut(self.cell, points=points)


def paper_system(
    node_capacitance_f: float = DEFAULT_NODE_CAPACITANCE_F,
) -> EnergyHarvestingSoC:
    """The paper's demonstration system (Sections II, III, VII)."""
    return EnergyHarvestingSoC(
        cell=kxob22_cell(),
        processor=paper_processor(),
        regulators={
            "ldo": paper_ldo(),
            "sc": paper_switched_capacitor(),
            "buck": paper_buck(),
            "bypass": BypassPath(),
        },
        node_capacitance_f=node_capacitance_f,
    )
