"""Tests for the system composition."""

import math

import pytest

from repro.core.system import EnergyHarvestingSoC, paper_system
from repro.errors import ModelParameterError
from repro.processor.energy import paper_processor
from repro.pv.cell import kxob22_cell
from repro.pv.mpp import find_mpp
from repro.regulators.bypass import BypassPath
from repro.regulators.ldo import paper_ldo


class TestConstruction:
    def test_paper_system_has_all_converters(self):
        system = paper_system()
        assert set(system.regulators) == {"ldo", "sc", "buck", "bypass"}
        assert system.converter_names == ("buck", "ldo", "sc")

    def test_requires_bypass_entry(self):
        with pytest.raises(ModelParameterError):
            EnergyHarvestingSoC(
                cell=kxob22_cell(),
                processor=paper_processor(),
                regulators={"ldo": paper_ldo()},
            )

    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ModelParameterError):
            EnergyHarvestingSoC(
                cell=kxob22_cell(),
                processor=paper_processor(),
                regulators={"bypass": BypassPath()},
                node_capacitance_f=0.0,
            )

    def test_rejects_unordered_thresholds(self):
        with pytest.raises(ModelParameterError):
            EnergyHarvestingSoC(
                cell=kxob22_cell(),
                processor=paper_processor(),
                regulators={"bypass": BypassPath()},
                comparator_thresholds_v=(0.9, 1.1),
            )

    def test_rejects_single_threshold(self):
        with pytest.raises(ModelParameterError):
            EnergyHarvestingSoC(
                cell=kxob22_cell(),
                processor=paper_processor(),
                regulators={"bypass": BypassPath()},
                comparator_thresholds_v=(1.0,),
            )


class TestAccessors:
    def test_regulator_lookup_error_names_available(self):
        system = paper_system()
        with pytest.raises(ModelParameterError, match="buck"):
            system.regulator("boost")

    def test_new_node_capacitor_uses_system_capacitance(self):
        system = paper_system()
        cap = system.new_node_capacitor(1.0)
        assert cap.capacitance_f == system.node_capacitance_f
        assert cap.voltage_v == 1.0

    def test_new_comparator_bank_uses_thresholds(self):
        system = paper_system()
        bank = system.new_comparator_bank()
        assert bank.thresholds_v == system.comparator_thresholds_v

    def test_mpp_cached_and_correct(self):
        system = paper_system()
        a = system.mpp(0.5)
        b = system.mpp(0.5)
        assert a is b  # cache hit
        truth = find_mpp(system.cell, 0.5)
        assert a.power_w == pytest.approx(truth.power_w, rel=1e-6)

    @pytest.mark.parametrize("upper_first", [False, True])
    def test_mpp_cache_keys_on_exact_irradiance(self, upper_first):
        """Two irradiances 1 ulp apart each get their own MPP, whichever
        is queried first (both once shared a ``round(x, 9)`` key)."""
        lower = 0.5078837166601279
        upper = math.nextafter(lower, 1.0)
        system = paper_system()
        for irradiance in (upper, lower) if upper_first else (lower, upper):
            system.mpp(irradiance)
        for irradiance in (lower, upper):
            assert system.mpp(irradiance).irradiance == irradiance
            assert system.mpp(irradiance) == find_mpp(system.cell, irradiance)

    def test_mpps_solve_each_distinct_miss_once(self, monkeypatch):
        import repro.core.system as system_module

        batches = []
        search = system_module.find_mpps

        def counting(cell, irradiances):
            batches.append(list(irradiances))
            return search(cell, irradiances)

        monkeypatch.setattr(system_module, "find_mpps", counting)
        system = paper_system()
        first = system.mpp(0.5)
        mpps = system.mpps([0.3, 0.5, 0.3, 0.0, 0.7, 0.3])
        assert batches == [[0.5], [0.3, 0.0, 0.7]]
        assert mpps[1] is first
        assert mpps[0] is mpps[2] is mpps[5] is system.mpp(0.3)
        assert [m.irradiance for m in mpps] == [0.3, 0.5, 0.3, 0.0, 0.7, 0.3]
        for mpp in mpps:
            assert mpp == find_mpp(system.cell, mpp.irradiance)
        assert system.mpps([0.7, 0.5]) == [mpps[4], first]
        assert len(batches) == 2

    def test_build_mpp_lut_spans_conditions(self):
        system = paper_system()
        lut = system.build_mpp_lut(points=8)
        low, high = lut.power_range_w
        assert low < system.mpp(0.1).power_w
        assert high >= system.mpp(1.0).power_w * 0.95
