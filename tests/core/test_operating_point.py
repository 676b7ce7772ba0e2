"""Tests for the holistic optimal voltage point (Section IV)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operating_point import OperatingPoint, OperatingPointOptimizer
from repro.core.system import EnergyHarvestingSoC, paper_system
from repro.errors import (
    InfeasibleOperatingPointError,
    ModelParameterError,
    OperatingRangeError,
)


@pytest.fixture(scope="module")
def system():
    return paper_system()


@pytest.fixture(scope="module")
def optimizer(system):
    return OperatingPointOptimizer(system)


class TestConstruction:
    def test_rejects_tiny_grid(self, system):
        with pytest.raises(ModelParameterError):
            OperatingPointOptimizer(system, grid_points=4)


class TestUnregulatedPoint:
    def test_sits_on_the_iv_intersection(self, system, optimizer):
        """At the optimum the processor consumes what the cell provides."""
        point = optimizer.unregulated_point(1.0)
        p_pv = float(system.cell.power(point.processor_voltage_v, 1.0))
        assert point.delivered_power_w == pytest.approx(p_pv, rel=0.02)

    def test_extracts_less_than_mpp(self, system, optimizer):
        """Fig. 6(a): direct connection leaves power on the table."""
        point = optimizer.unregulated_point(1.0)
        assert point.extracted_power_w < system.mpp(1.0).power_w * 0.85

    def test_bypassed_flags(self, optimizer):
        point = optimizer.unregulated_point(1.0)
        assert point.bypassed
        assert point.regulator_name == "bypass"
        assert point.node_voltage_v == point.processor_voltage_v
        assert point.conversion_efficiency == pytest.approx(1.0)

    def test_paper_full_sun_location(self, optimizer):
        """The intersection lands near 0.6 V, well below the ~1.2 V MPP."""
        point = optimizer.unregulated_point(1.0)
        assert 0.5 <= point.processor_voltage_v <= 0.75

    def test_infeasible_in_darkness(self, optimizer):
        with pytest.raises(InfeasibleOperatingPointError):
            optimizer.unregulated_point(0.0)


class TestRegulatedPoint:
    def test_power_within_mpp_budget(self, system, optimizer):
        for name in ("sc", "buck", "ldo"):
            point = optimizer.regulated_point(name, 1.0)
            assert point.extracted_power_w <= system.mpp(1.0).power_w * (1 + 1e-6)

    def test_node_parked_at_mpp(self, system, optimizer):
        point = optimizer.regulated_point("sc", 1.0)
        assert point.node_voltage_v == pytest.approx(
            system.mpp(1.0).voltage_v
        )

    def test_delivered_consistent_with_efficiency(self, optimizer):
        point = optimizer.regulated_point("sc", 1.0)
        assert 0.0 < point.conversion_efficiency < 1.0
        assert point.delivered_power_w == pytest.approx(
            point.extracted_power_w * point.conversion_efficiency
        )

    def test_respects_converter_range(self, system, optimizer):
        point = optimizer.regulated_point("buck", 1.0)
        buck = system.regulator("buck")
        assert buck.min_output_v <= point.processor_voltage_v <= buck.max_output_v


class TestPaperClaims:
    def test_sc_beats_unregulated_at_full_sun(self, optimizer):
        """Fig. 6(b): the SC point delivers ~20-40% more power and a
        measurable speedup over direct connection."""
        raw = optimizer.unregulated_point(1.0)
        sc = optimizer.regulated_point("sc", 1.0)
        power_gain = sc.delivered_power_w / raw.delivered_power_w - 1.0
        speed_gain = sc.frequency_hz / raw.frequency_hz - 1.0
        assert 0.15 <= power_gain <= 0.45
        assert 0.05 <= speed_gain <= 0.30

    def test_buck_slightly_behind_sc(self, optimizer):
        """Fig. 6(b): 'the benefit of using buck regulator is slightly
        less than that from SC regulator'."""
        sc = optimizer.regulated_point("sc", 1.0)
        buck = optimizer.regulated_point("buck", 1.0)
        assert buck.frequency_hz < sc.frequency_hz
        assert buck.frequency_hz > 0.85 * sc.frequency_hz

    def test_ldo_no_better_than_raw(self, optimizer):
        """Fig. 6(b): 'the LDO does not bring any efficiency improvement
        over raw solar cell ... overall, less power is delivered'."""
        raw = optimizer.unregulated_point(1.0)
        ldo = optimizer.regulated_point("ldo", 1.0)
        assert ldo.delivered_power_w < raw.delivered_power_w
        assert ldo.frequency_hz < raw.frequency_hz

    def test_best_point_prefers_regulated_at_full_sun(self, optimizer):
        best = optimizer.best_point("sc", 1.0)
        assert not best.bypassed

    def test_best_point_never_worse_than_either_candidate(self, optimizer):
        for irradiance in (1.0, 0.5, 0.25, 0.1):
            best = optimizer.best_point("sc", irradiance)
            raw = optimizer.unregulated_point(irradiance)
            assert best.frequency_hz >= raw.frequency_hz


class TestOutputPowerCurve:
    def test_curve_shape(self, system, optimizer):
        voltages, powers = optimizer.output_power_curve("sc", 1.0)
        finite = np.isfinite(powers)
        assert np.any(finite)
        # Fig. 6(b): the deliverable power never exceeds the MPP power.
        assert np.nanmax(powers) <= system.mpp(1.0).power_w

    def test_explicit_voltages_respected(self, optimizer):
        voltages = np.array([0.4, 0.5, 0.6])
        out_v, out_p = optimizer.output_power_curve("buck", 1.0, voltages)
        np.testing.assert_array_equal(out_v, voltages)
        assert out_p.shape == (3,)


# -- the point-by-point reference ------------------------------------------------
#
# The scans below are the optimizer's per-voltage loops as they stood
# before each scan became one array pass.  They call the scalar
# ``frequency_for_power``, ``max_output_power`` and ``cell.power`` once
# per grid point; the array pass must return exactly what they return.


def reference_unregulated_point(optimizer, irradiance):
    processor = optimizer.system.processor
    cell = optimizer.system.cell
    voc = cell.open_circuit_voltage(irradiance)
    if voc <= processor.min_operating_v:
        raise InfeasibleOperatingPointError(
            f"open-circuit voltage {voc:.3f} V below processor minimum "
            f"{processor.min_operating_v:.3f} V at irradiance {irradiance}"
        )
    high = min(voc, processor.max_operating_v)
    grid = optimizer._voltage_grid(processor.min_operating_v, high)
    best = None
    for v in grid:
        p_pv = float(cell.power(v, irradiance))
        if p_pv <= 0.0:
            continue
        f = processor.frequency_for_power(float(v), p_pv)
        if f <= 0.0:
            continue
        p_proc = float(processor.power(float(v), f))
        if best is None or f > best.frequency_hz:
            best = OperatingPoint(
                processor_voltage_v=float(v),
                frequency_hz=f,
                delivered_power_w=p_proc,
                extracted_power_w=p_proc,
                node_voltage_v=float(v),
                regulator_name="bypass",
                bypassed=True,
            )
    if best is None:
        raise InfeasibleOperatingPointError(
            f"cell cannot sustain the processor at irradiance {irradiance}"
        )
    return best


def reference_regulated_point(optimizer, regulator_name, irradiance):
    regulator = optimizer.system.regulator(regulator_name)
    processor = optimizer.system.processor
    mpp = optimizer.system.mpp(irradiance)
    if mpp.power_w <= 0.0:
        raise InfeasibleOperatingPointError(
            f"no harvestable power at irradiance {irradiance}"
        )
    low = max(processor.min_operating_v, regulator.min_output_v)
    high = min(processor.max_operating_v, regulator.max_output_v, mpp.voltage_v)
    if low >= high:
        raise InfeasibleOperatingPointError(
            f"{regulator_name}: no overlap between converter and "
            "processor voltage ranges"
        )
    best = None
    for v in optimizer._voltage_grid(low, high):
        try:
            available = regulator.max_output_power(
                float(v), mpp.power_w, v_in=mpp.voltage_v
            )
        except OperatingRangeError:
            continue
        if available <= 0.0:
            continue
        f = processor.frequency_for_power(float(v), available)
        if f <= 0.0:
            continue
        p_proc = float(processor.power(float(v), f))
        try:
            extracted = regulator.input_power(
                float(v), p_proc, v_in=mpp.voltage_v
            )
        except OperatingRangeError:
            continue
        if best is None or f > best.frequency_hz:
            best = OperatingPoint(
                processor_voltage_v=float(v),
                frequency_hz=f,
                delivered_power_w=p_proc,
                extracted_power_w=extracted,
                node_voltage_v=mpp.voltage_v,
                regulator_name=regulator_name,
                bypassed=False,
            )
    if best is None:
        raise InfeasibleOperatingPointError(
            f"{regulator_name}: no feasible operating point at "
            f"irradiance {irradiance}"
        )
    return best


def reference_best_point(optimizer, regulator_name, irradiance):
    candidates = []
    try:
        candidates.append(
            reference_regulated_point(optimizer, regulator_name, irradiance)
        )
    except InfeasibleOperatingPointError:
        pass
    try:
        candidates.append(reference_unregulated_point(optimizer, irradiance))
    except InfeasibleOperatingPointError:
        pass
    if not candidates:
        raise InfeasibleOperatingPointError(
            f"no operating point at all at irradiance {irradiance}"
        )
    return max(candidates, key=lambda p: p.frequency_hz)


def reference_output_curve(regulator, voltages, p_in, v_in):
    powers = np.full(len(voltages), np.nan)
    for i, v in enumerate(voltages):
        try:
            powers[i] = regulator.max_output_power(float(v), p_in, v_in=v_in)
        except OperatingRangeError:
            continue
    return powers


def outcome(scan):
    """``repr`` of the point, or the infeasibility message."""
    try:
        return repr(scan())
    except InfeasibleOperatingPointError as exc:
        return f"infeasible: {exc}"


def assert_same_bits(actual, expected):
    """Equal doubles element by element, NaN exactly where expected."""
    np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
    assert actual.tobytes() == expected.tobytes()


def derated_system(activity, derating):
    base = paper_system()
    system = EnergyHarvestingSoC(
        cell=base.cell,
        processor=base.processor.with_activity(activity),
        regulators=base.regulators,
    )
    for regulator in system.regulators.values():
        regulator.set_efficiency_derating(derating)
    return system


#: Irradiance at which the paper cell's open-circuit voltage crosses the
#: processor's 0.15 V minimum: the edge of the bypass scan's domain.
VOC_EDGE_IRRADIANCE = 0.001426427809945035

irradiances = st.one_of(
    st.just(0.0),
    st.just(VOC_EDGE_IRRADIANCE),
    st.floats(0.9 * VOC_EDGE_IRRADIANCE, 0.05),
    st.floats(0.0, 1.6),
)
REGULATOR_NAMES = ("ldo", "sc", "buck", "bypass")


class TestArrayPassMatchesReference:
    @given(
        irradiance=irradiances,
        derating=st.floats(0.3, 1.0),
        activity=st.floats(0.05, 2.0),
        grid_points=st.integers(16, 300),
        regulator_name=st.sampled_from(REGULATOR_NAMES),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_scans_match_point_by_point_loops(
        self, irradiance, derating, activity, grid_points, regulator_name
    ):
        optimizer = OperatingPointOptimizer(
            derated_system(activity, derating), grid_points=grid_points
        )
        assert outcome(
            lambda: optimizer.unregulated_point(irradiance)
        ) == outcome(lambda: reference_unregulated_point(optimizer, irradiance))
        assert outcome(
            lambda: optimizer.regulated_point(regulator_name, irradiance)
        ) == outcome(
            lambda: reference_regulated_point(
                optimizer, regulator_name, irradiance
            )
        )
        assert outcome(
            lambda: optimizer.best_point(regulator_name, irradiance)
        ) == outcome(
            lambda: reference_best_point(optimizer, regulator_name, irradiance)
        )

    @pytest.mark.parametrize("regulator_name", REGULATOR_NAMES)
    @pytest.mark.parametrize("irradiance", [0.05, 0.25, 1.0, 1.5])
    def test_output_power_curve_matches_loop(self, regulator_name, irradiance):
        """Default grid and an explicit grid reaching far out of range."""
        system = paper_system()
        optimizer = OperatingPointOptimizer(system)
        regulator = system.regulator(regulator_name)
        mpp = system.mpp(irradiance)
        voltages = np.concatenate(
            [
                np.linspace(-0.1, 2.5, 131),
                [regulator.min_output_v, regulator.max_output_v, mpp.voltage_v],
            ]
        )
        for grid in (None, voltages):
            out_v, out_p = optimizer.output_power_curve(
                regulator_name, irradiance, grid
            )
            assert_same_bits(
                out_p,
                reference_output_curve(
                    regulator, out_v, mpp.power_w, mpp.voltage_v
                ),
            )


def scalar_or_nan(regulator, v_out, p_in, v_in):
    try:
        return regulator.max_output_power(v_out, p_in, v_in=v_in)
    except OperatingRangeError:
        return float("nan")


class TestMaxOutputPowerGrid:
    @given(
        p_in=st.one_of(st.just(0.0), st.floats(0.0, 0.03)),
        v_in=st.one_of(st.none(), st.floats(0.05, 1.6)),
        derating=st.floats(0.3, 1.0),
        regulator_name=st.sampled_from(REGULATOR_NAMES),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_grid_equals_scalar_per_element(
        self, p_in, v_in, derating, regulator_name
    ):
        """NaN exactly where the scalar method raises, else equal bits.

        The grid spans beyond every converter's range and includes each
        range edge, the LDO dropout edge and the SC band edges, where
        the scalar comparisons flip.
        """
        regulator = paper_system().regulator(regulator_name)
        regulator.set_efficiency_derating(derating)
        resolved = regulator.nominal_input_v if v_in is None else v_in
        edges = [regulator.min_output_v, regulator.max_output_v, resolved]
        edges += [
            float(ratio) * resolved for ratio in getattr(regulator, "ratios", ())
        ]
        edges += [resolved - getattr(regulator, "dropout_v", 0.0)]
        voltages = np.concatenate(
            [np.linspace(-0.05, 2.2, 181), edges, np.nextafter(edges, 0.0)]
        )
        grid = regulator.max_output_power_grid(voltages, p_in, v_in=v_in)
        expected = np.array(
            [scalar_or_nan(regulator, float(v), p_in, v_in) for v in voltages]
        )
        assert_same_bits(grid, expected)

    @pytest.mark.parametrize("regulator_name", REGULATOR_NAMES)
    @pytest.mark.parametrize(("p_in", "v_in"), [(-1e-3, 1.2), (5e-3, 0.0)])
    def test_invalid_scalar_arguments_give_all_nan(
        self, regulator_name, p_in, v_in
    ):
        """A negative budget or a dead input makes every point raise."""
        regulator = paper_system().regulator(regulator_name)
        with pytest.raises(OperatingRangeError):
            regulator.max_output_power(0.5, p_in, v_in=v_in)
        grid = regulator.max_output_power_grid(
            np.array([0.3, 0.5, 0.7]), p_in, v_in=v_in
        )
        assert np.isnan(grid).all()

    def test_buck_closed_form_needs_libm_pow(self):
        """Why the buck converter keeps the per-point base loop.

        Its closed form takes a square root as Python ``x ** 0.5``,
        i.e. libm ``pow``.  numpy's ``arr ** 0.5``, ``np.power`` and
        ``np.sqrt`` all agree with each other but not always with
        ``pow``: at irradiance 1.04, grid index 207 of the regulated
        scan differs by 1 ulp.  An array closed form would move that
        point, so buck (and bypass, with the same root) inherit the
        base ``max_output_power_grid`` loop and stay bit-identical.
        """
        system = paper_system()
        buck = system.regulator("buck")
        mpp = system.mpp(1.04)
        grid = np.linspace(0.25, min(0.85, mpp.voltage_v), 240)
        v = float(grid[207])
        budget = buck.derate_available_power(mpp.power_w) - buck.fixed.power(
            mpp.voltage_v
        )
        a = buck.conduction.resistance_ohm / (v * v)
        radicand = 1.0 + 4.0 * a * budget
        assert radicand**0.5 != float(np.sqrt(radicand))
        assert float(np.sqrt(radicand)) == (np.array([radicand]) ** 0.5)[0]
        assert_same_bits(
            buck.max_output_power_grid(grid, mpp.power_w, v_in=mpp.voltage_v),
            reference_output_curve(buck, grid, mpp.power_w, mpp.voltage_v),
        )
        assert buck.max_output_power_grid(
            grid[207:208], mpp.power_w, v_in=mpp.voltage_v
        )[0] == (-1.0 + radicand**0.5) / (2.0 * a)
