"""Bit-identity of the batched PV solve vs the scalar solver.

A batch of up to :data:`~repro.fleet.pv.PER_LANE_MAX_LANES` lanes is
solved lane by lane through ``current_scalar``; wider batches take the
array Newton.  Every test below that names a batch size runs on both
sides of that crossover.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelParameterError
import repro.fleet.pv as fleet_pv
from repro.fleet.pv import PER_LANE_MAX_LANES, CellParams, batched_current
from repro.pv.cell import SingleDiodeCell, kxob22_cell
from repro.sim.engine import SimulationConfig
from repro.sim.result import results_bit_identical
from repro.units import micro_seconds

from tests.fleet.scenarios import (
    MATRIX_TRACE,
    Scenario,
    _fig8_mppt_parts,
    run_batch,
    run_scalar,
    short_job,
)

CELL = kxob22_cell()
PARAMS = CellParams.from_cells([CELL])

#: Batch sizes on both sides of the per-lane/array crossover.
BATCH_SIZES = (1, PER_LANE_MAX_LANES, PER_LANE_MAX_LANES + 1, 64)


def _mixed_cells(lanes: int) -> "list[SingleDiodeCell]":
    """Lane-varied cells: temperatures, a zero-Rs cell, a weak shunt."""
    variants = [
        CELL,
        CELL.at_temperature(330.0),
        replace(CELL, series_resistance_ohm=0.0),
        replace(CELL, shunt_resistance_ohm=2e3),
        CELL.at_temperature(280.0),
    ]
    return [variants[k % len(variants)] for k in range(lanes)]


def _lane_points(
    seed: int,
    lanes: int,
    volts: "tuple[float, float]",
    suns: "tuple[float, float]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Seeded per-lane voltages and irradiances drawn from the ranges."""
    rng = np.random.default_rng(seed)
    return rng.uniform(*volts, lanes), rng.uniform(*suns, lanes)


@pytest.fixture
def array_solves(monkeypatch: pytest.MonkeyPatch) -> "list[int]":
    """Batch sizes handed to the array Newton, call by call."""
    sizes: "list[int]" = []
    newton = fleet_pv.newton_current

    def spy(voltage_v: np.ndarray, *args: object) -> np.ndarray:
        sizes.append(int(voltage_v.shape[0]))
        return newton(voltage_v, *args)

    monkeypatch.setattr(fleet_pv, "newton_current", spy)
    return sizes


def _zero_rs_cell() -> SingleDiodeCell:
    return replace(CELL, series_resistance_ohm=0.0)


def test_dense_grid_matches_scalar_bitwise() -> None:
    voc = CELL.open_circuit_voltage(1.0)
    voltages = np.linspace(0.0, 1.1 * voc, 47)
    for irradiance in (0.02, 0.3, 1.0):
        scalar = np.array(
            [CELL.current_scalar(float(v), irradiance) for v in voltages]
        )
        params = CellParams.from_cells([CELL] * len(voltages))
        batched = batched_current(
            params, voltages, np.full(len(voltages), irradiance)
        )
        assert batched.tolist() == scalar.tolist()  # bit-for-bit


def test_zero_series_resistance_closed_form() -> None:
    cell = _zero_rs_cell()
    params = CellParams.from_cells([cell, cell])
    voltages = np.array([0.2, 0.45])
    batched = batched_current(params, voltages, np.array([1.0, 0.4]))
    expected = [
        cell.current_scalar(0.2, 1.0),
        cell.current_scalar(0.45, 0.4),
    ]
    assert batched.tolist() == expected


def test_inactive_lanes_are_masked_out(array_solves: "list[int]") -> None:
    """The solve has no lane mask: a narrow batch solves every lane on
    its own, so a lane's current does not depend on its neighbours."""
    params = CellParams.from_cells([CELL] * 3)
    voltages = np.array([0.4, 0.5, 0.6])
    out = batched_current(params, voltages, np.full(3, 1.0))
    assert out.tolist() == [
        CELL.current_scalar(0.4, 1.0),
        CELL.current_scalar(0.5, 1.0),
        CELL.current_scalar(0.6, 1.0),
    ]
    neighbours = np.array([0.4, 1.2, 0.6])
    moved = batched_current(params, neighbours, np.array([1.0, 0.1, 1.0]))
    assert moved[0] == out[0] and moved[2] == out[2]
    assert array_solves == []


@pytest.mark.parametrize("lanes", BATCH_SIZES)
def test_lanes_match_current_scalar_across_crossover(
    lanes: int, array_solves: "list[int]"
) -> None:
    cells = _mixed_cells(lanes)
    params = CellParams.from_cells(cells)
    assert params is not None
    voltages, irradiance = _lane_points(11, lanes, (0.0, 1.6), (0.0, 1.2))
    out = batched_current(params, voltages, irradiance)
    assert out.tolist() == [
        cell.current_scalar(float(v), float(g))
        for cell, v, g in zip(cells, voltages, irradiance)
    ]
    # The crossover decides the path: array above it, per-lane at it.
    assert array_solves == ([lanes] if lanes > PER_LANE_MAX_LANES else [])


def test_live_count_dropping_below_crossover(
    array_solves: "list[int]",
) -> None:
    """Batches narrowing one lane at a time across the crossover: each
    call picks its path from the batch width alone, and every lane
    stays bit-identical."""
    lanes = PER_LANE_MAX_LANES + 3
    cells = _mixed_cells(lanes)
    voltages, irradiance = _lane_points(7, lanes, (0.2, 1.4), (0.05, 1.0))
    widths = list(range(lanes, lanes - 6, -1))
    for width in widths:
        params = CellParams.from_cells(cells[:width])
        assert params is not None and params.lanes == width
        out = batched_current(params, voltages[:width], irradiance[:width])
        assert out.tolist() == [
            cell.current_scalar(float(v), float(g))
            for cell, v, g in zip(
                cells[:width], voltages[:width], irradiance[:width]
            )
        ]
    assert widths[0] > PER_LANE_MAX_LANES >= widths[-1]
    assert array_solves == [
        width for width in widths if width > PER_LANE_MAX_LANES
    ]


def test_fleet_run_crossing_the_crossover_matches_scalar(
    array_solves: "list[int]",
) -> None:
    """A batch wider than the crossover whose lanes complete one after
    another under ``stop_on_completion`` may stop lanes early, so it
    runs on the scalar engine: no batched solve, and every lane equals
    its scalar run."""
    config = SimulationConfig(
        time_step_s=micro_seconds(10),
        record_every=4,
        stop_on_brownout=False,
        stop_on_completion=True,
    )
    lanes = PER_LANE_MAX_LANES + 2
    scenarios = tuple(
        Scenario(
            f"mppt_{k}",
            config,
            MATRIX_TRACE,
            short_job(_fig8_mppt_parts, 400_000 + 150_000 * k),
        )
        for k in range(lanes)
    )
    simulator, results, _ = run_batch(scenarios)
    assert simulator.control_summary == {
        "lanes": lanes,
        "vectorized": 0,
        "fallback": lanes,
    }
    assert array_solves == []
    assert all(result.completed for result in results)
    for scenario, result in zip(scenarios, results):
        assert results_bit_identical(run_scalar(scenario), result)


def test_negative_irradiance_rejected() -> None:
    """The per-lane path rejects it."""
    _assert_negative_irradiance_rejected(1)


def test_negative_irradiance_rejected_on_array_path() -> None:
    """The array path, above the crossover, rejects it too."""
    _assert_negative_irradiance_rejected(PER_LANE_MAX_LANES + 1)


def _assert_negative_irradiance_rejected(lanes: int) -> None:
    params = CellParams.from_cells([CELL] * lanes)
    irradiance = np.full(lanes, 0.5)
    irradiance[-1] = -0.1
    with pytest.raises(ModelParameterError, match="irradiance"):
        batched_current(params, np.full(lanes, 0.5), irradiance)


def test_from_cells_requires_single_diode() -> None:
    class OtherCell(SingleDiodeCell):
        pass

    other = OtherCell(
        photo_current_full_sun_a=CELL.photo_current_full_sun_a,
        saturation_current_a=CELL.saturation_current_a,
        ideality_factor=CELL.ideality_factor,
        series_cells=CELL.series_cells,
        series_resistance_ohm=CELL.series_resistance_ohm,
        shunt_resistance_ohm=CELL.shunt_resistance_ohm,
    )
    assert CellParams.from_cells([CELL, other]) is None
    with pytest.raises(ModelParameterError):
        CellParams.from_cells([])


@given(
    voltage=st.floats(min_value=0.0, max_value=1.6),
    irradiance=st.floats(min_value=0.0, max_value=1.5),
)
@settings(max_examples=80, deadline=None)
def test_property_batched_equals_scalar(
    voltage: float, irradiance: float
) -> None:
    assert PARAMS is not None
    batched = batched_current(
        PARAMS, np.array([voltage]), np.array([irradiance])
    )
    assert batched.tolist() == [CELL.current_scalar(voltage, irradiance)]
