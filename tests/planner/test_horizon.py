"""Receding-horizon invariants: oracle bound, perfect-forecast equality."""

import numpy as np
import pytest
from hypothesis import given, settings

import repro.planner.horizon as horizon
from repro.errors import ModelParameterError
from repro.planner.forecast import EnergyForecast
from repro.planner.horizon import execute_receding_horizon
from repro.planner.dp import (
    CHARGE_ACTION,
    BellmanBackup,
    PlannerAction,
    greedy_plan,
    realized_cycles,
    solve_plan,
)
from repro.telemetry.session import TelemetrySession
from tests.planner.strategies import (
    GRID,
    income_series,
    initial_energies,
    planner_actions,
)


#: A fixed two-action table for the non-property tests.
TABLE = (
    CHARGE_ACTION,
    PlannerAction("work", "bypass", 0.5, 1e6, 0.2, 100.0, 0.25),
)


def _forecast(income, start_s=0.0):
    return EnergyForecast(
        slot_s=1.0,
        start_s=start_s,
        irradiance=np.asarray(income, dtype=float),
        income_j=np.asarray(income, dtype=float),
    )


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(planner_actions(), income_series(), initial_energies)
    def test_perfect_forecast_reproduces_the_oracle(
        self, actions, income, e0
    ):
        # Bellman's principle with a deterministic tie-break: the
        # receding trajectory is the oracle trajectory, bit for bit.
        oracle = solve_plan(income, actions, GRID, e0, 1.0)
        receding = execute_receding_horizon(
            _forecast(income), _forecast(income), actions, GRID, e0
        )
        assert receding.total_cycles == oracle.expected_cycles
        assert receding.final_energy_j == oracle.final_energy_j

    @settings(max_examples=60, deadline=None)
    @given(
        planner_actions(),
        income_series(),
        income_series(),
        initial_energies,
    )
    def test_oracle_bounds_any_receding_policy(
        self, actions, income, belief, e0
    ):
        # Whatever the forecast believes, the realized receding
        # trajectory is an admissible policy of the true-income MDP,
        # so the oracle bounds it -- exactly.
        slots = len(income)
        belief = np.resize(belief, slots)
        oracle = solve_plan(income, actions, GRID, e0, 1.0)
        receding = execute_receding_horizon(
            _forecast(income), _forecast(belief), actions, GRID, e0
        )
        assert oracle.expected_cycles >= receding.total_cycles

    @settings(max_examples=40, deadline=None)
    @given(planner_actions(), income_series(), initial_energies)
    def test_perfect_receding_bounds_greedy(self, actions, income, e0):
        receding = execute_receding_horizon(
            _forecast(income), _forecast(income), actions, GRID, e0
        )
        greedy = greedy_plan(income, actions, GRID, e0, 1.0)
        realized, _ = realized_cycles(
            [s.action for s in greedy.steps], income, GRID, e0
        )
        assert receding.total_cycles >= realized


class TestOutcome:
    def test_one_replan_per_slot(self):
        actions = TABLE
        income = np.full(6, 0.1)
        outcome = execute_receding_horizon(
            _forecast(income), _forecast(income), actions, GRID, 0.5
        )
        assert outcome.replans == 6
        assert outcome.slots == 6

    def test_one_solve_and_one_row_per_slot(self, monkeypatch):
        # O(slots) work: one solve of the forecast (one row per slot)
        # plus one row per replan -- not a suffix solve per slot.
        solves, rows = [], []
        original_row = BellmanBackup.row

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return solve_plan(*args, **kwargs)

        def counting_row(self, next_value, income_j):
            rows.append(income_j)
            return original_row(self, next_value, income_j)

        monkeypatch.setattr(horizon, "solve_plan", counting_solve)
        monkeypatch.setattr(BellmanBackup, "row", counting_row)
        actual = np.linspace(0.0, 0.3, 9)
        belief = np.full(9, 0.1)
        outcome = execute_receding_horizon(
            _forecast(actual), _forecast(belief), TABLE, GRID, 0.5
        )
        assert len(solves) == 1
        assert len(rows) == 2 * outcome.slots
        # The replan rows run at the actual incomes, in slot order.
        assert rows[outcome.slots:] == list(actual)

    def test_rejects_negative_actual_income(self):
        with pytest.raises(ModelParameterError):
            execute_receding_horizon(
                _forecast([0.1, -0.1]), _forecast([0.1, 0.1]),
                TABLE, GRID, 0.5,
            )

    def test_forecast_bias_is_belief_minus_actual(self):
        actions = TABLE
        actual = np.full(4, 0.1)
        belief = np.full(4, 0.15)
        outcome = execute_receding_horizon(
            _forecast(actual), _forecast(belief), actions, GRID, 0.5
        )
        assert outcome.forecast_bias_j() == pytest.approx(4 * 0.05)

    def test_telemetry_counts_replans(self):
        actions = TABLE
        income = np.full(5, 0.1)
        session = TelemetrySession()
        execute_receding_horizon(
            _forecast(income),
            _forecast(income),
            actions,
            GRID,
            0.5,
            telemetry=session,
        )
        assert session.metrics.as_dict()["planner.replans"] == 5.0

    def test_rejects_slot_count_mismatch(self):
        actions = TABLE
        with pytest.raises(ModelParameterError):
            execute_receding_horizon(
                _forecast(np.full(4, 0.1)),
                _forecast(np.full(5, 0.1)),
                actions,
                GRID,
                0.5,
            )

    def test_rejects_slot_width_mismatch(self):
        actions = TABLE
        actual = _forecast(np.full(4, 0.1))
        belief = EnergyForecast(
            slot_s=0.5,
            start_s=0.0,
            irradiance=np.full(4, 0.1),
            income_j=np.full(4, 0.1),
        )
        with pytest.raises(ModelParameterError):
            execute_receding_horizon(actual, belief, actions, GRID, 0.5)
