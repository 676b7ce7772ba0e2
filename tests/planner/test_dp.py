"""DP solver invariants: monotonicity, exactness, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import paper_system
from repro.errors import ModelParameterError
from repro.planner.dp import (
    CHARGE_ACTION,
    BellmanBackup,
    EnergyGrid,
    PlannerAction,
    PlannerSpec,
    build_actions,
    greedy_plan,
    realized_cycles,
    solve_plan,
)
from repro.planner.forecast import EnergyForecast
from tests.planner.strategies import (
    GRID,
    income_series,
    initial_energies,
    planner_actions,
    slot_incomes,
)


@pytest.fixture(scope="module")
def system():
    return paper_system()


@pytest.fixture(scope="module")
def paper_table(system):
    return build_actions(system, "sc")


class TestActionValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ModelParameterError):
            PlannerAction("x", "sprint", 0.5, 1e6, 0.0, 0.0, 0.0)

    def test_rejects_negative_draw(self):
        with pytest.raises(ModelParameterError):
            PlannerAction("x", "halt", 0.0, 0.0, -1e-6, 0.0, 0.0)

    def test_rejects_fractional_cycles(self):
        # Integer-valued rewards are what make value sums exact.
        with pytest.raises(ModelParameterError):
            PlannerAction("x", "bypass", 0.5, 1e6, 1e-6, 10.5, 1e-6)

    def test_rejects_threshold_below_draw(self):
        with pytest.raises(ModelParameterError):
            PlannerAction("x", "bypass", 0.5, 1e6, 2e-6, 10.0, 1e-6)


class TestEnergyGrid:
    def test_validation(self):
        with pytest.raises(ModelParameterError):
            EnergyGrid(capacity_j=0.0, levels=8)
        with pytest.raises(ModelParameterError):
            EnergyGrid(capacity_j=1.0, levels=1)

    def test_floor_quantization_never_credits_energy(self):
        grid = EnergyGrid(capacity_j=1.0, levels=11)
        for energy in np.linspace(0.0, 1.0, 97):
            level = grid.index_of(float(energy))
            assert grid.energy_at(level) <= energy + 1e-12

    def test_indices_of_matches_index_of(self):
        grid = EnergyGrid(capacity_j=1.0, levels=17)
        energies = np.linspace(-0.2, 1.3, 61)
        vector = grid.indices_of(energies)
        for energy, level in zip(energies, vector):
            assert grid.index_of(float(energy)) == int(level)

    def test_energy_at_rejects_out_of_range(self):
        grid = EnergyGrid(capacity_j=1.0, levels=4)
        with pytest.raises(ModelParameterError):
            grid.energy_at(4)


class TestBuildActions:
    def test_canonical_order(self, paper_table):
        actions, _ = paper_table
        assert actions[0] is CHARGE_ACTION
        assert actions[-1].mode == "bypass"
        run_voltages = [
            a.processor_voltage_v for a in actions if a.mode == "regulated"
        ]
        assert run_voltages == sorted(run_voltages)

    def test_grid_capacity_is_node_energy(self, system, paper_table):
        _, grid = paper_table
        spec = PlannerSpec()
        expected = 0.5 * system.node_capacitance_f * spec.grid_voltage_v**2
        assert grid.capacity_j == expected

    def test_bypass_beats_top_rung_on_cycles_per_joule(self, paper_table):
        # The planner's whole discriminating axis in dim scenarios.
        actions, _ = paper_table
        bypass = actions[-1]
        top = [a for a in actions if a.mode == "regulated"][-1]
        assert bypass.cycles / bypass.draw_j > top.cycles / top.draw_j

    def test_single_dvfs_point_uses_top_voltage(self, system):
        actions, _ = build_actions(
            system, "sc", PlannerSpec(dvfs_points=1)
        )
        runs = [a for a in actions if a.mode == "regulated"]
        assert len(runs) == 1


class TestSolveValidation:
    def test_rejects_empty_income(self, paper_table):
        actions, grid = paper_table
        with pytest.raises(ModelParameterError):
            solve_plan(np.array([]), actions, grid, 0.0, 2e-3)

    def test_rejects_negative_income(self, paper_table):
        actions, grid = paper_table
        with pytest.raises(ModelParameterError):
            solve_plan(np.array([-1e-9]), actions, grid, 0.0, 2e-3)

    def test_rejects_table_without_charge(self, paper_table):
        actions, grid = paper_table
        with pytest.raises(ModelParameterError):
            solve_plan(
                np.array([1e-6]), actions[1:], grid, 0.0, 2e-3
            )

    def test_rejects_negative_initial_energy(self, paper_table):
        actions, grid = paper_table
        with pytest.raises(ModelParameterError):
            solve_plan(np.array([1e-6]), actions, grid, -1e-9, 2e-3)


class TestDeterminism:
    def test_same_inputs_solve_bit_identically(self, paper_table):
        actions, grid = paper_table
        income = np.linspace(0.0, grid.capacity_j / 8, 20)
        first = solve_plan(income, actions, grid, grid.capacity_j / 2, 2e-3)
        second = solve_plan(income, actions, grid, grid.capacity_j / 2, 2e-3)
        assert np.array_equal(first.value, second.value)
        assert np.array_equal(first.policy, second.policy)
        assert first.expected_cycles == second.expected_cycles
        assert [s.action.name for s in first.steps] == [
            s.action.name for s in second.steps
        ]

    def test_work_first_tie_break(self):
        # Zero income, enough energy for exactly one unit of work in
        # either of two slots: deferring ties with acting now, and the
        # work-first order must pick acting now.
        work = PlannerAction("work", "bypass", 0.5, 1e6, 0.5, 100.0, 0.5)
        plan = solve_plan(
            np.zeros(2), (CHARGE_ACTION, work), GRID, 0.6, 1.0
        )
        assert plan.steps[0].action.name == "work"
        assert plan.expected_cycles == 100.0


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(planner_actions(), income_series(), initial_energies)
    def test_value_monotone_in_stored_energy(self, actions, income, e0):
        plan = solve_plan(income, actions, GRID, e0, 1.0)
        diffs = np.diff(plan.value, axis=1)
        assert np.all(diffs >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(planner_actions(), income_series(), initial_energies)
    def test_forward_pass_realizes_the_value_function(
        self, actions, income, e0
    ):
        plan = solve_plan(income, actions, GRID, e0, 1.0)
        realized, final = realized_cycles(
            [s.action for s in plan.steps], income, GRID, e0
        )
        assert realized == plan.expected_cycles
        assert final == plan.final_energy_j

    @settings(max_examples=60, deadline=None)
    @given(planner_actions(), income_series(), initial_energies)
    def test_oracle_bounds_greedy(self, actions, income, e0):
        plan = solve_plan(income, actions, GRID, e0, 1.0)
        greedy = greedy_plan(income, actions, GRID, e0, 1.0)
        realized, _ = realized_cycles(
            [s.action for s in greedy.steps], income, GRID, e0
        )
        assert plan.expected_cycles >= realized

    @settings(max_examples=40, deadline=None)
    @given(planner_actions(), income_series(), initial_energies)
    def test_values_are_exact_integers(self, actions, income, e0):
        # Integer rewards + exact double sums: every finite value-
        # function entry is an integer, which is why the bounds chain
        # can be asserted with == and >= rather than approx.
        plan = solve_plan(income, actions, GRID, e0, 1.0)
        finite = plan.value[np.isfinite(plan.value)]
        assert np.array_equal(finite, np.floor(finite))


class TestSuffixRows:
    """What lets a receding horizon read replans off one solve."""

    @settings(max_examples=60, deadline=None)
    @given(planner_actions(), income_series(), initial_energies)
    def test_suffix_solve_is_the_full_solve_rows(self, actions, income, e0):
        full = solve_plan(income, actions, GRID, e0, 1.0)
        forecast = EnergyForecast(
            slot_s=1.0, start_s=0.0, irradiance=income, income_j=income
        )
        for slot in range(forecast.slots):
            suffix = forecast.suffix(slot)
            part = solve_plan(
                suffix.income_j, actions, GRID, e0, 1.0,
                start_s=suffix.start_s,
            )
            assert np.array_equal(full.value[slot:], part.value)
            assert np.array_equal(full.policy[slot:], part.policy)

    @settings(max_examples=60, deadline=None)
    @given(planner_actions(), income_series(), slot_incomes, initial_energies)
    def test_row_at_actual_income_is_the_effective_suffix_solve(
        self, actions, income, actual, e0
    ):
        # A replan's suffix differs from the forecast only in the
        # arriving slot, so one row against the forecast's cached
        # value row equals the solve of the whole effective suffix.
        full = solve_plan(income, actions, GRID, e0, 1.0)
        backup = BellmanBackup(actions, GRID)
        for slot in range(len(income)):
            effective = np.concatenate(([actual], income[slot + 1:]))
            reference = solve_plan(effective, actions, GRID, e0, 1.0)
            value_row, policy_row = backup.row(full.value[slot + 1], actual)
            assert np.array_equal(value_row, reference.value[0])
            assert np.array_equal(policy_row, reference.policy[0])


def parent_row(actions, grid, next_value, income_j):
    """``BellmanBackup.row`` as first written: action rows in table
    order, copied into work-first order on every call, ``np.clip`` on
    the transition and both clamps on the level index."""
    energies = grid.level_energies()
    draws = np.array([a.draw_j for a in actions])[:, None]
    thresholds = np.array([a.min_energy_j for a in actions])[:, None]
    rewards = np.array([a.cycles for a in actions])[:, None]
    order = np.array(
        sorted(
            range(len(actions)),
            key=lambda a: (-actions[a].cycles, actions[a].draw_j, a),
        ),
        dtype=np.int64,
    )
    nxt = np.clip((energies - draws) + income_j, 0.0, grid.capacity_j)
    q = np.where(
        energies >= thresholds,
        rewards + next_value[grid.indices_of(nxt)],
        -np.inf,
    )
    best = order[np.argmax(q[order], axis=0)]
    return q[best, np.arange(grid.levels)], best


grids = st.builds(
    EnergyGrid,
    capacity_j=st.floats(min_value=0.05, max_value=4.0),
    levels=st.integers(min_value=2, max_value=64),
)
#: Incomes from none to twice the store: many transitions saturate at
#: ``capacity_j`` and land on the top grid level.
saturating_incomes = st.one_of(
    st.floats(min_value=0.0, max_value=8.0),
    st.sampled_from([0.0, 0.05, 0.5, 1.0, 4.0]),
)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLeanRow:
    """The row keeps its action rows in work-first order and clamps the
    level index only at the top; it equals the first version's
    expression bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        planner_actions(),
        grids,
        saturating_incomes,
        st.data(),
    )
    def test_row_equals_the_parent_expression(self, actions, grid, income, data):
        next_value = np.array(
            data.draw(
                st.lists(
                    st.one_of(
                        st.floats(min_value=0.0, max_value=1e9),
                        st.integers(min_value=0, max_value=10**6).map(float),
                    ),
                    min_size=grid.levels,
                    max_size=grid.levels,
                )
            )
        )
        value, policy = BellmanBackup(actions, grid).row(next_value, income)
        expected_value, expected_policy = parent_row(
            actions, grid, next_value, income
        )
        assert same_bits(value, expected_value)
        assert same_bits(policy, expected_policy)

    def test_saturating_income_reaches_the_top_level(self):
        actions = (
            CHARGE_ACTION,
            PlannerAction("work", "bypass", 0.5, 1e6, 0.1, 7.0, 0.1),
        )
        next_value = np.arange(GRID.levels, dtype=float)
        for income in (GRID.capacity_j, 2.0 * GRID.capacity_j, 1e300):
            value, policy = BellmanBackup(actions, GRID).row(next_value, income)
            expected_value, expected_policy = parent_row(
                actions, GRID, next_value, income
            )
            assert same_bits(value, expected_value)
            assert same_bits(policy, expected_policy)
            assert value[-1] == 7.0 + GRID.levels - 1

    def test_nan_income_lands_where_the_lower_clamp_put_it(self):
        actions = (
            CHARGE_ACTION,
            PlannerAction("work", "bypass", 0.5, 1e6, 0.1, 7.0, 0.1),
        )
        next_value = np.arange(GRID.levels, dtype=float) + 1.0
        value, policy = BellmanBackup(actions, GRID).row(next_value, np.nan)
        with np.errstate(invalid="ignore"):
            expected_value, expected_policy = parent_row(
                actions, GRID, next_value, np.nan
            )
        assert same_bits(value, expected_value)
        assert same_bits(policy, expected_policy)

    @settings(max_examples=60, deadline=None)
    @given(planner_actions(), income_series(), grids)
    def test_solve_tables_equal_the_parent_rows(self, actions, income, grid):
        plan = solve_plan(income, actions, grid, 0.0, 1.0)
        value = np.zeros((len(income) + 1, grid.levels))
        policy = np.zeros((len(income), grid.levels), dtype=np.int64)
        for t in range(len(income) - 1, -1, -1):
            value[t], policy[t] = parent_row(actions, grid, value[t + 1], income[t])
        assert same_bits(plan.value, value)
        assert same_bits(plan.policy, policy)

    def test_paper_table_solve_equals_the_parent_rows(self, paper_table, system):
        actions, grid = paper_table
        income = np.linspace(0.0, 2.0 * grid.capacity_j / 5.0, 40)
        plan = solve_plan(income, actions, grid, 0.0, 1e-3)
        value = np.zeros((len(income) + 1, grid.levels))
        policy = np.zeros((len(income), grid.levels), dtype=np.int64)
        for t in range(len(income) - 1, -1, -1):
            value[t], policy[t] = parent_row(actions, grid, value[t + 1], income[t])
        assert same_bits(plan.value, value)
        assert same_bits(plan.policy, policy)
