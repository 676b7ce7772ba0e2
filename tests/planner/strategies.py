"""Shared hypothesis strategies for the planner invariant tests.

The DP's theorems (value monotone in stored energy, oracle bounding
every admissible policy, forward pass matching the value function) are
properties of *any* action table with pinned, state-independent
energetics -- not just the one built from the paper's models.  The
strategies here generate random tables and income series on a small
grid so the invariants are exercised far outside the physical corner
the benchmarks live in.
"""

import numpy as np
from hypothesis import strategies as st

from repro.planner.dp import CHARGE_ACTION, EnergyGrid, PlannerAction
from repro.units import mega_hertz

#: A fixed small grid keeps example shrinking fast; capacity 1.0 makes
#: draws/incomes directly interpretable as grid fractions.
GRID = EnergyGrid(capacity_j=1.0, levels=24)


@st.composite
def planner_actions(draw):
    """A random action table: charge plus 1-4 work actions."""
    count = draw(st.integers(min_value=1, max_value=4))
    actions = [CHARGE_ACTION]
    for index in range(count):
        cost = draw(
            st.floats(
                min_value=0.0, max_value=0.8,
                allow_nan=False, allow_infinity=False,
            )
        )
        margin = draw(
            st.floats(
                min_value=0.0, max_value=0.3,
                allow_nan=False, allow_infinity=False,
            )
        )
        cycles = float(draw(st.integers(min_value=0, max_value=1000)))
        actions.append(
            PlannerAction(
                name=f"work{index}",
                mode="bypass" if index % 2 else "regulated",
                processor_voltage_v=0.5,
                frequency_hz=mega_hertz(1),
                draw_j=cost,
                cycles=cycles,
                min_energy_j=cost + margin,
            )
        )
    return tuple(actions)


#: A random income for one slot (non-negative).
slot_incomes = st.floats(
    min_value=0.0, max_value=0.6, allow_nan=False, allow_infinity=False,
)


@st.composite
def income_series(draw):
    """A random per-slot income array (1-12 slots, non-negative)."""
    slots = draw(st.integers(min_value=1, max_value=12))
    values = draw(st.lists(slot_incomes, min_size=slots, max_size=slots))
    return np.array(values, dtype=float)


#: A random initial stored energy within the grid.
initial_energies = st.floats(
    min_value=0.0, max_value=GRID.capacity_j,
    allow_nan=False, allow_infinity=False,
)
