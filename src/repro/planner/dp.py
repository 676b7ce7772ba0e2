"""Dynamic-programming schedule solver over (time-slot, stored-energy).

The paper's sprinting scheduler (Section VI-B) is a greedy
single-discharge heuristic; ROADMAP item 2 asks for the global view:
given a slotted energy-income forecast, choose charge / sprint-at-a-
DVFS-level / bypass per slot to maximize the cycles retired by the end
of the horizon.  This module solves that exactly on a quantized grid:

* **state**: ``(slot, stored-energy level)``; energy levels are an
  even grid over ``[0, capacity]``, transitions floor-quantize back
  onto the grid (the conservative direction -- the plan never assumes
  energy it might not have);
* **actions**: pinned *state-independent* energetics -- each action
  carries a fixed per-slot store draw, cycle reward and a feasibility
  threshold on stored energy.  State independence is what makes the
  value function provably monotone non-decreasing in stored energy
  (more banked energy can only unlock actions, never worsen a
  transition), the invariant the hypothesis suite checks;
* **solver**: backward value iteration, one ``(actions, levels)``
  array pass per slot (:class:`BellmanBackup`), with deterministic
  *work-first* tie-breaking -- among equal-value actions prefer the
  one retiring more cycles this slot, then the lower draw, then table
  order.  Deferring work is only ever chosen
  when it strictly beats working now; that hedges the executed plan
  against income that fails to materialize (a receding-horizon
  controller that charges on a tie bets on a forecast, one that works
  on a tie banks the cycles).  A forward pass then extracts the
  executable plan from the initial state.

Cycle rewards are integer-valued floats (cycles per slot are floored),
so every value-function entry and every realized cycle total is an
exact integer sum -- the oracle-bounds invariant (oracle >= receding
horizon, oracle >= greedy) holds exactly, not just to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.system import EnergyHarvestingSoC
from repro.errors import ModelParameterError

#: Canonical action modes (mirrors the simulator's decision modes).
ACTION_MODES = ("halt", "regulated", "bypass")


@dataclass(frozen=True)
class PlannerAction:
    """One schedulable action with pinned per-slot energetics.

    ``draw_j`` is the energy the action takes out of the store over a
    full slot, ``cycles`` the (integer-valued) cycles it retires, and
    ``min_energy_j`` the stored energy required for the action to be
    feasible at all.  None of these depend on the state -- that
    independence is the monotonicity theorem's load-bearing wall.
    """

    name: str
    mode: str
    processor_voltage_v: float
    frequency_hz: float
    draw_j: float
    cycles: float
    min_energy_j: float

    def __post_init__(self) -> None:
        if self.mode not in ACTION_MODES:
            raise ModelParameterError(
                f"mode must be one of {ACTION_MODES}, got {self.mode!r}"
            )
        if self.draw_j < 0.0:
            raise ModelParameterError(
                f"{self.name}: draw must be >= 0, got {self.draw_j}"
            )
        if self.cycles < 0.0:
            raise ModelParameterError(
                f"{self.name}: cycles must be >= 0, got {self.cycles}"
            )
        if self.cycles != math.floor(self.cycles):
            raise ModelParameterError(
                f"{self.name}: cycles must be integer-valued "
                f"(exact value-function sums), got {self.cycles}"
            )
        if self.min_energy_j < self.draw_j:
            raise ModelParameterError(
                f"{self.name}: feasibility threshold {self.min_energy_j} "
                f"below the draw {self.draw_j} would let the store go "
                "negative"
            )


@dataclass(frozen=True)
class EnergyGrid:
    """Quantized stored-energy axis: ``levels`` points over [0, cap].

    Quantization floors (`index_of`), so a continuous trajectory
    mapped onto the grid never credits energy the store does not
    hold; the error per transition is bounded by one step,
    ``capacity_j / (levels - 1)``.
    """

    capacity_j: float
    levels: int

    def __post_init__(self) -> None:
        if self.capacity_j <= 0.0:
            raise ModelParameterError(
                f"capacity must be positive, got {self.capacity_j}"
            )
        if self.levels < 2:
            raise ModelParameterError(
                f"need at least 2 energy levels, got {self.levels}"
            )

    @property
    def step_j(self) -> float:
        """Energy width of one quantization step."""
        return self.capacity_j / (self.levels - 1)

    def level_energies(self) -> np.ndarray:
        """The grid's energy values, ascending (``levels`` entries)."""
        return np.arange(self.levels) * self.step_j

    def index_of(self, energy_j: float) -> int:
        """Floor-quantize an energy onto the grid (clamped)."""
        raw = int(math.floor(energy_j / self.step_j))
        return min(max(raw, 0), self.levels - 1)

    def indices_of(self, energies_j: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of`.

        :meth:`BellmanBackup.row` writes the same floor rule inline for
        its non-negative energies (a truncating cast and the top clamp
        only): one call here costs about 11 us against 4.5 us inline,
        a quarter of a row.  A change to the rule changes both.
        """
        raw = np.floor(energies_j / self.step_j).astype(np.int64)
        return np.clip(raw, 0, self.levels - 1)

    def energy_at(self, index: int) -> float:
        """Energy value of grid level ``index``."""
        if not 0 <= index < self.levels:
            raise ModelParameterError(
                f"level {index} outside [0, {self.levels})"
            )
        return float(index * self.step_j)


@dataclass(frozen=True)
class PlannerSpec:
    """Grid and action-ladder shape of one planner instance.

    ``slot_s`` is the DP time quantum; ``levels`` the stored-energy
    resolution; ``grid_voltage_v`` the node voltage whose ``CV^2/2``
    energy tops the grid; ``dvfs_points`` the number of regulated
    DVFS rungs sampled across the regulator/processor window;
    ``bypass_voltage_v`` the pinned voltage at which the bypass
    action's energetics are evaluated (the paper's end-of-discharge
    regime); ``reserve_j`` an extra feasibility margin kept in the
    store on top of each action's own draw.
    """

    slot_s: float = 2e-3
    levels: int = 192
    grid_voltage_v: float = 1.6
    dvfs_points: int = 4
    bypass_voltage_v: float = 0.5
    reserve_j: float = 0.0

    def __post_init__(self) -> None:
        if self.slot_s <= 0.0:
            raise ModelParameterError(
                f"slot width must be positive, got {self.slot_s}"
            )
        if self.levels < 2:
            raise ModelParameterError(
                f"need at least 2 energy levels, got {self.levels}"
            )
        if self.grid_voltage_v <= 0.0:
            raise ModelParameterError(
                f"grid voltage must be positive, got {self.grid_voltage_v}"
            )
        if self.dvfs_points < 1:
            raise ModelParameterError(
                f"need at least one DVFS point, got {self.dvfs_points}"
            )
        if self.bypass_voltage_v <= 0.0:
            raise ModelParameterError(
                f"bypass voltage must be positive, got "
                f"{self.bypass_voltage_v}"
            )
        if self.reserve_j < 0.0:
            raise ModelParameterError(
                f"reserve must be >= 0, got {self.reserve_j}"
            )


#: The always-feasible fallback: halt the clock and bank the income.
CHARGE_ACTION = PlannerAction(
    name="charge",
    mode="halt",
    processor_voltage_v=0.0,
    frequency_hz=0.0,
    draw_j=0.0,
    cycles=0.0,
    min_energy_j=0.0,
)


def build_actions(
    system: EnergyHarvestingSoC,
    regulator_name: str,
    spec: "PlannerSpec | None" = None,
) -> "Tuple[Tuple[PlannerAction, ...], EnergyGrid]":
    """Derive the action table and energy grid from a system's models.

    Actions come out in canonical order -- charge, regulated DVFS
    rungs ascending voltage, bypass -- the table order the solver's
    work-first tie-break falls back to last.  Run
    rungs draw the regulator's *input* power for the processor's load
    at each sampled voltage (conversion loss included); the bypass
    action draws raw processor power at the pinned bypass voltage (no
    conversion loss -- why it wins when the store runs low).
    """
    spec = spec or PlannerSpec()
    regulator = system.regulator(regulator_name)
    processor = system.processor
    lo = max(regulator.min_output_v, processor.min_operating_v)
    hi = min(regulator.max_output_v, processor.max_operating_v)
    if lo >= hi:
        raise ModelParameterError(
            f"regulator [{regulator.min_output_v}, "
            f"{regulator.max_output_v}] V and processor "
            f"[{processor.min_operating_v}, {processor.max_operating_v}] V "
            "windows do not overlap"
        )
    actions: "List[PlannerAction]" = [CHARGE_ACTION]
    if spec.dvfs_points == 1:
        rungs = [hi]
    else:
        rungs = list(np.linspace(lo, hi, spec.dvfs_points))
    for v_out in rungs:
        v = float(v_out)
        f = processor.max_frequency(v)
        p_proc = processor.power(v, f)
        p_in = regulator.input_power(v, p_proc)
        draw = p_in * spec.slot_s
        actions.append(
            PlannerAction(
                name=f"run@{v:.3f}V",
                mode="regulated",
                processor_voltage_v=v,
                frequency_hz=f,
                draw_j=draw,
                cycles=float(math.floor(f * spec.slot_s)),
                min_energy_j=draw + spec.reserve_j,
            )
        )
    v_b = min(
        max(spec.bypass_voltage_v, processor.min_operating_v),
        processor.max_operating_v,
    )
    f_b = processor.max_frequency(v_b)
    draw_b = processor.power(v_b, f_b) * spec.slot_s
    actions.append(
        PlannerAction(
            name=f"bypass@{v_b:.3f}V",
            mode="bypass",
            processor_voltage_v=v_b,
            frequency_hz=f_b,
            draw_j=draw_b,
            cycles=float(math.floor(f_b * spec.slot_s)),
            min_energy_j=draw_b + spec.reserve_j,
        )
    )
    capacity = 0.5 * system.node_capacitance_f * spec.grid_voltage_v**2
    return tuple(actions), EnergyGrid(capacity_j=capacity, levels=spec.levels)


@dataclass(frozen=True)
class PlanStep:
    """One slot of an extracted plan (predicted, on-grid state)."""

    slot: int
    start_s: float
    action: PlannerAction
    energy_before_j: float
    cumulative_cycles: float


@dataclass(frozen=True, eq=False)
class Plan:
    """A solved schedule plus the full value function behind it.

    ``expected_cycles`` is ``V[0]`` at the quantized initial state;
    ``value`` is the ``(slots + 1, levels)`` value function and
    ``policy`` the ``(slots, levels)`` optimal-action index table --
    kept so a receding-horizon executor (or a test) can interrogate
    the solution off the realized trajectory.
    """

    slot_s: float
    start_s: float
    steps: "Tuple[PlanStep, ...]"
    expected_cycles: float
    final_energy_j: float
    actions: "Tuple[PlannerAction, ...]"
    grid: EnergyGrid
    value: np.ndarray
    policy: np.ndarray

    @property
    def slots(self) -> int:
        """Number of slots in the plan."""
        return len(self.steps)

    @property
    def cells(self) -> int:
        """DP cells evaluated: slots x levels x actions."""
        return self.slots * self.grid.levels * len(self.actions)

    def action_at(self, slot: int) -> PlannerAction:
        """The planned action for ``slot`` (clamped to the horizon)."""
        index = min(max(slot, 0), len(self.steps) - 1)
        return self.steps[index].action


def _validate_inputs(
    income_j: np.ndarray,
    actions: "Sequence[PlannerAction]",
    initial_energy_j: float,
) -> None:
    if len(income_j) == 0:
        raise ModelParameterError("need at least one income slot")
    if np.any(np.asarray(income_j) < 0.0):
        raise ModelParameterError("income must be >= 0 in every slot")
    if not actions:
        raise ModelParameterError("need at least one action")
    if not any(a.min_energy_j == 0.0 and a.draw_j == 0.0 for a in actions):
        raise ModelParameterError(
            "action table needs an always-feasible zero-draw action "
            "(charge) so every state has a successor"
        )
    if initial_energy_j < 0.0:
        raise ModelParameterError(
            f"initial energy must be >= 0, got {initial_energy_j}"
        )


class BellmanBackup:
    """One slot of backward induction over a fixed action table and grid.

    :meth:`row` maps the next slot's value row and this slot's income
    to this slot's ``(value_row, policy_row)``, evaluating every
    (action, level) pair as one ``(actions, levels)`` array.
    :func:`solve_plan` runs it once per slot; a receding-horizon
    executor runs it once per replan, against the cached value row of
    the forecast's solve, when only the arriving slot's income changed.
    """

    def __init__(
        self, actions: "Sequence[PlannerAction]", grid: EnergyGrid
    ) -> None:
        self.grid = grid
        # Work-first tie-break: scan actions by descending immediate
        # cycles (then ascending draw, then table order) so np.argmax's
        # first-occurrence picks the hardest-working action among ties.
        # The action rows below are stored in that order.
        self._order = np.array(
            sorted(
                range(len(actions)),
                key=lambda a: (-actions[a].cycles, actions[a].draw_j, a),
            ),
            dtype=np.int64,
        )
        ordered = [actions[a] for a in self._order]
        energies = grid.level_energies()
        draws = np.array([a.draw_j for a in ordered])[:, None]
        thresholds = np.array([a.min_energy_j for a in ordered])[:, None]
        # ``(energies - draw) + income`` is the transition's operation
        # order; the first difference does not depend on the slot.
        self._net_j = energies - draws
        self._infeasible = ~(energies >= thresholds)
        self._rewards = np.array([a.cycles for a in ordered])[:, None]
        self._columns = np.arange(grid.levels)
        self._step_j = grid.step_j
        self._top = grid.levels - 1

    def row(
        self, next_value: np.ndarray, income_j: float
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """``(value_row, policy_row)`` of a slot with income ``income_j``."""
        nxt = self._net_j + income_j
        # After ``fmax`` every ``nxt`` is >= 0 (a NaN goes to 0.0, the
        # level ``EnergyGrid.indices_of`` clamps it to), so
        # ``nxt / step`` is >= 0: the cast truncates it to its floor,
        # and the lower index clamp can never fire.  Only the top one
        # is kept.
        np.fmax(nxt, 0.0, out=nxt)
        np.minimum(nxt, self.grid.capacity_j, out=nxt)
        index = (nxt / self._step_j).astype(np.int64)
        np.minimum(index, self._top, out=index)
        q = self._rewards + next_value[index]
        q[self._infeasible] = -np.inf
        best = np.argmax(q, axis=0)
        return q[best, self._columns], self._order[best]


def solve_plan(
    income_j: np.ndarray,
    actions: "Sequence[PlannerAction]",
    grid: EnergyGrid,
    initial_energy_j: float,
    slot_s: float,
    start_s: float = 0.0,
) -> Plan:
    """Backward value iteration + forward plan extraction.

    ``V[t][e]`` is the maximum cycles retirable from slot ``t`` onward
    with stored-energy level ``e``.  Transitions clip to
    ``[0, capacity]`` and floor-quantize onto the grid; infeasible
    actions score ``-inf``; ties break work-first (most immediate
    cycles, then lowest draw, then table order).  Each slot is one
    :meth:`BellmanBackup.row`.  The forward pass replays
    the policy from the quantized initial state with the *same*
    transition arithmetic, so the realized trajectory is exactly a
    path of the solved MDP and its cycle total is exactly
    ``expected_cycles``.
    """
    income = np.asarray(income_j, dtype=float)
    _validate_inputs(income, actions, initial_energy_j)
    slots = len(income)
    value = np.zeros((slots + 1, grid.levels))
    policy = np.zeros((slots, grid.levels), dtype=np.int64)
    backup = BellmanBackup(actions, grid)
    for t in range(slots - 1, -1, -1):
        value[t], policy[t] = backup.row(value[t + 1], income[t])

    level = grid.index_of(initial_energy_j)
    steps: "List[PlanStep]" = []
    cumulative = 0.0
    for t in range(slots):
        action = actions[int(policy[t, level])]
        energy_before = grid.energy_at(level)
        cumulative += action.cycles
        steps.append(
            PlanStep(
                slot=t,
                start_s=start_s + t * slot_s,
                action=action,
                energy_before_j=energy_before,
                cumulative_cycles=cumulative,
            )
        )
        nxt = min(
            max(energy_before - action.draw_j + income[t], 0.0),
            grid.capacity_j,
        )
        level = grid.index_of(nxt)
    return Plan(
        slot_s=slot_s,
        start_s=start_s,
        steps=tuple(steps),
        expected_cycles=float(value[0, grid.index_of(initial_energy_j)]),
        final_energy_j=grid.energy_at(level),
        actions=tuple(actions),
        grid=grid,
        value=value,
        policy=policy,
    )


def greedy_plan(
    income_j: np.ndarray,
    actions: "Sequence[PlannerAction]",
    grid: EnergyGrid,
    initial_energy_j: float,
    slot_s: float,
    start_s: float = 0.0,
) -> Plan:
    """The myopic baseline in the same action space and grid world.

    Per slot: among feasible actions, take the one with the highest
    immediate cycle reward (ties to lower draw, then table order --
    the solver's own work-first order) -- the planning-free
    policy a greedy scheduler implements.  Returned as a :class:`Plan`
    (with an empty value function) so downstream comparison code
    treats oracle, receding-horizon and greedy uniformly.
    """
    income = np.asarray(income_j, dtype=float)
    _validate_inputs(income, actions, initial_energy_j)
    slots = len(income)
    level = grid.index_of(initial_energy_j)
    steps: "List[PlanStep]" = []
    cumulative = 0.0
    for t in range(slots):
        energy_before = grid.energy_at(level)
        best_index = 0
        best_key = (np.inf, np.inf, np.inf)
        for a_index, action in enumerate(actions):
            if energy_before >= action.min_energy_j:
                key = (-action.cycles, action.draw_j, float(a_index))
                if key < best_key:
                    best_key = key
                    best_index = a_index
        action = actions[best_index]
        cumulative += action.cycles
        steps.append(
            PlanStep(
                slot=t,
                start_s=start_s + t * slot_s,
                action=action,
                energy_before_j=energy_before,
                cumulative_cycles=cumulative,
            )
        )
        nxt = min(
            max(energy_before - action.draw_j + income[t], 0.0),
            grid.capacity_j,
        )
        level = grid.index_of(nxt)
    return Plan(
        slot_s=slot_s,
        start_s=start_s,
        steps=tuple(steps),
        expected_cycles=cumulative,
        final_energy_j=grid.energy_at(level),
        actions=tuple(actions),
        grid=grid,
        value=np.zeros((0, grid.levels)),
        policy=np.zeros((0, grid.levels), dtype=np.int64),
    )


def realized_cycles(
    action_sequence: "Iterable[PlannerAction]",
    income_j: np.ndarray,
    grid: EnergyGrid,
    initial_energy_j: float,
) -> "Tuple[float, float]":
    """Replay an action sequence against a (true) income series.

    Returns ``(total_cycles, final_energy_j)`` under the grid world's
    transition arithmetic.  Infeasible actions degrade to charge
    (clock gated, nothing retired) rather than faulting -- exactly how
    the adapter degrades when a plan meets a poorer reality.
    """
    income = np.asarray(income_j, dtype=float)
    level = grid.index_of(initial_energy_j)
    total = 0.0
    for t, action in enumerate(action_sequence):
        if t >= len(income):
            break
        energy_before = grid.energy_at(level)
        if energy_before >= action.min_energy_j:
            total += action.cycles
            drawn = action.draw_j
        else:
            drawn = 0.0
        nxt = min(
            max(energy_before - drawn + income[t], 0.0), grid.capacity_j
        )
        level = grid.index_of(nxt)
    return total, grid.energy_at(level)
