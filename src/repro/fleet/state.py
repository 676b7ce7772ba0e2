"""Structure-of-arrays run state for the batched fleet engine.

:class:`FleetState` is the lane-indexed snapshot of everything the
scalar engine keeps as loop-local scalars: capacitor voltages, the
controller-facing actuation memory (previous processor voltage, DVFS
transition bookkeeping), brownout/recovery flags, per-lane termination
bookkeeping, and the materialized per-node fault-draw parameters
(capacitance fade, leakage, ESR -- the RNG-derived values a campaign
seed produced).  Sentinels follow numpy conventions: ``NaN`` stands in
for the scalar engine's ``None`` on float fields, ``-1`` on int fields
(mode codes, end steps, seeds).

The dataclass is a plain bag of numpy arrays, so it pickles natively
(the sharded executor ships batches across spawn-safe process
boundaries) and reorders cheaply (:meth:`permuted` -- lane order is
physically meaningless, which ``tests/fleet`` asserts).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Sequence

import numpy as np

from repro.errors import ModelParameterError

#: Code for "no mode yet" in ``prev_mode``/``telemetry_mode`` lanes.
NO_MODE = -1


@dataclass(eq=False)
class FleetState:
    """Per-lane state of a fleet run (see module docstring).

    ``eq=False``: numpy fields make the generated ``__eq__`` ambiguous;
    use :meth:`equals` (NaN-aware exact comparison) instead.
    """

    #: Shared simulated time and step index: the latest lane end (each
    #: lane remembers its own end in ``end_step``/``end_time_s``).
    time_s: float
    step: int

    # -- electrical / controller-facing state (float64, one per lane) --
    node_voltage_v: np.ndarray
    processor_voltage_v: np.ndarray
    cycles_done: np.ndarray
    prev_setpoint_v: np.ndarray
    lockout_until_s: np.ndarray
    downtime_s: np.ndarray
    completion_time_s: np.ndarray  # NaN = not completed
    brownout_time_s: np.ndarray  # NaN = never browned out
    outage_started_s: np.ndarray  # NaN = no open outage span
    end_time_s: np.ndarray  # NaN = still live

    # -- mode / counter state (ints, one per lane) --
    prev_mode: np.ndarray  # int8 MODE_CODES, NO_MODE = none yet
    telemetry_mode: np.ndarray  # int8 MODE_CODES, NO_MODE = none yet
    transition_count: np.ndarray  # int64
    brownout_count: np.ndarray  # int64
    end_step: np.ndarray  # int64, -1 = still live

    # -- flags (bool, one per lane) --
    completed: np.ndarray
    browned_out: np.ndarray
    recovering: np.ndarray
    in_brownout: np.ndarray
    node_collapsed: np.ndarray
    live: np.ndarray

    # -- control-plane classification (bool, one per lane) --
    #: ``True`` for lanes that ran in the vectorized core, ``False``
    #: for lanes that ran on the scalar engine.
    vectorized: np.ndarray

    # -- materialized per-node fault draws (float64, one per lane) --
    capacitance_f: np.ndarray
    esr_ohm: np.ndarray
    max_voltage_v: np.ndarray
    leakage_current_a: np.ndarray
    #: Campaign seed that produced each lane's draw; -1 for lanes built
    #: outside a campaign.
    seeds: np.ndarray  # int64

    def __post_init__(self) -> None:
        lengths = {
            int(np.asarray(getattr(self, f.name)).shape[0])
            for f in fields(self)
            if f.name not in ("time_s", "step")
        }
        if len(lengths) != 1:
            raise ModelParameterError(
                f"lane arrays have inconsistent lengths: {sorted(lengths)}"
            )

    @property
    def lanes(self) -> int:
        """Number of lanes in the batch."""
        return int(self.node_voltage_v.shape[0])

    def equals(self, other: "FleetState") -> bool:
        """Exact (bit-level) equality; NaN sentinels compare equal."""
        if self.time_s != other.time_s or self.step != other.step:
            return False
        for f in fields(self):
            if f.name in ("time_s", "step"):
                continue
            a = getattr(self, f.name)
            b = getattr(other, f.name)
            if a.dtype.kind == "f":
                if not np.array_equal(a, b, equal_nan=True):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True

    def permuted(self, order: Sequence[int]) -> "FleetState":
        """A new state with lanes reordered by ``order``.

        ``order`` must be a permutation of ``range(lanes)``; lane
        ``i`` of the result is lane ``order[i]`` of this state.
        """
        idx = np.asarray(order)
        if sorted(idx.tolist()) != list(range(self.lanes)):
            raise ModelParameterError(
                f"order must be a permutation of range({self.lanes})"
            )
        kwargs: Dict[str, Any] = {"time_s": self.time_s, "step": self.step}
        for f in fields(self):
            if f.name in ("time_s", "step"):
                continue
            kwargs[f.name] = getattr(self, f.name)[idx].copy()
        return FleetState(**kwargs)
