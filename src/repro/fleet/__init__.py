"""Batched structure-of-arrays simulation of node fleets.

:class:`FleetSimulator` advances many independent harvest-store-compute
nodes per step with masked array updates, bit-identical lane-for-lane
to the scalar :class:`~repro.sim.engine.TransientSimulator` (the
differential harness in ``tests/fleet/`` is the contract).  A run
returns one result per lane and leaves each lane's capacitor at its
final voltage; nothing else outlasts it.  Lanes
whose controller is a plain
:class:`~repro.core.mppt.MppTrackingController` run in the vectorized
core; every other lane runs through the scalar engine inside the
batch.  Transient campaigns run each seed batch through
:func:`repro.fleet.campaign.transient_batch_task`, on this engine or
the scalar one; see ``docs/fleet.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.fleet.control import (
        NO_MODE,
        ControlPlane,
        classify_controller,
    )
    from repro.fleet.engine import FleetNode, FleetSimulator
    from repro.fleet.pv import CellParams, batched_current

__all__ = [
    "CellParams",
    "ControlPlane",
    "FleetNode",
    "FleetSimulator",
    "NO_MODE",
    "batched_current",
    "classify_controller",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.fleet.control": (
            "NO_MODE", "ControlPlane", "classify_controller",
        ),
        "repro.fleet.engine": ("FleetNode", "FleetSimulator"),
        "repro.fleet.pv": ("CellParams", "batched_current"),
    },
)
