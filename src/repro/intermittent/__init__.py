"""Intermittent-computing extension.

The paper's introduction surveys the system-level side of battery-less
operation: preserving "memory consistency and forward progress of
computation in the face of abrupt and intermittent power failures"
(its refs [14-16]: Hibernus++, federated storage, Alpaca).  The paper
itself sidesteps failures by scheduling within the energy budget; this
extension package adds the complementary runtime so the library covers
nodes that *do* brown out:

* :mod:`repro.intermittent.tasks` -- energy-aligned atomic tasks
  (the Alpaca-style decomposition);
* :mod:`repro.intermittent.checkpoint` -- a two-phase non-volatile
  checkpoint store (commit is atomic; a failure mid-commit falls back
  to the previous snapshot);
* :mod:`repro.intermittent.runtime` -- an executor that runs a task
  chain on the harvested-energy substrate, losing volatile progress on
  each brownout and resuming from the last committed task.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.intermittent.checkpoint import Checkpoint, CheckpointStore
    from repro.intermittent.runtime import IntermittentReport, IntermittentRuntime
    from repro.intermittent.tasks import Task, TaskChain

__all__ = [
    "Task",
    "TaskChain",
    "Checkpoint",
    "CheckpointStore",
    "IntermittentRuntime",
    "IntermittentReport",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.intermittent.checkpoint": ("Checkpoint", "CheckpointStore"),
        "repro.intermittent.runtime": (
            "IntermittentReport", "IntermittentRuntime",
        ),
        "repro.intermittent.tasks": ("Task", "TaskChain"),
    },
)
