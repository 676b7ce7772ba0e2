"""REP002 -- wall-clock and OS nondeterminism in deterministic packages.

The simulator (``sim/``), the fault campaigns (``faults/``), the
parallel executor's result path (``parallel/``), the telemetry
layer (``telemetry/`` -- its traces must be byte-identical across
seeded re-runs), the supervised
runtime (``resilience/`` -- retry schedules, chaos decisions and
journaled resume must replay exactly, or a recovered campaign could
diverge from an uninterrupted one), the batched fleet engine
(``fleet/`` -- its lane-for-lane bit-identity contract with the
scalar simulator is the whole point) and the DP energy planner
(``planner/`` -- its oracle-bounds chain and plan determinism are
asserted exactly, and its forecast error injection must come from
seeded generators only) promise bit-identical outputs
for identical inputs.
``time.time()``, ``datetime.now()``,
``os.urandom()``, ``uuid.uuid1/uuid4`` and everything in ``secrets``
read ambient machine state, so a single call anywhere in those
packages makes results depend on when/where they ran.

``time.perf_counter`` / ``time.monotonic`` stay allowed: they are the
correct tools for *measuring* elapsed wall time (progress reporting,
benchmark timing) and are never valid inputs to simulated physics, so
banning them would only push timing code into worse workarounds.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.core import Diagnostic, ModuleInfo, Project, Rule
from repro.lint.rules.common import collect_imports, dotted_name

#: Package path segments whose modules must stay wall-clock free.
DETERMINISTIC_SEGMENTS: Tuple[str, ...] = (
    "sim",
    "faults",
    "parallel",
    "telemetry",
    "resilience",
    "fleet",
    "planner",
)

_DATETIME_METHODS = ("now", "utcnow", "today", "fromtimestamp")


class WallClockRule(Rule):
    rule_id = "REP002"
    title = "wall-clock / OS-entropy call in a deterministic package"
    rationale = (
        "sim/, faults/, parallel/, telemetry/, resilience/, fleet/ "
        "and planner/ promise bit-identical outputs; wall-clock "
        "and OS-entropy reads break replay and golden fixtures"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Diagnostic]:
        segments = module.module_name.split(".")
        if not any(seg in DETERMINISTIC_SEGMENTS for seg in segments):
            return
        bind = collect_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            head, fn = parts[0], parts[-1]

            banned: "str | None" = None
            if len(parts) == 2 and head in bind.time and fn in ("time", "time_ns"):
                banned = f"time.{fn}"
            elif len(parts) == 2 and head in bind.os and fn == "urandom":
                banned = "os.urandom"
            elif len(parts) == 1 and head in bind.from_wallclock:
                banned = bind.from_wallclock[head]
            elif (
                len(parts) >= 2
                and fn in _DATETIME_METHODS
                and (
                    parts[-2] in bind.datetime_class
                    or parts[-2] in bind.date_class
                    or (len(parts) >= 3 and parts[0] in bind.datetime_module)
                    or (len(parts) == 2 and parts[0] in bind.datetime_module)
                )
            ):
                banned = f"datetime.{fn}"
            elif len(parts) == 2 and head in bind.uuid and fn in ("uuid1", "uuid4"):
                banned = f"uuid.{fn}"
            elif len(parts) == 2 and head in bind.secrets:
                banned = f"secrets.{fn}"

            if banned is not None:
                yield self.diagnostic(
                    module,
                    node,
                    f"`{banned}` reads ambient machine state inside a "
                    "deterministic package; derive values from simulated "
                    "time or a seeded Generator",
                )
