"""Domain-aware static analysis for the repro codebase.

The dynamic layers of this repository -- golden 1e-9 fixtures, seeded
fault campaigns, bit-identical parallel execution -- only *detect*
determinism and unit violations after the fact.  :mod:`repro.lint`
catches the same classes of bug at the AST, before anything runs:

========  ==============================================================
REP001    unseeded / global-state randomness
REP002    wall-clock or OS-entropy calls in sim/, faults/, parallel/
REP003    raw out-of-scale literals passed to unit-suffixed parameters
REP004    in-place mutation of ``*Spec`` / ``*Config`` parameters
REP005    module-level mutable state in worker-imported modules
REP006    public RNG construction without a seed parameter to thread
REP007    nondeterministic iteration order reaching a deterministic sink
REP008    wall-clock/env/RNG taint flowing into deterministic exports
REP009    order-dependent float/max folds over unsorted dict/set views
REP010    lambdas/closures/bound methods crossing the pickle boundary
REP011    broad except-pass handlers on worker/supervisor paths
REP012    seed threads severed across call edges (REP006, whole-program)
========  ==============================================================

REP007--REP012 are interprocedural: they read the project call graph
(:mod:`repro.lint.graph`) and fixpoint taint/seed summaries
(:mod:`repro.lint.flow`), so a wall-clock read two calls away from an
exporter is still caught.  Suppressions require a justification --
``# repro-lint: disable=REP001 -- why this is safe`` -- and a marker
without one is itself a finding (SUP001).

Run it as ``repro lint [paths]`` or ``python -m repro.lint [paths]``.
``--format sarif`` exports for GitHub code scanning, ``--baseline``
adopts new rules without a flag day, and ``--cache`` makes warm
whole-tree runs near-instant.  See ``docs/linting.md`` for the full
catalogue and rationale.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
    from repro.lint.cache import lint_paths_cached
    from repro.lint.core import (
        Diagnostic,
        ModuleInfo,
        Project,
        Rule,
        build_project,
        lint_paths,
        run_rules,
    )
    from repro.lint.rules import ALL_RULES, RULES_BY_ID
    from repro.lint.sarif import render_sarif

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "Diagnostic",
    "ModuleInfo",
    "Project",
    "Rule",
    "apply_baseline",
    "build_project",
    "lint_paths",
    "lint_paths_cached",
    "load_baseline",
    "render_sarif",
    "run_rules",
    "write_baseline",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.lint.baseline": (
            "apply_baseline", "load_baseline", "write_baseline",
        ),
        "repro.lint.cache": ("lint_paths_cached",),
        "repro.lint.core": (
            "Diagnostic", "ModuleInfo", "Project", "Rule", "build_project",
            "lint_paths", "run_rules",
        ),
        "repro.lint.rules": ("ALL_RULES", "RULES_BY_ID"),
        "repro.lint.sarif": ("render_sarif",),
    },
)
