"""Hot-path performance layer for the transient engine.

The ROADMAP's north star is "as fast as the hardware allows"; this
package holds the pieces that make the per-step physics cheap without
touching the repo's determinism contract:

* :mod:`repro.perf.benchmark` -- the steps/s benchmark harness behind
  ``repro bench`` and ``benchmarks/test_engine_hotpath.py``, measuring
  the default (bit-exact) path against the pre-optimization reference
  engine.

The bit-exact scalar solver itself lives on
:meth:`repro.pv.cell.SingleDiodeCell.current_scalar`, where the physics
is; see ``docs/performance.md`` for the architecture.
"""

from repro.perf.benchmark import (
    HotpathReport,
    VariantTiming,
    run_hotpath_benchmark,
    write_report,
)

__all__ = [
    "HotpathReport",
    "VariantTiming",
    "run_hotpath_benchmark",
    "write_report",
]
