"""Engine hot-path bench -- steps/s, speedup, and bit-identity.

Runs the Fig. 8 MPPT workload through two engine variants -- the
pre-optimization ``pv_reference`` loop and the default single-solve
scalar path -- and records the timings to ``BENCH_engine_hotpath.json``
at the repository root.  Two claims:

* **bit-identity** (asserted unconditionally): the default path's
  results -- every recorded array, scalar and event -- equal the
  reference loop's exactly;
* **speedup**: the default bit-exact path reaches at least
  ``TARGET_SPEEDUP`` (2x) steps/s over the reference loop, measured
  best-of-rounds on the same machine in the same process.
"""

import json
from pathlib import Path

from conftest import emit

from repro.experiments.report import format_table
from repro.perf.benchmark import (
    TARGET_SPEEDUP,
    run_hotpath_benchmark,
    write_report,
)

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine_hotpath.json"

ROUNDS = 3


def test_engine_hotpath_speedup_and_bit_identity():
    report = run_hotpath_benchmark(rounds=ROUNDS)
    write_report(report, BENCH_PATH)

    rows = [
        (
            timing.variant,
            f"{timing.steps_per_s:,.0f}",
            f"{timing.best_wall_s * 1e3:.1f}",
        )
        for timing in report.timings
    ]
    emit(
        "engine hot path (Fig. 8 MPPT workload, "
        f"{report.timings[0].steps:,} steps, best of {ROUNDS})",
        format_table(("variant", "steps/s", "best wall [ms]"), rows)
        + f"\nspeedup default vs reference:  {report.speedup_default:.2f}x",
    )
    emit("written", str(BENCH_PATH))

    assert report.default_bit_identical, (
        "default hot path diverged from the reference loop"
    )
    assert report.speedup_default >= TARGET_SPEEDUP, (
        f"default path reached only {report.speedup_default:.2f}x over the "
        f"reference loop (target {TARGET_SPEEDUP}x)"
    )

    written = json.loads(BENCH_PATH.read_text())
    assert written["speedup_default"] >= TARGET_SPEEDUP
    assert written["default_bit_identical"] is True
    assert set(written["variants"]) == {"reference", "default"}
