"""Parallel campaign executor bench -- speedup and bit-identity.

Runs the 50-seed robustness campaign twice, serially (``workers=1``)
and fanned across ``workers=4`` processes, and records both wall-clock
times to a ``BENCH_parallel_campaign.json`` report in the test's
``tmp_path``; the run leaves the checkout as it found it.  To refresh
the committed ``BENCH_parallel_campaign.json`` at the repository root,
run the module with a known base directory
(``pytest benchmarks/test_parallel_campaign.py --basetemp=DIR``) and
copy the report from ``DIR``.  Two claims:

* **bit-identity** (asserted unconditionally): the parallel summary --
  every aggregate statistic and every per-run record -- equals the
  serial one exactly;
* **speedup** (asserted only when the machine has >= 4 usable CPUs):
  the fan-out achieves at least a 2x wall-clock speedup.  On smaller
  machines the measured numbers are still recorded so regressions are
  visible in the committed JSON history, but process-level parallelism
  cannot beat a serial loop without cores to run on.
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest
from conftest import assert_bench_schema, emit

from repro.experiments.report import format_table
from repro.faults import CampaignConfig, FaultSpec, run_transient_campaign

SPEC = FaultSpec(comparator_offset_sigma_v=80e-3, flicker_depth_max=0.6)
CONFIG = CampaignConfig(runs=50, scheme="holistic")
WORKERS = 4
TARGET_SPEEDUP = 2.0

#: The committed report; a run writes its own copy under ``tmp_path``.
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel_campaign.json"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Key -> type contract of BENCH_parallel_campaign.json.
BENCH_SCHEMA = {
    "bench": str,
    "runs": int,
    "workers": int,
    "serial_wall_s": (int, float),
    "parallel_wall_s": (int, float),
    "speedup": (int, float),
    "target_speedup": (int, float),
    "speedup_asserted": bool,
    "bit_identical": bool,
    "usable_cpus": int,
    "platform": str,
    "python": str,
}


def test_parallel_campaign_speedup_and_bit_identity(campaign_cache, tmp_path):
    started = time.perf_counter()
    serial = run_transient_campaign(SPEC, CONFIG, workers=1)
    serial_s = time.perf_counter() - started
    # Seed the shared cache: other benches asking for this campaign
    # (the robustness tables) reuse the timed run.
    campaign_cache.store(SPEC, CONFIG, serial)

    started = time.perf_counter()
    fanned = run_transient_campaign(SPEC, CONFIG, workers=WORKERS)
    parallel_s = time.perf_counter() - started

    speedup = serial_s / parallel_s
    cpus = _usable_cpus()
    identical = (
        fanned.as_dict() == serial.as_dict()
        and fanned.records == serial.records
    )

    payload = {
        "bench": "parallel_campaign",
        "runs": CONFIG.runs,
        "workers": WORKERS,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "target_speedup": TARGET_SPEEDUP,
        "speedup_asserted": cpus >= WORKERS,
        "bit_identical": identical,
        "usable_cpus": cpus,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    assert_bench_schema(payload, BENCH_SCHEMA)
    (tmp_path / BENCH_PATH.name).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    emit(
        f"Parallel campaign bench -- {CONFIG.runs} seeds, "
        f"{WORKERS} workers",
        format_table(
            ["quantity", "value"],
            [
                ("serial wall [s]", f"{serial_s:.2f}"),
                ("parallel wall [s]", f"{parallel_s:.2f}"),
                ("speedup", f"{speedup:.2f}x"),
                ("usable CPUs", cpus),
                ("bit identical", identical),
            ],
        ),
    )

    # The correctness half of the claim holds everywhere.
    assert identical, "parallel summary diverged from the serial path"
    assert fanned.runs == CONFIG.runs

    # The performance half needs hardware to run on.
    if cpus >= WORKERS:
        assert speedup >= TARGET_SPEEDUP, (
            f"parallel campaign only reached {speedup:.2f}x on "
            f"{cpus} CPUs (target {TARGET_SPEEDUP}x)"
        )
    else:
        pytest.skip(
            f"only {cpus} usable CPU(s): speedup recorded "
            f"({speedup:.2f}x) but not asserted"
        )
