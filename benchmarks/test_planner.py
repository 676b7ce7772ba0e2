"""Planner bench -- oracle-bounds chain and frozen sim-world deltas.

Runs the DP energy planner's scenario matrix (dim-step, MPPT-dim,
cloud burst, volatile walk, sunset ramp) and writes the fresh report
to ``BENCH_planner.json`` in the test's ``tmp_path``, so the run
leaves the checkout as it found it.  The committed
``BENCH_planner.json`` at the repository root is refreshed with
``python -m repro bench --planner``, which writes it by default.
Claims:

* **oracle-bounds chain** (asserted unconditionally, per scenario):
  in the model world ``oracle >= receding horizon >= greedy`` on
  completed cycles -- exactly, since cycle rewards are integer-valued
  and every value-function sum is an exact double;
* **frozen report**: the fresh report equals the committed
  ``BENCH_planner.json`` on every key but the platform fields, so the
  sim-world numbers -- harvested energy and deadline misses for
  planner vs oracle vs the paper heuristic -- are an exact oracle, and
  the written copy parses back to the schema.  The bin model's MPP income
  upper-bounds plant harvest (an idle node drifts off the MPP
  voltage), and the report note explains the gap.

Bit-identity across engines and worker counts is owned by
``tests/planner``:
``test_adapter.py::TestEngineBitIdentity::test_batch_of_one_matches_scalar``
(receding and oracle adapters, scalar vs fleet batch of one) and
``test_campaign.py::test_campaign_engines_and_workers_bit_identical``
(``planner``/``oracle`` campaign records across engines and workers).
"""

import json
from pathlib import Path

from conftest import assert_bench_schema, emit

from repro.experiments.report import format_table
from repro.planner.bench import (
    SIM_POLICIES,
    run_planner_benchmark,
    write_report,
)

#: The committed report; a run writes its own copy under ``tmp_path``.
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_planner.json"

#: Key -> type contract of BENCH_planner.json.
BENCH_SCHEMA = {
    "bench": str,
    "duration_s": (int, float),
    "time_step_s": (int, float),
    "slot_s": (int, float),
    "levels": int,
    "workload_cycles": int,
    "scenarios": dict,
    "all_bounds_hold": bool,
    "note": str,
    "platform": str,
    "python": str,
    "numpy": str,
}

#: Key -> type contract of each scenario's model-world entry.
MODEL_SCHEMA = {
    "oracle_cycles": (int, float),
    "receding_cycles": (int, float),
    "greedy_cycles": (int, float),
    "bounds_hold": bool,
    "replans": int,
    "forecast_bias_j": (int, float),
    "receding_vs_oracle": (int, float),
    "greedy_vs_oracle": (int, float),
}

#: Key -> type contract of each scenario's per-policy sim entry.
SIM_SCHEMA = {
    "final_cycles": (int, float),
    "harvested_energy_j": (int, float),
    "deadline_missed": bool,
    "brownouts": int,
}

#: Report keys that describe the host, not the code.
PLATFORM_KEYS = ("platform", "python", "numpy")


def test_planner_bench_chain_and_bit_identity(tmp_path):
    report = run_planner_benchmark()
    payload = report.as_dict()
    assert_bench_schema(payload, BENCH_SCHEMA)
    assert len(payload["scenarios"]) >= 4
    for name, entry in payload["scenarios"].items():
        assert sorted(entry) == ["model", "sim"], name
        assert_bench_schema(entry["model"], MODEL_SCHEMA)
        assert sorted(entry["sim"]) == sorted(SIM_POLICIES), name
        for leg in entry["sim"].values():
            assert_bench_schema(leg, SIM_SCHEMA)
    # The committed report is a frozen oracle: a fresh run must equal
    # it on every key that the code, not the host, determines.
    committed = json.loads(BENCH_PATH.read_text())
    fresh = json.loads(json.dumps(payload))
    for key in PLATFORM_KEYS:
        committed.pop(key)
        fresh.pop(key)
    assert fresh == committed
    written = write_report(report, tmp_path / BENCH_PATH.name)
    # The file on disk must parse back to the schema-checked payload.
    assert_bench_schema(json.loads(written.read_text()), BENCH_SCHEMA)

    emit(
        "Planner bench -- model-world cycles (exact)",
        format_table(
            ["scenario", "oracle", "receding", "greedy", "bounds"],
            [
                (
                    scenario.name,
                    f"{scenario.model.oracle_cycles / 1e6:.2f}M",
                    f"{scenario.model.receding_cycles / 1e6:.2f}M",
                    f"{scenario.model.greedy_cycles / 1e6:.2f}M",
                    scenario.model.bounds_hold,
                )
                for scenario in report.scenarios
            ],
        ),
    )
    emit(
        "Planner bench -- sim-world harvest / deadline",
        format_table(
            ["scenario", "policy", "cycles", "harvest [uJ]", "missed"],
            [
                (
                    scenario.name,
                    leg.policy,
                    f"{leg.final_cycles / 1e6:.2f}M",
                    f"{leg.harvested_energy_j * 1e6:.1f}",
                    leg.deadline_missed,
                )
                for scenario in report.scenarios
                for leg in scenario.legs
            ],
        ),
    )

    # The oracle-bounds chain holds exactly, scenario by scenario.
    for scenario in report.scenarios:
        model = scenario.model
        assert (
            model.oracle_cycles
            >= model.receding_cycles
            >= model.greedy_cycles
        ), f"{scenario.name}: oracle-bounds chain violated"
    assert report.all_bounds_hold
