"""Smoke-sized tests of the benchmark itself.

    python -m pytest perfbench/tests -q

Campaign workloads run here at a few milliseconds of simulated time so
that each traced pair finishes in seconds; the paper-figures pass runs
at full size (about 4 s).
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import CampaignWorkload, FiguresWorkload, WORKLOAD_NAMES, make_workloads

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]

#: Smoke versions of the campaign workloads: same scheme, engine and
#: executor path, a few milliseconds of simulated time.
SMOKE = {
    "holistic-campaign": lambda: CampaignWorkload(
        "holistic-campaign", "holistic", runs=16, distinct_inputs=1, supervised=False,
        duration_s=4e-3, dim_time_s=2e-3, workload_fraction=0.3),
    "planner-supervised": lambda: CampaignWorkload(
        "planner-supervised", "planner", runs=2, distinct_inputs=2, supervised=True,
        duration_s=8e-3, dim_time_s=2e-3),
    "paper-figures": FiguresWorkload,
}

#: Per-layer metric -> workloads that must exercise it (count or time > 0).
EXERCISED_BY = {
    "core.operating_point.best_point.calls": ["holistic-campaign"],
    "core.mppt.lookups": ["holistic-campaign"],
    "pv.cell.current.calls": ["holistic-campaign", "planner-supervised"],
    "pv.mpp.find_mpp.calls": ["planner-supervised"],
    "planner.forecast.bin_trace.self_s": ["planner-supervised"],
    "planner.dp.solve_plan.calls": ["planner-supervised"],
    "fleet.engine.run.self_s": ["holistic-campaign"],
    "fleet.lanes.vectorized": ["holistic-campaign"],
    "sim.engine.run.calls": ["planner-supervised", "paper-figures"],
    "sim.engine.steps": ["planner-supervised", "paper-figures"],
    "parallel.executor.self_s": ["holistic-campaign"],
    "resilience.supervisor.self_s": ["planner-supervised"],
    "faults.campaign.self_s": ["holistic-campaign", "planner-supervised"],
    "processor.voltage_for_frequency.calls": ["paper-figures"],
    "core.sprint.self_s": ["paper-figures"],
    "experiments.headline.s": ["paper-figures"],
    "experiments.fig7a.s": ["paper-figures"],
}


def _traced(name: str) -> "tuple[dict, run.Tally]":
    workload = SMOKE[name]()
    units = run.metric_units("per_layer")
    inclusive = [key for key in units if key.startswith("experiments.") and key.endswith(".s")]
    tally = run.Tally(workload)
    workload.warm()
    try:
        metrics = run.run_traced(workload, workload.inputs(3), 1e-3, tally, inclusive)
    finally:
        workload.close()
    metrics["import.s"] = metrics["parallel.cache.characterize_s"] = 0.0
    return metrics, tally


@pytest.fixture(scope="module")
def traced() -> dict:
    return {name: _traced(name) for name in WORKLOAD_NAMES}


def test_metric_names_are_well_formed():
    names = END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert "setup_s" in END_TO_END
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)


def test_section_takes_kernel_passes_out_and_scales_by_them():
    import calibrate

    with calibrate.Section() as section:
        calibrate.speed(passes=100)  # long enough for the timer to fire
    assert len(section.passes) >= calibrate.MIN_PASSES
    kernel_wall = sum(p[1] for p in section.passes) / len(section.passes)
    wall, _ = section.reference_s()
    assert wall == pytest.approx(section.wall_s * calibrate.REFERENCE_S / kernel_wall)
    # 100 back-to-back kernel passes are about 100 passes at the host's speed.
    assert 70 * calibrate.REFERENCE_S < wall < 140 * calibrate.REFERENCE_S


def test_traced_run_reports_every_per_layer_metric(traced):
    for name, (metrics, _) in traced.items():
        assert sorted(metrics) == sorted(PER_LAYER), name


@pytest.mark.parametrize("metric", sorted(EXERCISED_BY))
def test_layer_is_exercised_by_its_workloads(traced, metric):
    for name in EXERCISED_BY[metric]:
        assert traced[name][0][metric] > 0, (metric, name)


def test_tracing_keeps_outputs_and_lanes_bit_identical(traced):
    for name, (metrics, tally) in traced.items():
        assert tally.correct, (name, tally.problems)
    holistic = traced["holistic-campaign"][0]
    assert holistic["fleet.lanes.vectorized"] == 16
    assert holistic["fleet.lanes.fallback"] == 0


def test_self_times_and_other_add_up_to_traced_wall(traced):
    from layers import TIMED_LAYERS

    for name, (metrics, _) in traced.items():
        self_total = sum(metrics[f"{layer}.self_s"] for layer in TIMED_LAYERS)
        assert metrics["other.self_s"] >= 0.0, name
        assert math.isclose(self_total + metrics["other.self_s"], metrics["trace.wall_s"],
                            rel_tol=1e-9), name
        assert all(metrics[f"{layer}.self_s"] >= 0.0 for layer in TIMED_LAYERS), name


def test_memo_hit_ratio_is_a_share_of_lookups(traced):
    metrics = traced["holistic-campaign"][0]
    assert 0.0 <= metrics["core.mppt.memo_hit_ratio"] < 1.0
    assert metrics["core.operating_point.best_point.calls"] >= (
        (1.0 - metrics["core.mppt.memo_hit_ratio"]) * metrics["core.mppt.lookups"])


def test_seed_changes_inputs_not_metric_set():
    workloads = make_workloads()
    for name in WORKLOAD_NAMES:
        assert workloads[name].inputs(1) != workloads[name].inputs(2), name
        assert workloads[name].inputs(1) == workloads[name].inputs(1), name
    keys = []
    for seed in (1, 2):
        workload = SMOKE["planner-supervised"]()
        workload.warm()
        tally = run.Tally(workload)
        metrics = run.run_untraced(workload, workload.inputs(seed), 1e-3, tally)
        assert tally.correct, tally.problems
        keys.append(sorted(metrics))
    assert keys[0] == keys[1]
    assert set(keys[0]) == set(END_TO_END) - {"setup_s", "peak_rss_mb", "ok_frac"}


def test_campaign_check_fails_out_of_order_and_quarantined_runs():
    workload = SMOKE["planner-supervised"]()
    workload.warm()
    base_seed = workload.inputs(5)[0]
    summary = workload.call(base_seed)
    assert workload.check(base_seed, summary).passed == workload.runs
    swapped = dataclasses.replace(summary, records=summary.records[::-1])
    assert workload.check(base_seed, swapped).passed == 0
    quarantined = dataclasses.replace(summary, failed_runs=("boom",))
    assert workload.check(base_seed, quarantined).passed == 0


def test_headline_bands_catch_a_wrong_claim():
    from repro.experiments.headline import headline_claims
    from workloads import _headline_problems

    claims = headline_claims()
    assert _headline_problems(claims) == []
    wrong = dataclasses.replace(claims, quarter_sun_window_gain=0.05)
    assert _headline_problems(wrong) == ["headline: expected quarter_sun_window_gain < 0"]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
