"""The benchmark's workloads: inputs made from a seed, the timed call, the checks.

Every workload is closed loop: one caller waits for a whole call (a
campaign, or a pass over the paper figures) before starting the next.
The workload seed only picks the inputs; the program receives the
generated campaign ``base_seed`` (or driver order) and nothing else.

* ``holistic-campaign`` -- ``run_transient_campaign(scheme="holistic")``
  under the ``repro faults`` default fault stress, 16 seeds so that
  ``engine="auto"`` picks the fleet engine.  Exercises the MPP
  tracker's operating-point search, the batched fleet engine and
  ``parallel.executor.run_sharded``.
* ``planner-supervised`` -- the same campaign with ``scheme="planner"``
  under a retry policy (no journal, no chaos), which runs the
  supervised executor with the scalar engine per seed.  Exercises the
  planner's forecast binning, MPP search and DP solve; bypasses the
  fleet engine and ``run_sharded``.
* ``paper-figures`` -- the ``FAST_FIGURES`` drivers and
  ``headline_claims``.  No campaign, fleet or executor; exercises the
  sprint analytics, the scalar engine and single-point operating-point
  calls, and is the only workload with a full paper reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pickle
import random
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from paper_reference import PAPER_VALUES, paper_err_pp

#: ``repro faults`` defaults: ``--offset-mv 30 --flicker-depth 0.5``.
FAULT_STRESS = {"comparator_offset_sigma_v": 30e-3, "flicker_depth_max": 0.5}

#: ``span(layer, inclusive_key)`` -> context manager; a no-op when untraced.
SpanFactory = Callable[[str, Optional[str]], ContextManager[None]]


def no_span(layer: str, inclusive_key: Optional[str] = None) -> ContextManager[None]:
    return nullcontext()


@dataclasses.dataclass
class Check:
    """Units attempted and passed by one call, with what went wrong."""

    attempted: int
    passed: int
    problems: List[str]


def _is_fraction(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _is_throughput(value: float) -> bool:
    # Relative to the fault-free reference run, which is not an upper
    # bound: a faulted planner run can retire slightly more cycles (a
    # few tenths of a percent), because a perturbed forecast changes
    # its replans.
    return math.isfinite(value) and value >= 0.0


def _survived(result: Any, tail_fraction: float = 0.25) -> bool:
    """Completed, or still clocking in the last quarter of the run."""
    if result.completed:
        return True
    if len(result.time_s) == 0:
        return False
    tail = result.time_s >= result.time_s[-1] * (1.0 - tail_fraction)
    return bool((result.frequency_hz[tail] > 0.0).any())


class CampaignWorkload:
    """One ``run_transient_campaign`` call per unit of input."""

    def __init__(self, name: str, scheme: str, runs: int, distinct_inputs: int,
                 supervised: bool, **config: float) -> None:
        self.name = name
        self.scheme = scheme
        self.runs = runs
        self.distinct_inputs = distinct_inputs
        self.supervised = supervised
        self.config = config

    @property
    def units_per_call(self) -> int:
        return self.runs

    def inputs(self, seed: int) -> List[int]:
        """Distinct campaign base seeds, far apart so seed sets never overlap."""
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(1, 2**31 - self.runs) for _ in range(self.distinct_inputs)]

    def warm(self) -> None:
        import repro.faults.campaign  # noqa: F401
        import repro.fleet.campaign  # noqa: F401
        import repro.planner.adapter  # noqa: F401
        from repro.parallel.cache import characterized_system

        characterized_system()

    def close(self) -> None:
        pass

    def call(self, base_seed: int, span: SpanFactory = no_span) -> Any:
        from repro.faults import CampaignConfig, FaultSpec, run_transient_campaign
        from repro.resilience import ResilienceConfig, RetryPolicy

        resilience = (
            ResilienceConfig(policy=RetryPolicy(max_retries=2)) if self.supervised else None
        )
        config = CampaignConfig(
            runs=self.runs, base_seed=base_seed, scheme=self.scheme, **self.config
        )
        with span("faults.campaign", None):
            return run_transient_campaign(
                FaultSpec(**FAULT_STRESS), config, workers=1,
                resilience=resilience, engine="auto",
            )

    def check(self, base_seed: int, summary: Any) -> Check:
        problems: List[str] = []
        if summary.runs != self.runs:
            problems.append(f"summary.runs {summary.runs} != {self.runs} attempted")
        if summary.failed_runs:
            problems.append(f"{len(summary.failed_runs)} failed runs")
        for field, valid in (("survival_rate", _is_fraction),
                             ("completion_rate", _is_fraction),
                             ("brownout_run_fraction", _is_fraction),
                             ("mean_throughput_ratio", _is_throughput),
                             ("min_throughput_ratio", _is_throughput)):
            if not valid(getattr(summary, field)):
                problems.append(f"summary.{field} = {getattr(summary, field)!r}")
        passed = 0
        expected_seeds = [base_seed + index for index in range(self.runs)]
        seeds = [record.seed for record in summary.records]
        if seeds != expected_seeds:
            problems.append("records not in seed order")
        else:
            for record in summary.records:
                if _is_throughput(record.throughput_ratio):
                    passed += 1
                else:
                    problems.append(
                        f"seed {record.seed}: throughput_ratio {record.throughput_ratio!r}"
                    )
        if problems and passed == self.runs:
            passed = 0  # a campaign-level failure fails every unit in it
        return Check(self.runs, passed, problems)

    def digest(self, summary: Any) -> str:
        return hashlib.sha256(pickle.dumps(summary)).hexdigest()

    def sim_metrics(self, outputs: Sequence[Any]) -> Dict[str, float]:
        """Campaign outcomes over the distinct inputs, weighted by runs."""
        runs = sum(s.runs for s in outputs)
        return {
            "sim.throughput_ratio": sum(s.mean_throughput_ratio * s.runs for s in outputs) / runs,
            "sim.survival_rate": sum(s.survival_rate * s.runs for s in outputs) / runs,
            "sim.completion_rate": sum(s.completion_rate * s.runs for s in outputs) / runs,
        }

    def paper_err_pp(self, outputs: Sequence[Any]) -> float:
        """Fig. 6(b) SC gains (EXPERIMENTS.md E6) of the campaigns' system."""
        from repro.core.operating_point import OperatingPointOptimizer
        from repro.parallel.cache import characterized_system

        system, _ = characterized_system()
        optimizer = OperatingPointOptimizer(system)
        raw = optimizer.unregulated_point(1.0)
        sc = optimizer.regulated_point("sc", 1.0)
        return paper_err_pp({
            "sc_power_gain": sc.delivered_power_w / raw.delivered_power_w - 1.0,
            "sc_speed_gain": sc.frequency_hz / raw.frequency_hz - 1.0,
        })


HEADLINE = "headline"


class FiguresWorkload:
    """One pass over the fast figure drivers and ``headline_claims``."""

    name = "paper-figures"

    def __init__(self) -> None:
        # fig11b runs inside headline_claims; the first pass's three
        # closed-loop transients give this workload's sim.* metrics.
        self.sprint_demos: List[Any] = []
        self._restore: Callable[[], None] = lambda: None

    @property
    def drivers(self) -> Tuple[str, ...]:
        from repro.experiments.export import FAST_FIGURES

        return tuple(FAST_FIGURES) + (HEADLINE,)

    @property
    def units_per_call(self) -> int:
        return len(self.drivers)

    def inputs(self, seed: int) -> List[Tuple[str, ...]]:
        """The seed only orders the driver calls; results do not depend on it."""
        order = list(self.drivers)
        random.Random(f"{self.name}:{seed}").shuffle(order)
        return [tuple(order)]

    def warm(self) -> None:
        import repro.experiments.export as export
        import repro.experiments.headline as headline

        for module_path, _ in export.FIGURE_DRIVERS.values():
            __import__(module_path)
        original = headline.fig11b_sprint_waveform
        demos = self.sprint_demos

        def keep_demo(*args: Any, **kwargs: Any) -> Any:
            demo = original(*args, **kwargs)
            if not demos:
                demos.append(demo)
            return demo

        headline.fig11b_sprint_waveform = keep_demo
        self._restore = lambda: setattr(headline, "fig11b_sprint_waveform", original)

    def close(self) -> None:
        self._restore()

    def call(self, order: Tuple[str, ...], span: SpanFactory = no_span) -> Dict[str, Any]:
        from repro.core.system import paper_system
        from repro.experiments.export import export_figure
        from repro.experiments.headline import headline_claims

        system = paper_system()
        outputs: Dict[str, Any] = {}
        for driver in order:
            with span("experiments", f"experiments.{driver}.s"):
                if driver == HEADLINE:
                    outputs[driver] = headline_claims(system)
                else:
                    outputs[driver] = export_figure(driver, system)
        return outputs

    def check(self, order: Tuple[str, ...], outputs: Dict[str, Any]) -> Check:
        problems: List[str] = []
        passed = 0
        for driver in order:
            output = outputs.get(driver)
            if driver == HEADLINE:
                bad = _headline_problems(output)
                problems.extend(bad)
                passed += not bad
            elif (isinstance(output, dict) and output.get("figure") == driver
                  and output.get("data")):
                passed += 1
            else:
                problems.append(f"{driver}: empty or mislabelled payload")
        return Check(len(order), passed, problems)

    def digest(self, outputs: Dict[str, Any]) -> str:
        from repro.experiments.export import to_jsonable

        canonical = json.dumps(
            {driver: to_jsonable(value) for driver, value in sorted(outputs.items())},
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def sim_metrics(self, outputs: Sequence[Any]) -> Dict[str, float]:
        """fig11b's sprint+bypass, constant-speed and no-bypass runs.

        Throughput is each run's retired cycles relative to the
        sprint+bypass run, the scheme the paper measures.
        """
        demo = self.sprint_demos[0]
        runs = (demo.with_sprint, demo.without_sprint, demo.without_bypass)
        reference = float(demo.with_sprint.final_cycles)
        return {
            "sim.throughput_ratio": sum(float(r.final_cycles) / reference for r in runs) / len(runs),
            "sim.survival_rate": sum(_survived(r) for r in runs) / len(runs),
            "sim.completion_rate": sum(bool(r.completed) for r in runs) / len(runs),
        }

    def paper_err_pp(self, outputs: Sequence[Any]) -> float:
        claims = outputs[0][HEADLINE]
        return paper_err_pp({name: getattr(claims, name) for name in PAPER_VALUES})


def _headline_problems(claims: Any) -> List[str]:
    """The direction and band checks of ``benchmarks/test_headline_claims.py``."""
    if claims is None:
        return ["headline: no claims"]
    values = dataclasses.asdict(claims)
    problems = [f"headline: {k} = {v!r}" for k, v in values.items() if not math.isfinite(v)]
    bands = (
        ("sc_power_gain > 0.15", claims.sc_power_gain > 0.15),
        ("sc_speed_gain > 0.05", claims.sc_speed_gain > 0.05),
        ("sc_extraction_gain > sc_power_gain",
         claims.sc_extraction_gain > claims.sc_power_gain),
        ("quarter_sun_window_gain < 0", claims.quarter_sun_window_gain < 0.0),
        ("0.15 <= mep_saving <= 0.50", 0.15 <= claims.mep_saving <= 0.50),
        ("mep_voltage_shift_v > 0.03", claims.mep_voltage_shift_v > 0.03),
        ("sprint_energy_gain > 0.03", claims.sprint_energy_gain > 0.03),
        ("bypass_extension_fraction > 0.10", claims.bypass_extension_fraction > 0.10),
    )
    problems.extend(f"headline: expected {rule}" for rule, ok in bands if not ok)
    return problems


WORKLOAD_NAMES = ("holistic-campaign", "planner-supervised", "paper-figures")


def make_workloads() -> Dict[str, Any]:
    # Both campaigns run the same 16-seed campaign shape; they differ
    # only in scheme and, through the retry policy, executor and engine.
    campaign = {"runs": 16, "distinct_inputs": 4, "duration_s": 20e-3,
                "dim_time_s": 5e-3, "workload_fraction": 0.3}
    return {
        "holistic-campaign": CampaignWorkload(
            "holistic-campaign", "holistic", supervised=False, **campaign),
        "planner-supervised": CampaignWorkload(
            "planner-supervised", "planner", supervised=True, **campaign),
        "paper-figures": FiguresWorkload(),
    }
