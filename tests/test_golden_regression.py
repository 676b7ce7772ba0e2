"""Golden-regression fixtures: the physics must not drift silently.

Small canonical runs (the Fig. 6 operating points, a 5-seed transient
fault campaign, a 16-lane fleet batch, five scalar-engine runs frozen
from the historical reference loop, a dense per-point grid of
single-diode currents frozen from the historical array solver, the
MPPs and MEPs found by the bounded minimizer, frozen from scipy, the
receding-horizon planner's answers, frozen from one full DP solve per
replan, every headline claim with the raw eq. (12) sprint joules, and
a telemetry JSONL trace of the Fig. 6 operating point) are
serialized to committed JSON/JSONL under ``tests/golden/``.
Each test recomputes the payload and compares it against the fixture
within tight tolerances, so a refactor -- the parallel campaign
executor especially -- cannot silently change the numbers while
keeping the code green.

After an *intentional* physics change, regenerate with
``PYTHONPATH=src python -m tests.golden.regen`` and commit the diff
alongside the change.
"""

import json
import math
from pathlib import Path

import pytest

from tests.golden.builders import PAYLOADS, TEXT_PAYLOADS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Relative tolerance for float comparisons.  Tight enough that any
#: model drift fails, loose enough to absorb libm/BLAS noise across
#: platforms.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def assert_matches(expected, actual, path="$"):
    """Recursive structural comparison with float tolerance."""
    if isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)), f"{path}: {actual!r}"
        if math.isnan(expected):
            assert math.isnan(actual), f"{path}: expected NaN, got {actual!r}"
            return
        assert actual == pytest.approx(
            expected, rel=REL_TOL, abs=ABS_TOL
        ), f"{path}: expected {expected!r}, got {actual!r}"
        return
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: {actual!r}"
        assert sorted(expected) == sorted(actual), (
            f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            assert_matches(expected[key], actual[key], f"{path}.{key}")
        return
    if isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: {actual!r}"
        assert len(expected) == len(actual), (
            f"{path}: length {len(actual)} != {len(expected)}"
        )
        for index, (e, a) in enumerate(zip(expected, actual)):
            assert_matches(e, a, f"{path}[{index}]")
        return
    # str / bool / int / None: exact.
    assert expected == actual, f"{path}: expected {expected!r}, got {actual!r}"


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_golden_fixture_matches_fresh_run(name):
    fixture_path = GOLDEN_DIR / name
    assert fixture_path.exists(), (
        f"missing golden fixture {fixture_path}; generate it with "
        f"'PYTHONPATH=src python -m tests.golden.regen' and commit it"
    )
    expected = json.loads(fixture_path.read_text())
    actual = PAYLOADS[name]()
    assert_matches(expected, actual)


@pytest.mark.parametrize("name", sorted(TEXT_PAYLOADS))
def test_golden_jsonl_fixture_matches_fresh_run(name):
    """JSONL traces compare line-by-line as parsed records.

    Structural content (event names, order, counts) must match
    exactly; float timestamps/values within the usual tolerance, so
    the fixture survives libm differences across platforms.  The CI
    ``telemetry-determinism`` job separately asserts byte-identity of
    two runs on one machine.
    """
    fixture_path = GOLDEN_DIR / name
    assert fixture_path.exists(), (
        f"missing golden fixture {fixture_path}; generate it with "
        f"'PYTHONPATH=src python -m tests.golden.regen' and commit it"
    )
    expected_lines = fixture_path.read_text().splitlines()
    actual_lines = TEXT_PAYLOADS[name]().splitlines()
    assert len(actual_lines) == len(expected_lines), (
        f"{name}: {len(actual_lines)} records != {len(expected_lines)}"
    )
    for index, (expected, actual) in enumerate(
        zip(expected_lines, actual_lines)
    ):
        assert_matches(
            json.loads(expected), json.loads(actual), f"$[{index}]"
        )


def test_fixture_json_round_trips_exactly():
    """The committed files parse and re-serialize stably (sorted keys,
    so regeneration diffs are minimal and reviewable)."""
    for name in PAYLOADS:
        text = (GOLDEN_DIR / name).read_text()
        parsed = json.loads(text)
        assert (
            json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text
        ), f"{name} is not in canonical serialized form"


def test_headline_claims_are_byte_identical():
    """The headline claims and the raw sprint joules behind
    ``sprint_energy_gain`` reproduce the fixture bit for bit, not only
    within ``REL_TOL``: no shortcut in the sprint integration may move
    a single ulp."""
    name = "headline_claims.json"
    fresh = json.dumps(PAYLOADS[name](), indent=2, sort_keys=True) + "\n"
    assert fresh == (GOLDEN_DIR / name).read_text()
