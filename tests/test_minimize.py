"""Tests for the in-repo bounded scalar minimizer.

Bit-identity with scipy is pinned through its two callers against
``tests/golden/bounded_minimize_reference.json`` (``tests/pv/test_mpp.py``
and ``tests/processor/test_energy.py``); these tests cover the
function's own contract.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.minimize import MAXITER, bounded_minimize


class TestBoundedMinimize:
    @given(
        centre=st.floats(-5.0, 5.0),
        low=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 10.0),
        xatol=st.sampled_from([1e-9, 1e-7, 1e-5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_stays_in_bounds_and_finds_the_minimum(
        self, centre, low, width, xatol
    ):
        high = low + width
        calls = []

        def func(x):
            calls.append(x)
            return (x - centre) ** 2

        x = bounded_minimize(func, low, high, xatol)
        assert all(low <= c <= high and type(c) is float for c in calls)
        clamped = min(max(centre, low), high)
        assert abs(x - clamped) <= 3.0 * xatol + 1e-7 * abs(clamped)

    def test_numpy_bounds_are_coerced(self):
        """Grid bounds arrive as np.float64; the answer is the same."""
        def func(x):
            return math.cos(3.0 * x)

        assert bounded_minimize(
            func, np.float64(0.5), np.float64(1.5), 1e-8
        ) == bounded_minimize(func, 0.5, 1.5, 1e-8)

    def test_evaluation_budget_is_bounded(self):
        calls = []

        def func(x):
            calls.append(x)
            return math.sin(1e12 * x)

        bounded_minimize(func, 0.0, 1.0, 1e-300)
        assert len(calls) <= MAXITER

    @pytest.mark.parametrize(
        ("low", "high"), [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)]
    )
    def test_rejects_non_finite_bounds(self, low, high):
        with pytest.raises(ValueError, match="finite"):
            bounded_minimize(abs, low, high, 1e-6)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="exceeds"):
            bounded_minimize(abs, 1.0, 0.0, 1e-6)
