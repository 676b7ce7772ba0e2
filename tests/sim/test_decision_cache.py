"""The per-run decision memo is value-transparent.

:func:`~repro.sim.engine.clamped_frequency_and_power` memoizes
``(voltage, commanded frequency) -> (clamped frequency, power)`` for
the length of a run and clears the memo once it holds
``_DECISION_CACHE_MAX`` entries.  The uncached call (``cache=None``)
is the reference: every memoized answer -- a miss, a hit, or a lookup
after a reset -- must be the same pair of doubles.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.processor.energy import paper_processor
from repro.sim import engine
from repro.sim.engine import clamped_frequency_and_power

PROCESSOR = paper_processor()

#: A few exact setpoints, so drawn sequences revisit keys (cache hits).
_GRID_V = (0.15, 0.4, 0.55, 0.8, 1.1)
_GRID_F = (0.0, 50e6, 400e6, 1e9)

voltages = st.one_of(
    st.sampled_from(_GRID_V),
    st.floats(
        min_value=PROCESSOR.min_operating_v,
        max_value=PROCESSOR.max_operating_v,
    ),
)
frequencies = st.one_of(
    st.sampled_from(_GRID_F), st.floats(min_value=0.0, max_value=2e9)
)


def _uncached(v, f):
    return clamped_frequency_and_power(PROCESSOR, v, f, None)


@given(
    calls=st.lists(st.tuples(voltages, frequencies), min_size=1, max_size=60),
    cache_max=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_memoized_calls_match_the_uncached_reference(calls, cache_max):
    """Any call sequence, with a memo small enough to reset mid-run."""
    cache = {}
    with mock.patch.object(engine, "_DECISION_CACHE_MAX", cache_max):
        for v, f in calls:
            assert clamped_frequency_and_power(
                PROCESSOR, v, f, cache
            ) == _uncached(v, f)
            assert len(cache) <= cache_max


def test_run_across_the_real_reset_matches_the_uncached_reference():
    """Fill the memo to ``_DECISION_CACHE_MAX`` distinct keys, cross the
    reset with one more, then revisit keys from before and after it."""
    limit = engine._DECISION_CACHE_MAX
    keys = [
        (v, 400e6)
        for v in np.linspace(
            PROCESSOR.min_operating_v, PROCESSOR.max_operating_v, limit + 1
        ).tolist()
    ]
    cache = {}
    for index, (v, f) in enumerate(keys[:limit]):
        memoized = clamped_frequency_and_power(PROCESSOR, v, f, cache)
        if index % 1024 == 0:
            assert memoized == _uncached(v, f)
    assert len(cache) == limit

    last = keys[limit]
    assert clamped_frequency_and_power(PROCESSOR, *last, cache) == _uncached(
        *last
    )
    assert len(cache) == 1  # the reset happened, then the new key

    for v, f in keys[:64] + [last] * 3:
        assert clamped_frequency_and_power(
            PROCESSOR, v, f, cache
        ) == _uncached(v, f)
    assert len(cache) == 65
