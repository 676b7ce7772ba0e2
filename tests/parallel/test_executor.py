"""Tests for the sharded order-preserving executor.

The spawn-pool tasks below must live at module top level so worker
processes can import them by qualified name.
"""

import time

import pytest

from repro.errors import ModelParameterError, QuarantineError
from repro.parallel.executor import (
    default_chunk_size,
    run_sharded,
    shard,
)


def square(x):
    return x * x


def flaky_on_even(x):
    if x % 2 == 0:
        raise ValueError(f"even input {x}")
    return x


def flaky_on_even_smallest_last(x):
    """Like ``flaky_on_even``, but input 2 raises only after a delay."""
    if x == 2:
        time.sleep(0.5)
    return flaky_on_even(x)


class UnpicklableError(Exception):
    """Pickles, but cannot be rebuilt: ``__init__`` wants two args."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def unpicklable_on_four(x):
    if x == 4:
        raise UnpicklableError(4, "no way back")
    return x


class TestShard:
    def test_contiguous_chunks_cover_all_items(self):
        chunks = shard(list(range(10)), 3)
        assert [c for _, c in chunks] == [
            (0, 1, 2), (3, 4, 5), (6, 7, 8), (9,)
        ]
        assert [i for i, _ in chunks] == [0, 1, 2, 3]

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ModelParameterError):
            shard([1, 2], 0)

    def test_empty_items_shard_to_nothing(self):
        assert shard([], 4) == []


class TestDefaultChunkSize:
    def test_targets_multiple_chunks_per_worker(self):
        assert default_chunk_size(100, 4) == 7
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(3, 8) == 1


class TestSerialPath:
    def test_maps_in_order(self):
        assert run_sharded(square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_empty_input(self):
        assert run_sharded(square, []) == []

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ModelParameterError):
            run_sharded(square, [1], workers=0)

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError):
            run_sharded(flaky_on_even, [1, 2, 3])

    def test_propagated_exception_names_the_culprit(self):
        with pytest.raises(ValueError) as excinfo:
            run_sharded(flaky_on_even, [1, 3, 4], chunk_size=1)
        assert excinfo.value.submission_index == 2
        assert excinfo.value.failing_item == 4

    def test_progress_finishes_even_when_a_chunk_raises(self):
        events = []

        class Recorder:
            def start(self, total, workers):
                events.append("start")

            def update(self, completed, worker_id, busy_s):
                events.append("update")

            def finish(self):
                events.append("finish")

        with pytest.raises(ValueError):
            run_sharded(
                flaky_on_even, [1, 3, 2], chunk_size=1, progress=Recorder()
            )
        assert events[0] == "start"
        assert events[-1] == "finish"

    def test_unpicklable_exception_surfaces_as_quarantine_error(self):
        with pytest.raises(QuarantineError, match="#2 ") as excinfo:
            run_sharded(unpicklable_on_four, [1, 3, 4, 5], chunk_size=1)
        assert [f.index for f in excinfo.value.failures] == [2]
        assert "UnpicklableError" in excinfo.value.failures[0].error


class TestParallelPath:
    def test_matches_serial_output_and_order(self):
        items = list(range(23))
        serial = run_sharded(square, items, workers=1)
        fanned = run_sharded(square, items, workers=2, chunk_size=3)
        assert fanned == serial

    def test_chunk_size_does_not_change_results(self):
        items = list(range(11))
        expected = [square(i) for i in items]
        for chunk_size in (1, 2, 5, 11, 100):
            assert (
                run_sharded(square, items, workers=2, chunk_size=chunk_size)
                == expected
            )

    def test_more_workers_than_chunks(self):
        assert run_sharded(square, [2, 3], workers=8, chunk_size=1) == [4, 9]

    def test_worker_exception_carries_culprit_across_the_pool(self):
        # The annotation attributes must survive the pickle round trip
        # back from a spawn worker.
        with pytest.raises(ValueError) as excinfo:
            run_sharded(
                flaky_on_even, [1, 3, 5, 4, 7, 9], workers=2, chunk_size=1
            )
        assert excinfo.value.submission_index == 3
        assert excinfo.value.failing_item == 4

    def test_lowest_index_failure_is_raised_whatever_finishes_first(self):
        # Index 1 (input 2) fails half a second after index 3 (input 4)
        # on the other worker; the lower index must still be raised.
        with pytest.raises(ValueError) as excinfo:
            run_sharded(
                flaky_on_even_smallest_last,
                [1, 2, 3, 4, 5],
                workers=2,
                chunk_size=1,
            )
        assert excinfo.value.submission_index == 1
        assert excinfo.value.failing_item == 2
