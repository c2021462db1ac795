"""Worker pools: their size is clamped to the usable CPUs, and no worker
count changes an answer.  The pool constructor is replaced by a recording,
in-process one, so these tests start no processes."""

import multiprocessing
from fractions import Fraction

import pytest

from constel import _pool
from constel.heights import scan_abc
from constel.softpoints import DeltaSupport3, enumerate_soft_points


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools requested while the test runs; each pool runs
    its tasks in this process."""
    sizes = []

    class SerialPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(x) for x in items]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: Context())
    monkeypatch.setattr(_pool, "_job", None)
    return sizes


def test_pool_size(pool_sizes, monkeypatch):
    assert _pool.usable_cpus() >= 1
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 7)
    items = list(range(1000))
    # clamped to the usable CPUs, then to the item count
    assert sorted(_pool.fork_map(list, items, 100_000)) == items
    assert sorted(_pool.fork_map(list, items[:3], 100_000)) == items[:3]
    assert pool_sizes == [7, 3]
    # one item, or no more than one worker asked for, runs in this process
    assert _pool.fork_map(list, items[:1], 100_000) == items[:1]
    for workers in (1, 0, -5):
        assert _pool.fork_map(list, items, workers) == items
    assert pool_sizes == [7, 3]


@pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 50])
def test_strides_cover_every_item_once(pool_sizes, monkeypatch, n):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 7)
    items = [f"item{i}" for i in range(n)]
    for workers in range(1, 10):
        got = _pool.fork_map(list, items, workers)
        assert sorted(got) == sorted(items)
        w = max(1, min(workers, n, 7))
        assert got == [x for i in range(w) for x in items[i::w]]


def test_huge_worker_counts_are_clamped(pool_sizes, monkeypatch):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 7)
    abc = scan_abc(600, Fraction(1))
    delta = DeltaSupport3(2, 2, 2)
    points = enumerate_soft_points(delta, 2000)
    assert pool_sizes == []
    # seven chunks each, and the same answers as one process
    assert scan_abc(600, Fraction(1), workers=100_000) == abc
    assert enumerate_soft_points(delta, 2000, workers=100_000) == points
    assert pool_sizes == [7, 7]


@pytest.mark.parametrize("ms", [(3, 1, 1), (1, 3, 1), (2, 2, 1), (2, 2, 2)])
def test_soft_points_agree_across_workers(pool_sizes, monkeypatch, ms):
    # one delta per loop order; the chunks split that order's outer role
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 7)
    delta = DeltaSupport3(*ms)
    single = enumerate_soft_points(delta, 400)
    assert enumerate_soft_points(delta, 400, workers=2) == single
    assert enumerate_soft_points(delta, 400, workers=3) == single
    assert enumerate_soft_points(delta, 400, positive_only=True, workers=3) == [
        p for p in single if 0 < p.a < p.c
    ]
    assert pool_sizes == [2, 3, 3]


def test_without_fork_the_work_runs_in_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was requested")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 4)
    assert _pool.fork_map(list, [8, 9, 10], 4) == [8, 9, 10]
    assert scan_abc(600, Fraction(1), workers=4) == scan_abc(600, Fraction(1))
    delta = DeltaSupport3(2, 2, 2)
    assert enumerate_soft_points(delta, 2000, workers=4) == enumerate_soft_points(delta, 2000)
