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
    monkeypatch.setattr(_pool, "_task", None)
    return sizes


def test_pool_size():
    cpus = _pool.usable_cpus()
    assert cpus >= 1
    assert _pool.pool_size(100_000, 10**6) == cpus
    assert _pool.pool_size(100_000, 1) == 1
    assert _pool.pool_size(0, 10) == 1


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
