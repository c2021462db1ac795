"""The fork map: its process count is clamped to the usable CPUs, no worker
count changes an answer, and a failing stride -- in a child or in this
process -- fails the call instead of hanging it, with no child left behind.
The items are small, so the real forks counted here are cheap."""

import os
import signal
from fractions import Fraction

import pytest

from constel import _pool, cli, heights
from constel.errors import ResourceLimitError
from constel.heights import scan_abc
from constel.softpoints import DeltaSupport3, enumerate_soft_points

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")


class Forks:
    """The processes forked while a test runs; take() returns how many were
    forked since the last take()."""

    def __init__(self):
        self.count = 0

    def take(self) -> int:
        n, self.count = self.count, 0
        return n


@pytest.fixture
def forks(monkeypatch):
    seen = Forks()
    real = os.fork

    def counting():
        pid = real()
        if pid:
            seen.count += 1
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return seen


class Hung(BaseException):
    """Raised by the alarm; a BaseException, so no `except Exception` in the
    code under test can turn a hang into a pass."""


@pytest.fixture
def deadline():
    """Fail the test after 20 s instead of stalling the suite."""

    def expire(signum, frame):
        raise Hung("fork_map did not return within 20 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_size(forks, monkeypatch):
    assert _pool.usable_cpus() >= 1
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 7)
    items = list(range(1000))
    # clamped to the usable CPUs, then to the item count; this process runs
    # one stride, so w processes take w - 1 forks
    counts = []
    for xs in (items, items[:3]):
        assert sorted(_pool.fork_map(list, xs, 100_000)) == xs
        counts.append(forks.take())
    assert counts == [6, 2]
    # one item, or no more than one worker asked for, runs in this process
    assert _pool.fork_map(list, items[:1], 100_000) == items[:1]
    for workers in (1, 0, -5):
        assert _pool.fork_map(list, items, workers) == items
    assert forks.take() == 0
    assert_no_children()


@pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 50])
def test_strides_cover_every_item_once(forks, monkeypatch, n):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 7)
    items = [f"item{i}" for i in range(n)]
    for workers in range(1, 10):
        got = _pool.fork_map(list, items, workers)
        assert sorted(got) == sorted(items)
        w = max(1, min(workers, n, 7))
        assert got == [x for i in range(w) for x in items[i::w]]
        assert forks.take() == w - 1


def test_huge_worker_counts_are_clamped(forks, monkeypatch):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 7)
    abc = scan_abc(600, Fraction(1))
    delta = DeltaSupport3(2, 2, 2)
    points = enumerate_soft_points(delta, 2000)
    assert forks.take() == 0
    # seven strides each, and the same answers as one process
    assert scan_abc(600, Fraction(1), workers=100_000) == abc
    assert forks.take() == 6
    assert enumerate_soft_points(delta, 2000, workers=100_000) == points
    assert forks.take() == 6


@pytest.mark.parametrize("ms", [(3, 1, 1), (1, 3, 1), (2, 2, 1), (2, 2, 2)])
def test_soft_points_agree_across_workers(forks, monkeypatch, ms):
    # one delta per loop order; the strides split that order's outer role
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 7)
    delta = DeltaSupport3(*ms)
    single = enumerate_soft_points(delta, 400)
    assert enumerate_soft_points(delta, 400, workers=2) == single
    assert enumerate_soft_points(delta, 400, workers=3) == single
    assert enumerate_soft_points(delta, 400, positive_only=True, workers=3) == [
        p for p in single if 0 < p.a < p.c
    ]
    assert forks.take() == 1 + 2 + 2


def test_without_fork_the_work_runs_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 4)
    assert _pool.fork_map(list, [8, 9, 10], 4) == [8, 9, 10]
    assert scan_abc(600, Fraction(1), workers=4) == scan_abc(600, Fraction(1))
    delta = DeltaSupport3(2, 2, 2)
    assert enumerate_soft_points(delta, 2000, workers=4) == enumerate_soft_points(delta, 2000)


def in_child(parent: int, fail):
    """A stride function that runs fail() in every forked child and returns
    its part unchanged in the parent."""

    def stride(part):
        if os.getpid() != parent:
            fail()
        return list(part)

    return stride


def refuse():
    raise ResourceLimitError("stride 1 refuses")


class TestFailures:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, deadline):
        monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)

    def test_a_dead_child_raises_instead_of_hanging(self):
        with pytest.raises(RuntimeError, match="worker 1 of 2 exited without a result"):
            _pool.fork_map(in_child(os.getpid(), lambda: os._exit(7)), [0, 1], 2)
        assert_no_children()

    def test_a_child_exception_keeps_its_type(self):
        with pytest.raises(ResourceLimitError, match="stride 1 refuses"):
            _pool.fork_map(in_child(os.getpid(), refuse), [0, 1], 2)
        assert_no_children()

    def test_the_parent_stride_fails_while_a_child_fills_its_pipe(self):
        parent = os.getpid()

        def stride(part):
            if os.getpid() == parent:
                raise ValueError("stride 0 fails")
            return list(range(100_000))  # far more than a 64 KB pipe holds

        with pytest.raises(ValueError, match="stride 0 fails"):
            _pool.fork_map(stride, [0, 1], 2)
        assert_no_children()

    @pytest.mark.parametrize("fail, code", [(lambda: os._exit(7), 1), (refuse, 4)], ids=["dead", "refused"])
    def test_the_cli_exits_with_the_child_failure_code(self, monkeypatch, capsys, fail, code):
        parent, chunk = os.getpid(), heights._scan_abc_chunk

        def failing(*args):
            if os.getpid() != parent:
                fail()
            return chunk(*args)

        monkeypatch.setattr(heights, "_scan_abc_chunk", failing)
        argv = ["abc-scan", "--max-c", "300", "--min-quality", "1", "--workers", "2"]
        assert cli.main(argv) == code
        assert capsys.readouterr().out == ""
        assert_no_children()
