"""The fork pool shared by the parallel scans."""

from __future__ import annotations

import os

# the callable a pool's workers run; set only inside the forked workers
_task = None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, otherwise the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int, tasks: int) -> int:
    """Processes worth starting for `tasks` independent pieces of work when
    `workers` were asked for: never more than the usable CPUs."""
    return max(1, min(workers, tasks, usable_cpus()))


def _install(func) -> None:
    global _task
    _task = func


def _run(args: tuple):
    return _task(*args)


def fork_starmap(func, arglists: list[tuple]) -> list:
    """[func(*args) for args in arglists], one forked process per entry.
    The workers inherit func with the parent's memory instead of having it
    pickled, so it may be a closure over large tables; only the argument
    tuples and the results travel between processes.  Where the platform
    cannot fork, the entries run one after the other in this process."""
    import multiprocessing  # only parallel runs pay for the import

    if "fork" not in multiprocessing.get_all_start_methods():
        return [func(*args) for args in arglists]
    with multiprocessing.get_context("fork").Pool(
        len(arglists), initializer=_install, initargs=(func,)
    ) as pool:
        return pool.map(_run, arglists)
