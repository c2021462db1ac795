"""The fork map shared by the parallel scans: the one place that decides how
many processes run and which items each one gets."""

from __future__ import annotations

import os

# (func, items, w) of the running map; set only inside the forked workers
_job = None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, otherwise the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _install(job: tuple) -> None:
    global _job
    _job = job


def _run(i: int) -> list:
    func, items, w = _job
    return func(items[i::w])


def fork_map(func, items, workers: int) -> list:
    """func(items[i::w]) for i < w, concatenated in that order, where
    w = max(1, min(workers, len(items), usable_cpus())) processes run one
    stride each.  The workers inherit func and items with the parent's
    memory instead of having them pickled, so func may be a closure over
    large tables; only the results travel back.  With w = 1, or where the
    platform cannot fork, func(items) runs in this process."""
    w = max(1, min(workers, len(items), usable_cpus()))
    if w > 1:
        import multiprocessing  # only parallel runs pay for the import

        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(
                w, initializer=_install, initargs=((func, items, w),)
            ) as pool:
                return [x for part in pool.map(_run, range(w)) for x in part]
    return func(items)
