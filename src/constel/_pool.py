"""The fork map shared by the parallel scans: the one place that decides how
many processes run and which items each one gets."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, otherwise the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(func, items, workers: int) -> list:
    """func(items[i::w]) for i < w, concatenated in that order, where
    w = max(1, min(workers, len(items), usable_cpus())) processes run one
    stride each.  This process runs stride 0; strides 1..w-1 run in forked
    children, which inherit func and items with the parent's memory
    instead of having them pickled, so func may be a closure over large
    tables.  Each child pickles (ok, result or exception) into its own
    pipe and leaves through os._exit, so none of the parent's cleanup runs
    in it.  A child's exception is raised here with its type; a child that
    sends nothing (killed, or exited early) raises RuntimeError.  Every
    child is reaped before this returns or raises.  With w = 1, or where
    the platform cannot fork, func(items) runs in this process."""
    w = max(1, min(workers, len(items), usable_cpus()))
    if w == 1 or not hasattr(os, "fork"):
        return func(items)
    import pickle  # only parallel runs pay for the import

    pids: list[int] = []
    pipes: list[int] = []  # read ends not yet read, in stride order
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
            except BaseException:
                os.close(wr)
                raise
            if pid == 0:  # the child never returns from this block
                code = 1
                try:
                    for fd in pipes:
                        os.close(fd)
                    try:
                        out = (True, func(items[i::w]))
                    except BaseException as exc:  # the parent raises it
                        out = (False, exc)
                    with open(wr, "wb") as f:
                        pickle.dump(out, f, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            pids.append(pid)
        parts = [func(items[::w])]
        for i in range(1, w):
            with open(pipes.pop(0), "rb") as f:
                try:
                    ok, value = pickle.load(f)
                except (EOFError, pickle.UnpicklingError) as exc:
                    raise RuntimeError(f"worker {i} of {w} exited without a result") from exc
            if not ok:
                raise value
            parts.append(value)
    finally:
        # a child blocked on a full pipe gets EPIPE once its read end closes
        for fd in pipes:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return [x for part in parts for x in part]
