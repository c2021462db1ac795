"""The fork map shared by the parallel scans: the one place that decides how
many processes run, which items each one gets and where each one runs."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, otherwise the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin(cpu: int) -> bool:
    """Confine this process to one CPU; False where the platform has no
    affinity call or refuses it."""
    try:
        os.sched_setaffinity(0, (cpu,))
    except (AttributeError, OSError):
        return False
    return True


def fork_map(func, items, workers: int) -> list:
    """func(items[i::w]) for i < w, concatenated in that order, where
    w = max(1, min(workers, len(items), usable_cpus())) processes run one
    stride each.  This process runs stride 0; strides 1..w-1 run in forked
    children, which inherit func and items with the parent's memory
    instead of having them pickled, so func may be a closure over large
    tables.  Each child pickles (ok, result or exception) into its own
    pipe and leaves through os._exit, so none of the parent's cleanup runs
    in it.  A child's exception is raised here with its type; a child that
    sends nothing (killed, or exited early) raises RuntimeError.  A call
    that raises, here or in a child, first kills every child with SIGKILL
    rather than wait for its stride.  Every child is reaped before this
    returns or raises.  With w = 1, or where the platform cannot fork,
    func(items) runs in this process.

    Each process runs on a CPU of its own: where this process's affinity
    mask holds w CPUs or more, it runs stride 0 on the lowest and child i
    runs on the i-th after it, and this process gets its mask back before
    it returns or raises.  Left to the scheduler, a forked child often
    shared the parent's CPU and two strides took twice as long as one.
    Where the platform has no affinity call or refuses it, every process
    runs unpinned."""
    w = max(1, min(workers, len(items), usable_cpus()))
    if w == 1 or not hasattr(os, "fork"):
        return func(items)
    import pickle  # only parallel runs pay for the imports
    import signal

    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    cpus = sorted(mask)
    pinned = len(cpus) >= w and _pin(cpus[0])
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
                    if pinned:
                        _pin(cpus[i])
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
    except BaseException:
        # the answer is lost, so no stride still running is worth waiting for;
        # every pid is an unreaped child, so none can name another process
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in pipes:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
        if pinned:
            os.sched_setaffinity(0, mask)
    return [x for part in parts for x in part]
