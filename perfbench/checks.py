"""Op execution, output digests and failure accounting.

An op is one timed call into constel.  A CLI op runs ``constel.cli.main``
with stdout captured; its digest covers the captured bytes and the exit
code.  A library op calls the public API; its digest covers a canonical
text form of the result, or of the typed exception it raised.  Expected
typed outcomes (a ray outside every cone, say) are part of the digest and
are not failures; anything else that raises, or any digest that differs
from the committed reference, is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import io
import resource
import sys
import time
from fractions import Fraction
from typing import Callable

DIGEST_CHARS = 8  # hex characters kept per op digest (32 bits)


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed call, ``fn(*args)``.  ``fn`` is a callable or the name of
    a function in constel's public API, looked up at call time so that
    tracing wrappers installed after the op was built still see the call.
    A CLI op has ``fn = run_cli`` and the argv as its one argument and
    returns (stdout, exit code).  ``expect`` lists the exception types
    (library op) or extra exit codes (CLI op) that are expected outcomes
    rather than failures."""

    name: str
    fn: Callable | str
    args: tuple = ()
    expect: tuple = ()

    @property
    def cli(self) -> bool:
        return self.fn is run_cli


@dataclasses.dataclass
class Outcome:
    latency_s: float
    cpu_s: float
    digest: str
    ok: bool
    detail: str = ""


def run_cli(argv: list[str]) -> tuple[str, int]:
    """constel.cli.main(argv) with stdout and stderr captured."""
    from constel import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return out.getvalue(), code


def canonical(value) -> str:
    """Deterministic text form of a library result: sets are sorted,
    dataclasses print their compared fields, enums their qualified name."""
    if value is None or isinstance(value, bool):
        return {None: "none", True: "true", False: "false"}[value]
    if isinstance(value, (int, Fraction, str)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts = (
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
            if f.compare
        )
        return f"{type(value).__name__}(" + ",".join(parts) + ")"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def execute(op: Op) -> Outcome:
    """Run op once, timing it from outside, and check its outcome.  CPU time
    covers this process and the pool workers it waited for."""
    fn = getattr(sys.modules["constel"], op.fn) if isinstance(op.fn, str) else op.fn
    cpu0, kids0 = time.process_time(), _children_cpu()
    t0 = time.perf_counter()
    try:
        result = fn(*op.args)
        error = None
    except Exception as exc:  # a raised exception is an outcome to digest
        error = exc
    t1 = time.perf_counter()
    cpu = time.process_time() - cpu0 + _children_cpu() - kids0
    if error is not None:
        text = f"raise:{type(error).__name__}:{error}"
        ok = not op.cli and isinstance(error, op.expect)
        detail = "" if ok else f"unexpected {type(error).__name__}: {error}"
    elif op.cli:
        stdout, code = result
        text = f"{stdout}\nexit={code}"
        ok = code == 0 or code in op.expect
        detail = "" if ok else f"unexpected exit code {code}"
    else:
        text = "ok:" + canonical(result)
        ok, detail = True, ""
    return Outcome(t1 - t0, cpu, _digest(text), ok, detail)


def count_failures(
    names: list[str],
    passes: list[list[Outcome]],
    reference: list[str] | None,
) -> tuple[int, int, list[str]]:
    """Attempted and failed op executions over every pass, with reasons.

    An execution fails when its outcome was not an expected one, when its
    digest differs from the reference digest of that op, or -- for a seed
    without reference digests -- when it differs from the op's digest in
    the first pass (every pass must give the same answers)."""
    if reference is not None and len(reference) != len(names):
        reference = ["<op list changed>"] * len(names)
    attempted = failed = 0
    reasons: list[str] = []
    for p, outcomes in enumerate(passes):
        for i, out in enumerate(outcomes):
            attempted += 1
            want = reference[i] if reference is not None else passes[0][i].digest
            why = out.detail  # empty for an expected outcome
            if not why and out.digest != want:
                why = f"digest {out.digest} != {want}"
            if why:
                failed += 1
                if len(reasons) < 20:
                    reasons.append(f"pass {p} op {names[i]}: {why}")
    return attempted, failed, reasons
