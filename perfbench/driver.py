"""One benchmark process: set up a workload, then time its op list.

    python3 perfbench/driver.py --workload NAME --seed N --mode MODE --seconds S

The driver puts the checkout's ``src`` and ``tests`` on ``sys.path``,
builds the workload (imports, input generation, warm-up) and prints
``READY`` as soon as set-up is done, so the parent can time set-up from
process spawn.  In ``setup`` mode it then exits.  In ``measure`` mode it
runs the op list in passes until another pass would overrun S seconds
(at least MIN_PASSES passes), checks every output, runs the workload's
oracle cross-check, and prints one JSON object as its last line.
``trace`` mode follows every untraced pass with a traced one (span
tracing installed), checks that traced outputs equal untraced ones, and
adds the per-layer metrics of the first traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"
MIN_PASSES = 3


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile with at least ten samples
    beyond it, with that percentile; the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_passes(ops, seconds: float, traced: bool = False):
    """Passes over the op list until another would overrun ``seconds``.
    With ``traced``, each untraced pass is followed by a traced one, so the
    two kinds see the same load; the spans of the first traced pass are
    kept.  Returns (passes, traced passes, tracer or None)."""
    passes, traced_passes, kept = [], [], None
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append([checks.execute(op) for op in ops])
        if traced:
            tracer = spans.Tracer()
            gc.collect()
            traced_passes.append(trace_pass(ops, tracer))
            kept = kept or tracer
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes, traced_passes, kept


def trace_pass(ops, tracer):
    """One pass with every layer's public functions wrapped in spans."""
    tracer.install()
    try:
        out = []
        for i, op in enumerate(ops):
            tracer.op = i
            out.append(checks.execute(op))
        return out
    finally:
        tracer.uninstall()


def best(passes, field: str = "latency_s") -> list[float]:
    """Each op's smallest ``field`` over the passes.  Interference from
    other tenants only adds time, so the best pass is the steadiest
    estimate of what the op itself costs."""
    return [min(getattr(o, field) for o in col) for col in zip(*passes)]


def summarize(passes) -> dict:
    """End-to-end metrics of the passes: per-op best latency and CPU,
    summed over the op list for wall_s and cpu_s."""
    per_op = best(passes)
    t, pct = tail(per_op)
    self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "per_op_s": per_op,
        "wall_s": sum(per_op),
        "cpu_s": sum(best(passes, "cpu_s")),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": t * 1e3,
        "op_tail_pct": pct,
        "peak_rss_mb": (self_ru + kids_ru) / 1024,
    }


def use_checkout() -> None:
    """Import constel (and the test oracles) from this checkout's sources."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import constel

    if Path(constel.__file__).resolve().parent != (ROOT / "src" / "constel").resolve():
        raise SystemExit(f"imported constel from {constel.__file__}, not from this checkout")


def load_reference(workload: str, seed: int) -> list[str] | None:
    """The committed per-op digests of a shipped seed, or None."""
    refs = json.loads(REFERENCE.read_text())
    packed = refs.get(workload, {}).get(str(seed))
    if packed is None:
        return None
    n = checks.DIGEST_CHARS
    return [packed[i:i + n] for i in range(0, len(packed), n)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    use_checkout()
    OUT.mkdir(exist_ok=True)
    wl = workloads.BUILDERS[args.workload](args.seed)
    print("READY", flush=True)
    try:
        if args.mode == "setup":
            return 0
        result = measure(wl, args)
    finally:
        wl.cleanup()
    print(json.dumps(result), flush=True)
    return 0


def measure(wl, args) -> dict:
    names = [op.name for op in wl.ops]
    passes, traced, tracer = run_passes(wl.ops, args.seconds, traced=args.mode == "trace")
    summary = summarize(passes)
    reference = load_reference(wl.name, args.seed)
    attempted, failed, failures = checks.count_failures(names, passes, reference)

    first = dict(zip(names, (o.digest for o in passes[0])))
    for a, b in wl.same_output:
        attempted += 1
        if first[a] != first[b]:
            failed += 1
            failures.append(f"{a} and {b} differ: {first[a]} != {first[b]}")

    result = {
        "passes": len(passes),
        "pass_wall_s": [sum(o.latency_s for o in p) for p in passes],
        "ops": [
            {"name": n, "best_ms": s * 1e3, "digest": d}
            for n, s, d in zip(names, summary.pop("per_op_s"), first.values())
        ],
        "end_to_end": summary,
        "reference": "absent" if reference is None else "compared",
    }
    if tracer is not None:
        # traced outputs must equal the untraced ones, op by op
        t_attempted, t_failed, t_failures = checks.count_failures(names, traced, list(first.values()))
        attempted += t_attempted
        failed += t_failed
        failures.extend(f"traced {f}" for f in t_failures)
        layers = spans.layer_metrics(tracer)
        layers["trace_overhead_s"] = sum(best(traced)) - summary["wall_s"]
        result["per_layer"] = layers
        tracer.write(OUT / f"{wl.name}-seed{args.seed}-spans.tsv.gz", names)

    oracle = wl.oracle()
    attempted += 1
    failed += bool(oracle)
    failures.extend(oracle)
    result.update(attempted=attempted, failed=failed, failures=failures, oracle_ok=not oracle)
    return result


if __name__ == "__main__":
    sys.exit(main())
