"""constel benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it spawns the driver
SETUP_SAMPLES times, timing each from spawn to ``READY`` (set-up), lets the
last one measure for S seconds, and prints the end-to-end metrics.  With
``--trace 1`` it spawns one driver that interleaves untraced and traced
passes, and prints the per-layer metrics.  Every metric is printed by name
with its unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the full record (environment, per-op best latencies and digests, checks)
is written to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float):
    """Run one driver process; returns (set-up seconds, its last stdout line)."""
    cmd = [sys.executable, str(HERE / "driver.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "READY":
        raise RuntimeError(f"driver {mode} run of {workload} failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (lines[-1] if lines else "")


def environment() -> dict:
    def numpy_version():
        try:
            return metadata.version("numpy")
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def main(argv=None) -> int:
    # BENCHMARK.json declares the workloads and every metric with its unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/constel/__init__.py", "tests/_oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a constel checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    env = environment()
    env["loadavg_start"] = os.getloadavg()
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            _, line = spawn(args.workload, args.seed, "trace", args.seconds, deadline)
            setups = []
        else:
            setups = [spawn(args.workload, args.seed, "setup", 0, deadline)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup, line = spawn(args.workload, args.seed, "measure", args.seconds, deadline)
            setups.append(setup)
        child = json.loads(line)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()

    if args.trace:
        measured = child["per_layer"]
    else:
        measured = dict(child["end_to_end"], setup_s=statistics.median(setups))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    error_rate = child["failed"] / child["attempted"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": setups,
        "passes": child["passes"],
        "pass_wall_s": child["pass_wall_s"],
        "op_count": len(child["ops"]),
        "op_tail_pct": child["end_to_end"]["op_tail_pct"],
        "error_rate": error_rate,
        "reference_digests": child["reference"],
        "oracle_ok": child["oracle_ok"],
        "failures": child["failures"],
        "metrics": metrics,
        "ops": child["ops"],
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed}: {child['passes']} passes of {len(child['ops'])} ops, "
          f"tail at p{record['op_tail_pct']:.1f}, reference digests {child['reference']}, "
          f"oracle {'ok' if child['oracle_ok'] else 'FAILED'}, load {env['loadavg_start'][0]:.2f}"
          f"->{env['loadavg_end'][0]:.2f}")
    for failure in child["failures"]:
        print(f"# FAIL {failure}")
    for name, m in metrics.items():
        print(f"{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"error_rate\t{error_rate:.6g}\tratio")
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
