"""Record the reference digests of newly shipped seeds.

    python3 perfbench/record_reference.py SEED [SEED ...]

Runs every workload's op list once per seed and stores the per-op digests
in perfbench/reference_digests.json, packed as one string per seed.  Seeds
already present are checked, never overwritten: a reference changes only
by deleting its entry by hand, which a review will see.
"""

from __future__ import annotations

import json
import sys

import checks
import driver
import workloads


def main(argv: list[str]) -> int:
    driver.use_checkout()
    refs = json.loads(driver.REFERENCE.read_text()) if driver.REFERENCE.exists() else {}
    driver.OUT.mkdir(exist_ok=True)
    status = 0
    for name, build in workloads.BUILDERS.items():
        for seed in argv:
            wl = build(int(seed))
            try:
                outcomes = [checks.execute(op) for op in wl.ops]
            finally:
                wl.cleanup()
            packed = "".join(o.digest for o in outcomes)
            known = refs.setdefault(name, {}).get(seed)
            bad = [f"{op.name}: {o.detail}" for op, o in zip(wl.ops, outcomes) if not o.ok]
            if bad:
                print(f"{name} seed {seed}: unexpected outcomes {bad[:3]}", file=sys.stderr)
                status = 1
            elif known is None:
                refs[name][seed] = packed
                print(f"{name} seed {seed}: recorded {len(wl.ops)} ops")
            elif known != packed:
                print(f"{name} seed {seed}: differs from the committed reference", file=sys.stderr)
                status = 1
    for name in refs:
        refs[name] = dict(sorted(refs[name].items(), key=lambda kv: int(kv[0])))
    driver.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
