"""The four seeded workloads.

Each builder takes the seed (and a size scale, 1.0 for the benchmark and
smaller in the benchmark's own tests), generates its inputs, does its
warm-up, and returns the op list plus an oracle cross-check at reduced
size.  Everything a builder does counts as set-up.  The seed picks the
random objects and shifts scan sizes by up to SIZE_SHIFT either way, so a
claim can be checked on a seed it was not tuned on.
"""

from __future__ import annotations

import dataclasses
import math
import random
import shutil
from pathlib import Path
from typing import Callable

from checks import Op, execute, run_cli

SIZE_SHIFT = 0.02


@dataclasses.dataclass
class Workload:
    name: str
    ops: list[Op]
    oracle: Callable[[], list[str]]  # problems found; empty when it agrees
    same_output: list[tuple[str, str]] = dataclasses.field(default_factory=list)
    cleanup: Callable[[], None] = lambda: None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _sized(base: float, rng: random.Random) -> int:
    return max(2, round(base * (1 + rng.uniform(-SIZE_SHIFT, SIZE_SHIFT))))


def _cli(name: str, argv: list[str], expect: tuple = ()) -> Op:
    return Op(name, run_cli, (tuple(argv),), expect)


def _tsv_rows(stdout: str) -> list[list[str]]:
    return [ln.split("\t") for ln in stdout.splitlines() if ln and not ln.startswith("#")]


def _oracles():
    import _oracles  # tests/_oracles.py, put on sys.path by the driver

    return _oracles


# -- abc-line: the two quadratic scans of heights -----------------------------


def abc_line(seed: int, scale: float = 1.0) -> Workload:
    rng = _rng("abc-line", seed)
    max_c = str(_sized(30000 * scale, rng))
    vojta_c = str(_sized(3000 * scale, rng))
    oracle_c = _sized(1500 * scale, rng)
    ops = [
        _cli("abc-scan-q6/5", ["abc-scan", "--max-c", max_c, "--min-quality", "6/5"]),
        _cli("abc-scan-q1", ["abc-scan", "--max-c", max_c, "--min-quality", "1"]),
        _cli("abc-scan-q1-w2", ["abc-scan", "--max-c", max_c, "--min-quality", "1", "--workers", "2"]),
        _cli("vojta-gap", ["vojta-gap", "--eps-prime", "0.2", "--max-c", vojta_c]),
    ]

    def oracle() -> list[str]:
        stdout, code = run_cli(["abc-scan", "--max-c", str(oracle_c), "--min-quality", "1"])
        got = {tuple(int(x) for x in row[:4]) for row in _tsv_rows(stdout)}
        want = _oracles().brute_abc_set(oracle_c, 1, 1)
        if code != 0 or got != want:
            return [f"abc-scan --max-c {oracle_c} --min-quality 1 differs from brute_abc_set"]
        return []

    return Workload("abc-line", ops, oracle, same_output=[("abc-scan-q1", "abc-scan-q1-w2")])


# -- soft-enum: candidate generation, factorization and formatting ------------


def soft_enum(seed: int, scale: float = 1.0) -> Workload:
    rng = _rng("soft-enum", seed)
    big = str(_sized(500_000 * scale, rng))
    small = str(_sized(1400 * scale, rng))
    oracle_max = _sized(120 * scale, rng)
    ops = [
        _cli("enum-222", ["enumerate", "--delta", "2,2,2", "--max", big]),
        _cli("enum-222-jsonl-w2", ["enumerate", "--delta", "2,2,2", "--max", big, "--format", "jsonl", "--workers", "2"]),
        _cli("enum-131", ["enumerate", "--delta", "1,3,1", "--max", small]),
        _cli("enum-311", ["enumerate", "--delta", "3,1,1", "--max", small]),
    ]

    def oracle() -> list[str]:
        stdout, code = run_cli(["enumerate", "--delta", "1,3,1", "--max", str(oracle_max)])
        got = [(int(row[0]), int(row[1])) for row in _tsv_rows(stdout)]
        want = _oracles().brute_soft_points(1, 3, 1, oracle_max)
        if code != 0 or got != want:
            return [f"enumerate --delta 1,3,1 --max {oracle_max} differs from brute_soft_points"]
        return []

    return Workload("soft-enum", ops, oracle)


# -- shared generators for the lattice workloads -------------------------------


def _exponent_map(rng: random.Random, rows: int, cols: int, hi: int) -> tuple:
    """Random nonnegative rows x cols matrix with no all-zero column."""
    while True:
        m = tuple(tuple(rng.randint(0, hi) for _ in range(cols)) for _ in range(rows))
        if all(any(r[j] for r in m) for j in range(cols)):
            return m


def _vector(rng: random.Random, dim: int, hi: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(0, hi) for _ in range(dim))
        if any(v):
            return v


def _firmament(maps):
    from constel import ExponentMap, base_firmament

    return base_firmament([ExponentMap(m) for m in maps])


def _uniform_maps(rng: random.Random, draw: Callable[[], tuple], count: int) -> tuple:
    """``count`` exponent maps from ``draw`` whose firmament keeps every
    monoid with every column as a minimal generator.  Fixing that shape
    keeps the cost of the queries on it steady from seed to seed."""
    while True:
        maps = tuple(draw() for _ in range(count))
        firm = _firmament(maps)
        if len(firm.monoids) == count and all(
            len(m.generators) == len(maps[0][0]) for m in firm.monoids
        ):
            return maps


# Library ops of lattice-build: each builds its objects from raw tuples, so
# every call starts with cold reach tables.


def _restrict(maps, ray, bound):
    from constel import ray_restriction

    return ray_restriction(_firmament(maps).monoids, ray, bound)


def _multiplicity(maps, ray):
    from constel import multiplicity_at

    return multiplicity_at(_firmament(maps), ray)


def _gaps(gens):
    from constel import gaps, monoid

    return gaps(monoid(*gens))


def _box_problems(monoid, box) -> list[str]:
    """Membership of every point of [0, box] against bfs_reachable."""
    from itertools import product

    reach = _oracles().bfs_reachable(monoid.generators, box)
    bad = [v for v in product(*(range(b + 1) for b in box)) if monoid.member(v) != (v in reach)]
    return [f"{monoid} disagrees with bfs_reachable at {bad[:3]}"] if bad else []


# -- lattice-build: reach-table construction from fresh objects ----------------

# Fixed directions, so the reach-table box of each ray_restriction op (and
# with it the op's cost) is the same on every seed; the seed picks the
# monoids.  These ops are the heaviest of the workload and all alike, so
# op_tail_ms falls inside one large homogeneous group.
RESTRICTION_RAYS = ((2, 3), (3, 2))


def _full_cone_map(rng: random.Random, hi: int) -> tuple:
    """2 x 3 exponent matrix whose columns include one generator on each
    axis, so the monoid's cone is the whole quadrant and every ray is
    supported.  The columns generate the whole lattice Z^2, so the share of
    reachable cells, and with it the cost of a table build, varies little
    from seed to seed."""
    while True:
        x, y, a, b = (rng.randint(lo, hi) for lo in (3, 3, 1, 1))
        if math.gcd(x * y, x * b, y * a) == 1:
            return ((x, 0, a), (0, y, b))


def lattice_build(seed: int, scale: float = 1.0, workdir: Path | None = None) -> Workload:
    from constel import RayUnsupportedError

    rng = _rng("lattice-build", seed)
    ops: list[Op] = []
    for i, ray in enumerate(RESTRICTION_RAYS * 27):
        maps = _uniform_maps(rng, lambda: _full_cone_map(rng, 7), 2)
        bound = _sized(45 * scale, rng)
        ops.append(Op(f"ray-restriction-{i}", _restrict, (maps, ray, bound)))
    for i in range(120):
        maps = _uniform_maps(rng, lambda: _exponent_map(rng, 3, 4, 3), 2)
        ray = _vector(rng, 3, 1)
        ops.append(Op(f"multiplicity-3d-{i}", _multiplicity, (maps, ray), (RayUnsupportedError,)))
    for i in range(12):
        while True:
            gens = sorted(rng.sample(range(20, 121), 3))
            if math.gcd(*gens) == 1:
                break
        ops.append(Op(f"gaps-{i}", _gaps, (tuple(gens),)))

    owned = workdir is None
    if owned:
        import tempfile

        workdir = Path(tempfile.mkdtemp(prefix="firm-", dir=Path(__file__).parent / "out"))
    for i in range(6):
        lines = ["dim 2"]
        for _ in range(rng.randint(2, 3)):
            gens = {_vector(rng, 2, 8) for _ in range(rng.randint(2, 3))}
            lines.append("2; " + " ".join(f"({x},{y})" for x, y in sorted(gens)))
        path = workdir / f"firm-{i}.txt"
        path.write_text("\n".join(lines) + "\n")
        rays = ";".join("(%d,%d)" % _vector(rng, 2, 4) for _ in range(5))
        ops.append(_cli(f"cli-firmament-{i}", ["firmament", str(path), "--rays", rays], expect=(3,)))

    def oracle() -> list[str]:
        from constel import LatticeMonoid

        gens = _firmament([_exponent_map(rng, 2, 3, 6)]).monoids[0].generators
        return _box_problems(LatticeMonoid(2, gens), (40, 40))

    def cleanup() -> None:
        if owned:
            shutil.rmtree(workdir, ignore_errors=True)

    return Workload("lattice-build", ops, oracle, cleanup=cleanup)


# -- lattice-query: many small reads against warm tables ----------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _constellation_class(firm, rays, genus):
    """Boundary coefficients at the rays, turned into a profile and classified."""
    from constel import MultiplicityProfile, classify, supported_constellation

    coeffs = supported_constellation(firm, rays)
    mults = [(1 / (1 - c)).numerator for _, c in coeffs]
    return coeffs, classify(MultiplicityProfile.of(genus, mults))


def lattice_query(seed: int, scale: float = 1.0) -> Workload:
    from constel import ExponentMap, RayUnsupportedError, ReductionDatum

    rng = _rng("lattice-query", seed)
    firms = {
        2: [_firmament(_uniform_maps(rng, lambda: _exponent_map(rng, 2, 3, 6), 3)) for _ in range(8)],
        3: [_firmament(_uniform_maps(rng, lambda: _exponent_map(rng, 3, 4, 3), 2)) for _ in range(8)],
    }
    box = {2: 48, 3: 14}
    for d, fs in firms.items():
        for f in fs:
            for m in f.monoids:
                m.member((box[d],) * d)  # builds the table over the whole box

    def pick(d):
        return rng.choice(firms[d])

    def point(d, hi=None):
        return tuple(rng.randint(0, hi or box[d]) for _ in range(d))

    # Most ops are cheap warm reads, so op_p50_ms sits inside that group
    # rather than on the step up to the cone_coefficients-bound ops.
    n = max(1, round(100 * scale))
    ops: list[Op] = []
    for i in range(3 * n):
        d = rng.choice((2, 3))
        f, ray = pick(d), _vector(rng, d, 3)
        ops.append(Op(f"multiplicity-{i}", "multiplicity_at", (f, ray), (RayUnsupportedError,)))
    for i in range(4 * n):
        d = rng.choice((2, 3))
        f = pick(d)
        reds = tuple(ReductionDatum(rng.choice(SMALL_PRIMES), point(d)) for _ in range(2))
        ops.append(Op(f"firm-integral-{i}", "firm_integral_test", (f, reds)))
    for i in range(4 * n):
        d = rng.choice((2, 3))
        f = ExponentMap(_exponent_map(rng, d, d, 2))
        v = point(d, hi=box[d] // (2 * d))
        target = pick(d)
        ops.append(Op(f"induced-{i}", "induced_membership", (f, target, v)))
    for i in range(n):
        d = rng.choice((2, 3))
        f = ExponentMap(_exponent_map(rng, d, d, 2))
        source = _firmament([_exponent_map(rng, d, d + 1, 2)])
        target = pick(d)
        ops.append(Op(f"morphism-{i}", "morphism_check", (f, source, target)))
    for i in range(n):
        d = rng.choice((2, 3))
        f = pick(d)
        rays = tuple(_vector(rng, d, 2) for _ in range(3))
        genus = rng.randint(0, 1)
        ops.append(Op(f"constellation-{i}", _constellation_class, (f, rays, genus), (RayUnsupportedError,)))

    for op in ops:  # warm-up: every table any query touches is built here
        execute(op)

    def oracle() -> list[str]:
        return _box_problems(firms[3][0].monoids[0], (box[3],) * 3)

    return Workload("lattice-query", ops, oracle)


BUILDERS = {
    "abc-line": abc_line,
    "soft-enum": soft_enum,
    "lattice-build": lattice_build,
    "lattice-query": lattice_query,
}
