"""Finitely generated submonoids of N^d.

Membership is decided by bounded dynamic programming over the integer box
[0, v]: generators are nonnegative and nonzero, so nothing outside the box
can ever appear in a decomposition of v.  The DP table is cached on the
monoid and grown geometrically, which makes ray scans cheap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import mul

from . import _linalg
from .arith import _as_int
from .errors import BoundExceededError, InfiniteGapsError, MathDomainError, RayUnsupportedError, ResourceLimitError

# most cells of one reach table: a byte each, so 100 MB, and about 6-7 s a
# generator to fill at the measured 0.06-0.07 us a cell per generator
MAX_REACH_CELLS = 10**8

# most generator subsets one cone search may try: 0.1-0.45 ms each for unit
# generators at d = 8..15 (all 32767 at d = 15 take 14 s), up to 2 ms for
# 8-dimensional generators with entries up to 9, so about a minute at most
MAX_CONE_SUBSETS = 2**15


def _vector_text(v) -> str:
    """A lattice vector as it is written in files and tables: (1,0,2)."""
    return "(" + ",".join(map(str, v)) + ")"


class _ReachTable:
    """Reachability bits over the box [0, bound], row-major layout.  A box
    of more than MAX_REACH_CELLS cells is refused before it is allocated."""

    __slots__ = ("bound", "strides", "bits")

    def __init__(self, bound: tuple[int, ...], generators):
        self.bound = bound
        dims = [b + 1 for b in bound]
        strides = [0] * len(dims)
        acc = 1
        for i in range(len(dims) - 1, -1, -1):
            strides[i] = acc
            acc *= dims[i]
        self.strides = tuple(strides)
        if acc > MAX_REACH_CELLS:
            raise ResourceLimitError(
                f"membership in the box [0, {bound}] needs a table of {acc} cells; "
                f"the cap is {MAX_REACH_CELLS}"
            )
        bits = bytearray(acc)
        bits[0] = 1
        # {0} closed under each generator in turn: every partial sum of a
        # member stays in the box, and row-major order visits v - g before v
        for g in generators:
            off = sum(map(mul, g, strides))
            for head in product(*map(range, g, dims[:-1])):
                start = sum(map(mul, head, strides)) + g[-1]
                for i in range(start, start + dims[-1] - g[-1]):
                    if bits[i - off]:
                        bits[i] = 1
        self.bits = bits


@dataclass(frozen=True)
class LatticeMonoid:
    """Submonoid of N^d given by a finite generator list.  Construction
    deduplicates, drops generators that are combinations of the others
    (leaving the unique minimal generating set -- the monoid's irreducible
    elements) and sorts, so equal monoids compare equal."""

    dimension: int
    generators: tuple[tuple[int, ...], ...]
    # the reach table of the last box asked for; unannotated, so it is no
    # field: __init__, eq, hash, repr and dataclasses.replace ignore it
    _reach = None

    def __post_init__(self):
        object.__setattr__(self, "dimension", _as_int(self.dimension))
        if self.dimension < 1:
            raise MathDomainError(f"dimension must be a positive integer, got {self.dimension!r}")
        gens = []
        for g in self.generators:
            t = tuple(map(_as_int, g))
            if len(t) != self.dimension:
                raise MathDomainError(f"generator {t} has wrong dimension (want {self.dimension})")
            if any(x < 0 for x in t):
                raise MathDomainError(f"generator {t} has a negative coordinate")
            if all(x == 0 for x in t):
                raise MathDomainError("the zero vector is not allowed as a generator")
            gens.append(t)
        if not gens:
            raise MathDomainError("generator list must be nonempty")
        gens = sorted(set(gens))
        for g in sorted(gens, reverse=True):
            rest = [h for h in gens if h != g]
            # the corner cell of the box [0, g] is g itself
            if rest and _ReachTable(g, rest).bits[-1]:
                gens = rest
        object.__setattr__(self, "generators", tuple(gens))

    def _table(self, v) -> _ReachTable:
        reach = self._reach
        if reach and all(vi <= bi for vi, bi in zip(v, reach.bound)):
            return reach
        old = reach.bound if reach else (0,) * self.dimension
        # grow only the exceeded axes, geometrically, to amortize scans
        bound = tuple(bi if vi <= bi else max(vi, 2 * bi) for vi, bi in zip(v, old))
        if math.prod(b + 1 for b in bound) > MAX_REACH_CELLS:
            # growth alone never refuses: the largest box that fits the cap at
            # one common step t/top of the way from v (t = 0) to the grown box,
            # so a scan up to the cap builds a few tables, not one per query
            top, grown = max(b - x for b, x in zip(bound, v)) or 1, bound

            def box(t):
                return tuple(x + (b - x) * t // top for b, x in zip(grown, v))

            fit = bisect_right(range(top + 1), MAX_REACH_CELLS, key=lambda t: math.prod(c + 1 for c in box(t)))
            bound = box(max(fit - 1, 0))  # the steps 0..fit-1 fit the cap
        table = _ReachTable(bound, self.generators)
        object.__setattr__(self, "_reach", table)
        return table

    def member(self, v) -> bool:
        """True iff v is a nonnegative integer combination of the generators.

        >>> m = monoid((2, 0), (1, 1), (0, 2))
        >>> m.member((3, 1)), m.member([2, 1])
        (True, False)
        """
        while True:
            # a tuple of plain ints inside the cached box: one index loop
            table = self._reach
            if table and type(v) is tuple and len(v) == self.dimension:
                idx = 0
                for x, b, s in zip(v, table.bound, table.strides):
                    if type(x) is not int or not 0 <= x <= b:
                        break
                    idx += x * s
                else:
                    return table.bits[idx] == 1
            # anything else: normalise, check and grow the table to cover v
            v = tuple(map(_as_int, v))
            if len(v) != self.dimension:
                raise ValueError(f"vector {v} has wrong dimension (want {self.dimension})")
            if any(x < 0 for x in v):
                raise ValueError(f"vector {v} has a negative coordinate")
            self._table(v)  # _as_int gives plain ints: the next pass answers

    def __contains__(self, v) -> bool:
        return self.member(v)

    def contains(self, other: "LatticeMonoid") -> bool:
        """Monoid inclusion other <= self, decided on generators."""
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return all(self.member(g) for g in other.generators)

    def __str__(self):
        return f"<{' '.join(map(_vector_text, self.generators))}>"


def monoid(*generators, dimension: int | None = None) -> LatticeMonoid:
    """Convenience constructor; scalar generators build rank-one monoids.

    >>> monoid(2, 3).generators
    ((2,), (3,))
    """
    gens = [(g,) if isinstance(g, int) else tuple(g) for g in generators]
    if dimension is None:
        if not gens:
            raise ValueError("need at least one generator or an explicit dimension")
        dimension = len(gens[0])
    return LatticeMonoid(dimension, tuple(gens))


def cone_coefficients(gens, target) -> list[Fraction] | None:
    """Exact nonnegative rational coefficients writing target in the cone
    spanned by gens, or None when target is outside the cone.  Searches
    linearly independent generator subsets of size <= d (Caratheodory); a
    search over more than MAX_CONE_SUBSETS subsets is refused up front."""
    d, k = len(target), len(gens)
    if any(len(g) != d for g in gens):
        raise MathDomainError(f"generators must have as many coordinates as the target {tuple(target)}")
    # 2^k - 1 subsets in all: only a long generator list needs the sum
    if (1 << k) - 1 > MAX_CONE_SUBSETS:
        subsets = sum(math.comb(k, r) for r in range(1, min(d, k) + 1))
        if subsets > MAX_CONE_SUBSETS:
            raise ResourceLimitError(
                f"the cone search over {k} generators in dimension {d} would try "
                f"{subsets} generator subsets; the cap is {MAX_CONE_SUBSETS}"
            )
    for r in range(1, min(d, k) + 1):
        for subset in combinations(range(k), r):
            cols = [gens[i] for i in subset]
            lam = _linalg.solve_columns(cols, target)
            if lam is not None and all(x >= 0 for x in lam):
                full = [Fraction(0)] * len(gens)
                for i, x in zip(subset, lam):
                    full[i] = x
                return full
    return None


def _ray_cones(monoids, n):
    """The ray n as an integer tuple, with (monoid, cone coefficients of n)
    for each monoid whose rational cone contains it."""
    monoids = list(monoids)
    if not monoids:
        raise ValueError("need at least one monoid")
    n = tuple(map(_as_int, n))
    if not any(n):
        raise MathDomainError("ray must be nonzero")
    cones = []
    for m in monoids:
        if len(n) != m.dimension:
            raise MathDomainError(f"ray {n} has dimension {len(n)}, monoid has {m.dimension}")
        lam = cone_coefficients(m.generators, n)
        if lam is not None:
            cones.append((m, lam))
    return n, cones


def min_multiple(monoids, n) -> int:
    """Smallest k >= 1 with k*n a member of some monoid in the list.

    An exact rational cone pre-check proves that such a k exists: the lcm D
    of the cone coefficients' denominators makes D*n a member, so the scan
    stops at D.  Rays outside every cone raise RayUnsupportedError; a scan
    that passes D raises BoundExceededError, a bug, not a math condition.
    """
    n, cones = _ray_cones(monoids, n)
    if not cones:
        raise RayUnsupportedError(f"ray {n} is outside every rational cone")
    supported = [m for m, _ in cones]
    bound = min(math.lcm(*(x.denominator for x in lam)) for _, lam in cones)
    for k in range(1, bound + 1):
        kn = tuple(k * x for x in n)
        if any(m.member(kn) for m in supported):
            return k
    raise BoundExceededError(f"no multiple of {n} found up to its clearing multiple {bound}")


@dataclass(frozen=True)
class RayRestriction:
    """Membership of the multiples of a ray: bitmap[k] says whether k*ray
    lands in some monoid.  period is the smallest eventual period confirmed
    inside the window, or None if none was detected."""

    ray: tuple[int, ...]
    bitmap: tuple[bool, ...]
    period: int | None

    def gaps(self) -> set[int]:
        return {k for k, b in enumerate(self.bitmap) if not b}


def ray_restriction(monoids, n, bound: int) -> RayRestriction:
    """Scan k = 0..bound for membership of k*n in the monoid list."""
    n, cones = _ray_cones(monoids, n)
    if _as_int(bound) < 0:
        raise MathDomainError("bound must be nonnegative")
    # only monoids whose cone contains n can contain a positive multiple
    supported = [m for m, _ in cones]
    bits = [False] * (bound + 1)
    bits[0] = True
    for k in range(bound, 0, -1):  # descending: the DP cache is built once
        kn = tuple(k * x for x in n)
        bits[k] = any(m.member(kn) for m in supported)
    return RayRestriction(n, tuple(bits), _detect_period(bits))


def _detect_period(bits) -> int | None:
    # smallest p whose tail equalities bitmap[k] == bitmap[k+p] hold from
    # some k = t on, with at least one full period verified (t <= B - 2p)
    top = len(bits) - 1
    for p in range(1, top // 2 + 1):
        t = 0
        for k in range(top - p, -1, -1):
            if bits[k] != bits[k + p]:
                t = k + 1
                break
        if t <= top - 2 * p:
            return p
    return None


def gaps(m: LatticeMonoid) -> set[int]:
    """Finite complement N \\ m for a rank-one monoid with coprime generators."""
    if m.dimension != 1:
        raise ValueError("gap sets are defined for dimension 1 only")
    gens = sorted(g[0] for g in m.generators)
    if math.gcd(*gens) != 1:
        raise InfiniteGapsError(f"generators {gens} have gcd > 1: infinite gap set")
    # every gap lies below Schur's bound (g_min - 1)(g_max - 1) on the
    # Frobenius number (Brauer, Amer. J. Math. 64, 1942)
    top = (gens[0] - 1) * (gens[-1] - 1)
    bits = m._table((top,)).bits  # rank one: cell k is the integer k
    return {k for k in range(top) if not bits[k]}
