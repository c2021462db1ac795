"""Finitely generated submonoids of N^d.

Membership is decided by bounded dynamic programming over the integer box
[0, v]: generators are nonnegative and nonzero, so nothing outside the box
can ever appear in a decomposition of v.  The DP table is cached on the
monoid and grown geometrically, which makes ray scans cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from . import _linalg
from .errors import BoundExceededError, InfiniteGapsError, MathDomainError, RayUnsupportedError

DEFAULT_MULTIPLE_CAP = 10**6


class _ReachTable:
    """Reachability bits over the box [0, bound], row-major layout."""

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
        bits = bytearray(acc)
        bits[0] = 1
        gens = [
            (g, sum(gi * si for gi, si in zip(g, strides)))
            for g in generators
            if all(gi <= bi for gi, bi in zip(g, bound))
        ]
        if gens:
            for idx, v in enumerate(product(*(range(n) for n in dims))):
                if idx == 0:
                    continue
                for g, off in gens:
                    ok = True
                    for vi, gi in zip(v, g):
                        if vi < gi:
                            ok = False
                            break
                    if ok and bits[idx - off]:
                        bits[idx] = 1
                        break
        self.bits = bits

    def covers(self, v) -> bool:
        return all(vi <= bi for vi, bi in zip(v, self.bound))

    def get(self, v) -> bool:
        return bool(self.bits[sum(vi * si for vi, si in zip(v, self.strides))])


@dataclass(frozen=True)
class LatticeMonoid:
    """Submonoid of N^d given by a finite generator list.  Construction
    deduplicates, drops generators that are combinations of the others
    (leaving the unique minimal generating set -- the monoid's irreducible
    elements) and sorts, so equal monoids compare equal."""

    dimension: int
    generators: tuple[tuple[int, ...], ...]
    _cache: list = field(default_factory=list, compare=False, repr=False, hash=False)

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise MathDomainError(f"dimension must be a positive integer, got {self.dimension!r}")
        gens = []
        for g in self.generators:
            t = tuple(int(x) for x in g)
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
            if rest and _ReachTable(g, rest).get(g):
                gens = rest
        object.__setattr__(self, "generators", tuple(gens))

    def _table(self, v) -> _ReachTable:
        cache = self._cache
        if cache and cache[0].covers(v):
            return cache[0]
        old = cache[0].bound if cache else (0,) * self.dimension
        # grow only the exceeded axes, geometrically, to amortize scans
        bound = tuple(bi if vi <= bi else max(vi, 2 * bi) for vi, bi in zip(v, old))
        table = _ReachTable(bound, self.generators)
        cache.clear()
        cache.append(table)
        return table

    def member(self, v) -> bool:
        """True iff v is a nonnegative integer combination of the generators."""
        v = tuple(int(x) for x in v)
        if len(v) != self.dimension:
            raise ValueError(f"vector {v} has wrong dimension (want {self.dimension})")
        if any(x < 0 for x in v):
            raise ValueError(f"vector {v} has a negative coordinate")
        return self._table(v).get(v)

    def __contains__(self, v) -> bool:
        return self.member(v)

    def contains(self, other: "LatticeMonoid") -> bool:
        """Monoid inclusion other <= self, decided on generators."""
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return all(self.member(g) for g in other.generators)

    def __str__(self):
        gens = " ".join("(" + ",".join(map(str, g)) + ")" for g in self.generators)
        return f"<{gens}>"


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
    linearly independent generator subsets of size <= d (Caratheodory)."""
    d = len(target)
    for r in range(1, min(d, len(gens)) + 1):
        for subset in combinations(range(len(gens)), r):
            cols = [gens[i] for i in subset]
            lam = _linalg.solve_columns(cols, target)
            if lam is not None and all(x >= 0 for x in lam):
                full = [Fraction(0)] * len(gens)
                for i, x in zip(subset, lam):
                    full[i] = x
                return full
    return None


def _clearing_multiple(lam) -> int:
    return math.lcm(*(x.denominator for x in lam))


def min_multiple(monoids, n, cap: int = DEFAULT_MULTIPLE_CAP) -> int:
    """Smallest k >= 1 with k*n a member of some monoid in the list.

    An exact rational cone pre-check guarantees such a k exists (and bounds
    it by a denominator-clearing multiple); rays outside every cone raise
    RayUnsupportedError, and hitting the safety cap raises
    BoundExceededError, which indicates a bug rather than a math condition.
    """
    monoids = list(monoids)
    if not monoids:
        raise ValueError("need at least one monoid")
    n = tuple(int(x) for x in n)
    if all(x == 0 for x in n):
        raise MathDomainError("ray must be nonzero")
    supported = []
    bound = None
    for m in monoids:
        if len(n) != m.dimension:
            raise ValueError("dimension mismatch")
        lam = cone_coefficients(m.generators, n)
        if lam is not None:
            supported.append(m)
            k0 = _clearing_multiple(lam)
            bound = k0 if bound is None else min(bound, k0)
    if not supported:
        raise RayUnsupportedError(f"ray {n} is outside every rational cone")
    for k in range(1, min(bound, cap) + 1):
        kn = tuple(k * x for x in n)
        if any(m.member(kn) for m in supported):
            return k
    raise BoundExceededError(
        f"no multiple of {n} found up to {min(bound, cap)}; clearing bound was {bound}"
    )


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
    monoids = list(monoids)
    n = tuple(int(x) for x in n)
    if all(x == 0 for x in n):
        raise ValueError("ray must be nonzero")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    # only monoids whose cone contains n can contain a positive multiple
    supported = [m for m in monoids if cone_coefficients(m.generators, n) is not None]
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
    gmin, gmax = gens[0], gens[-1]
    if gmin == 1:
        return set()
    cap = 2 * gmax * gmax + 2 * gmax + 1  # above the Erdos-Graham Frobenius bound
    reach = [True]
    run = 0
    for k in range(1, cap + 1):
        r = any(k >= g and reach[k - g] for g in gens)
        reach.append(r)
        run = run + 1 if r else 0
        if run == gmin:
            return {j for j in range(1, k + 1) if not reach[j]}
    raise BoundExceededError(f"no run of {gmin} members below {cap}")  # pragma: no cover
