"""Soft integral points on the projective line over the rationals.

A rational point a/c written in lowest terms meets the standard boundary
0, 1, infinity in the three integers a, b = c - a, c: a prime dividing one
of them is a prime of common reduction with the corresponding boundary
point, with intersection multiplicity the p-adic valuation.  Softness at
multiplicity m asks every such valuation to be at least m, i.e. the value
to be m-powerful.  General supports reduce to the same valuation condition
on the cross-determinant a*v - c*u against each support point (u:v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._pool import fork_starmap, pool_size
from .arith import (
    INFINITY,
    check_multiplicity,
    factorize,
    is_n_powerful,
    powerful_numbers,
    radical,
)
from .errors import MathDomainError, PointOnBoundaryError

BOUND_CHECK_TOLERANCE = 1e-9


@dataclass(frozen=True)
class P1PointQ:
    """Point (a : c) of the projective line in lowest terms, with canonical
    sign: c > 0, or c = 0 and a = 1 for the point at infinity.  Arbitrary
    integer input is reduced at construction."""

    a: int
    c: int

    def __post_init__(self):
        a, c = int(self.a), int(self.c)
        if a == 0 and c == 0:
            raise ValueError("(0, 0) defines no projective point")
        g = gcd(abs(a), abs(c))
        a //= g
        c //= g
        if c < 0 or (c == 0 and a < 0):
            a, c = -a, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def b(self) -> int:
        """Third coordinate of the avatar triple: b = c - a."""
        return self.c - self.a

    @property
    def is_infinity(self) -> bool:
        return self.c == 0

    def value(self) -> Fraction:
        if self.is_infinity:
            raise ZeroDivisionError("point at infinity has no affine value")
        return Fraction(self.a, self.c)

    def __str__(self):
        return f"({self.a}:{self.c})"


@dataclass(frozen=True)
class DeltaSupport3:
    """Multiplicities at the three standard points 0, 1, infinity."""

    n0: int | float
    n1: int | float
    n_inf: int | float

    def __post_init__(self):
        for m in (self.n0, self.n1, self.n_inf):
            check_multiplicity(m)

    @property
    def is_trivial(self) -> bool:
        return self.n0 == 1 and self.n1 == 1 and self.n_inf == 1

    def as_tuple(self):
        return (self.n0, self.n1, self.n_inf)


@dataclass(frozen=True)
class GeneralDeltaQ:
    """Support at arbitrary rational points with multiplicities >= 2 (or
    infinite), together with a finite prime set S.  S must contain every
    prime at which two support points share a reduction, so that at most
    one support point meets any given reduction outside S."""

    support: tuple[tuple[P1PointQ, int | float], ...]
    primes: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "primes", frozenset(self.primes))
        sup = tuple(self.support)
        object.__setattr__(self, "support", sup)
        for _, m in sup:
            check_multiplicity(m, minimum=2)
        pts = [z for z, _ in sup]
        if len(set(pts)) != len(pts):
            raise ValueError("support points must be pairwise distinct")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                res = abs(pts[i].a * pts[j].c - pts[j].a * pts[i].c)
                for p, _ in factorize(res).factors:
                    if p not in self.primes:
                        raise ValueError(
                            f"support points {pts[i]} and {pts[j]} collide at {p}; "
                            f"add it to S"
                        )


def _meets_boundary_value(value: int, m, excluded=frozenset()) -> bool:
    """Softness of one intersection: every prime valuation of value outside
    the excluded set must reach m (no prime at all, for infinite m)."""
    if value == 0:
        raise PointOnBoundaryError("point lies on the boundary divisor")
    value = abs(value)
    for p in excluded:
        while value % p == 0:
            value //= p
    if m == INFINITY:
        return value == 1
    return is_n_powerful(value, m)


def is_soft_integral_3pt(point: P1PointQ, delta: DeltaSupport3) -> bool:
    """Soft test against the standard support: |a| must be n0-powerful,
    |b| = |c - a| must be n1-powerful, |c| must be n_inf-powerful (a unit
    for infinite multiplicity).  Points equal to 0, 1 or infinity make one
    of the values vanish and are rejected as lying on the boundary."""
    a, b, c = point.a, point.b, point.c
    if a == 0 or b == 0 or c == 0:
        raise PointOnBoundaryError(f"{point} lies on the standard boundary")
    return (
        _meets_boundary_value(a, delta.n0)
        and _meets_boundary_value(b, delta.n1)
        and _meets_boundary_value(c, delta.n_inf)
    )


def _intersection_value(point: P1PointQ, z: P1PointQ) -> int:
    return point.a * z.c - point.c * z.a


def is_soft_integral_general(point: P1PointQ, delta: GeneralDeltaQ) -> bool:
    """Soft test against an arbitrary support: for every support point z and
    every prime p outside S dividing the cross-determinant, the valuation
    must be at least m_z."""
    for z, m in delta.support:
        if not _meets_boundary_value(_intersection_value(point, z), m, delta.primes):
            return False
    return True


def is_soft_integral_weighted(point: P1PointQ, delta: GeneralDeltaQ) -> bool:
    """Weighted variant: at every prime p outside S the sum of v_p / m_z
    over the support must reach 1 whenever some term is positive.  With the
    disjointness the type guarantees, at most one term is nonzero per prime,
    so this is implied by the plain soft test."""
    by_prime: dict[int, Fraction] = {}
    for z, m in delta.support:
        val = _intersection_value(point, z)
        if val == 0:
            raise PointOnBoundaryError(f"{point} equals the support point {z}")
        for p, e in factorize(abs(val)).factors:
            if p in delta.primes:
                continue
            if m == INFINITY:
                return False
            by_prime[p] = by_prime.get(p, Fraction(0)) + Fraction(e, m)
    return all(total >= 1 for total in by_prime.values())


def _candidate_values(m, limit: int) -> list[int]:
    if m == INFINITY:
        return [1]
    if m == 1:
        return list(range(1, limit + 1))
    return powerful_numbers(m, limit)


def _powerful_test_set(m, limit: int):
    if m == 1:
        return None  # everything passes
    return set(powerful_numbers(m, limit))


def _enumerate_chunk(delta: DeltaSupport3, bound: int, c_values) -> list[P1PointQ]:
    a_pos = _candidate_values(delta.n0, bound)
    b_ok = _powerful_test_set(delta.n1, 2 * bound)
    out = []
    for c in c_values:
        for mag in a_pos:
            if gcd(mag, c) != 1:
                continue
            for a in (-mag, mag):
                b = c - a
                if a == c:
                    continue
                if b_ok is not None and abs(b) not in b_ok:
                    continue
                out.append(P1PointQ(a, c))
    return out


def enumerate_soft_points(
    delta: DeltaSupport3,
    bound: int,
    positive_only: bool = False,
    workers: int = 1,
) -> list[P1PointQ]:
    """All soft points (a : c) with 0 < |a| <= bound and 0 < c <= bound,
    ordered by c then a.  Negative numerators are included unless
    positive_only restricts to 0 < a < c.

    Candidates are generated constructively from the powerful numbers for
    each coordinate, so the scan is far smaller than the coprime grid
    whenever some multiplicity exceeds 1.
    """
    if bound < 2:
        raise ValueError("height bound must be at least 2")
    c_values = _candidate_values(delta.n_inf, bound)
    w = pool_size(workers, len(c_values))
    if w > 1:
        parts = fork_starmap(_enumerate_chunk, [(delta, bound, c_values[i::w]) for i in range(w)])
        points = [p for part in parts for p in part]
    else:
        points = _enumerate_chunk(delta, bound, c_values)
    if positive_only:
        points = [p for p in points if 0 < p.a < p.c]
    points.sort(key=lambda p: (p.c, p.a))
    return points


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool


def campana_abc_bound_check(point: P1PointQ, delta: DeltaSupport3) -> BoundCheck:
    """Evaluate (1/n0 + 1/n1 + 1/n_inf) * log M against log rad(a*b*c) for a
    soft point, M = max(|a|, |b|, |c|).  For soft points the inequality is a
    theorem, so `holds` should never be False; the comparison still carries
    a small tolerance because both sides are floating logs."""
    if INFINITY in delta.as_tuple():
        raise MathDomainError("bound check needs finite multiplicities")
    if not is_soft_integral_3pt(point, delta):
        raise MathDomainError(f"{point} is not soft for {delta.as_tuple()}")
    a, b, c = point.a, point.b, point.c
    m = max(abs(a), abs(b), abs(c))
    lhs = (
        Fraction(1, delta.n0) + Fraction(1, delta.n1) + Fraction(1, delta.n_inf)
    ) * math.log(m)
    rhs = math.log(radical(abs(a * b * c)))
    return BoundCheck(float(lhs), rhs, float(lhs) >= rhs - BOUND_CHECK_TOLERANCE)


def campana_abc_bound_exact(point: P1PointQ, delta: DeltaSupport3) -> bool:
    """Integer-exact form of the bound check, for audit: compares
    M^(L/n0 + L/n1 + L/n_inf) with rad(a*b*c)^L, L = lcm of the
    multiplicities."""
    if INFINITY in delta.as_tuple():
        raise MathDomainError("bound check needs finite multiplicities")
    if not is_soft_integral_3pt(point, delta):
        raise MathDomainError(f"{point} is not soft for {delta.as_tuple()}")
    a, b, c = point.a, point.b, point.c
    m = max(abs(a), abs(b), abs(c))
    lcm = math.lcm(delta.n0, delta.n1, delta.n_inf)
    exponent = lcm // delta.n0 + lcm // delta.n1 + lcm // delta.n_inf
    return m**exponent >= radical(abs(a * b * c)) ** lcm
