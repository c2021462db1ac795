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
import mmap
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, takewhile
from math import gcd
from operator import itemgetter

from ._pool import fork_map
from .arith import (
    INFINITY,
    MAX_SIEVE_LIMIT,
    WHEEL,
    _as_int,
    _powerful_radicals,
    _primitive,
    _rad_table,
    _wheel_classes,
    check_multiplicity,
    factorize,
    is_n_powerful,
    is_prime,
    radical,
)
from .errors import MathDomainError, PointOnBoundaryError


@dataclass(frozen=True)
class P1PointQ:
    """Point (a : c) of the projective line in lowest terms, with canonical
    sign: c > 0, or c = 0 and a = 1 for the point at infinity.  Arbitrary
    integer input is reduced at construction."""

    a: int
    c: int

    def __post_init__(self):
        c, a = _primitive((_as_int(self.c), _as_int(self.a)))
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
        object.__setattr__(self, "primes", frozenset(map(_as_int, self.primes)))
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} in S is not prime")
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


# The weighted test asks sum over z of v_p / m_z >= 1 at each prime p
# outside S where some term is positive.  GeneralDeltaQ puts every prime at
# which two support points share a reduction into S, so at most one term is
# nonzero per prime outside S and the weighted test is the plain one.
is_soft_integral_weighted = is_soft_integral_general


def _role(m, limit: int):
    """One role's sorted candidates, membership container and radicals
    (None for m = 1, whose radicals come from the sieve or factoring)."""
    if m == 1:
        values = range(1, limit + 1)
        return values, values, None
    rads = _powerful_radicals(m, limit)
    return sorted(rads), rads, rads.__getitem__


def _hit_table(Y, off: int, n: int) -> mmap.mmap:
    """T with T[off + d] = 1 iff |d| is in the sorted Y, for -off <= d < n - off.

    An anonymous memory map, not a bytearray: it bypasses malloc, so
    freeing it does not raise malloc's threshold for mapping large blocks,
    which left later blocks resident in the parent and its forked workers
    (1.7 MB against 3.8 MB of extra peak RSS for a 1.5 MB table)."""
    T = mmap.mmap(-1, n)
    for v in Y[: bisect_left(Y, n - off)]:
        T[off + v] = 1
    for v in Y[: bisect_right(Y, off)]:
        T[off - v] = 1
    return T


def _pair_hits(X, in_y, table, off):
    """h for the sorted inner values X of a pair scan: for an outer value o
    with |o| <= off, h(o) yields the x in X with |o - x| in the looked-up
    role, in increasing order.  Every x is positive, so h(-o) gives those
    with o + x in it.  With the role's _hit_table at offset off, h(o) is one
    gather from the table; with table None, each x is an `in` test on the
    role's container in_y.  Both stay lazy, so that --positive stops them
    at x = o."""
    if table is not None:
        view = memoryview(table)  # its slices share the table
        # the extra index keeps the gather a tuple when X has one value (X
        # must not be empty: itemgetter(0) alone returns one byte); compress
        # stops at the end of X
        get = itemgetter(*X, 0)
        return lambda o: compress(X, get(view[off - o :]))
    # x = o gives 0, which no role holds
    return lambda o: (x for x in X if abs(o - x) in in_y)


def _wheel_hits(X, lookup):
    """_pair_hits by k = gcd(o, WHEEL) for an outer value o: the one over the
    x in X prime to k, in increasing order (see arith.WHEEL).  At --delta
    2,2,2 --max 494387 the gathers return 12 550 hits with a wheel of 6,
    against 60 498 with none and 9110 with a wheel of 30, which was not
    measurably faster.  Every role holds 1, so no class is empty, as
    _pair_hits' gather needs."""
    return {k: _pair_hits(Xk, *lookup) for k, Xk in _wheel_classes(X)}


# The pair scans: the outer, inner and looked-up role as indices into
# (a, b, c), then the pairs visited per outer and inner value.
_ORDERS = ((2, 0, 1, 2), (2, 1, 0, 2), (0, 1, 2, 4))

# a streamed block of rows ends with the outer value that brings it to at
# least this many rows: about 0.5 MB of rows and as much again of lines
BLOCK_ROWS = 4096


def _pair_rows(roles, hits, rads, positive_only, outs, size):
    """The rows of the outer values outs, in sorted blocks: a block ends
    with the outer value that brings it to `size` rows or more, and the
    rest form the last block, which may be empty."""
    # for an outer value o and an inner value x the looked-up value is
    # y = o - s x, s = 1 for |o - x| and s = -1 for o + x.  With c outer, a
    # is s x (a inner) or y (b inner), and --positive keeps s = 1 with x < o.
    # With a outer, (c, a) is (y, o) or (-y, -o), whichever has c > 0, and
    # --positive keeps s = -1; c = |y| is looked up among 1..bound, so it
    # needs no bound test.  A factor of o and x divides all three values.
    rad_o, rad_x, rad_y = (rads[r] for r in roles)
    by_c, a_is_x = roles[0] == 2, roles[1] == 0
    out = []
    for o in outs:
        h = hits[gcd(o, WHEEL)]
        if positive_only:
            sides = [(1, takewhile(o.__gt__, h(o)))] if by_c else [(-1, h(-o))]
        else:
            sides = [(1, h(o)), (-1, h(-o))]
        ro = rad_o(o)
        for s, xs in sides:
            for x in xs:
                if gcd(x, o) == 1:
                    y = o - s * x
                    rad = ro * rad_x(x) * rad_y(abs(y))
                    if by_c:
                        out.append((o, s * x if a_is_x else y, rad))
                    else:
                        out.append((y, o, rad) if y > 0 else (-y, -o, rad))
        if len(out) >= size:
            out.sort()
            yield out
            out = []
    out.sort()
    yield out


def _soft_rows(delta: DeltaSupport3, bound: int, positive_only: bool, workers: int):
    """(c, a, rad |abc|) for each point of enumerate_soft_points, in sorted
    blocks whose concatenation is sorted.

    Every check and table build runs in this call; the rows come as the
    blocks are read.  With c as the outer role and one worker, a block
    ends with the c value that brings it to BLOCK_ROWS rows or more, so
    memory does not grow with the output.  The (a, b) order's rows are not
    in c order, and the workers' strides interleave, so those runs collect
    every row, sort once and give one block.

    Of the three roles -- a with |a| <= bound, b = c - a with |b| <=
    2 bound, c <= bound -- the scan runs over the two whose pairs are
    fewest (the first such order of _ORDERS) and looks the third up.  The
    lookup is a gather from one byte table over the differences and sums
    that can occur (see _pair_hits), unless that table would be longer
    than the pairs visited or than MAX_SIEVE_LIMIT, in which case each
    pair is an `in` test.  The values of a coprime pair are pairwise
    coprime, so rad |abc| = rad |a| rad |b| rad c, each factor read from
    its role's table: the powerful-number recursion for m >= 2, and for
    m = 1 a radical sieve, under the same length rule as the hit table,
    else each hit is factored."""
    bound = _as_int(bound)
    if bound < 2:
        raise MathDomainError("height bound must be at least 2")
    limits = (bound, 2 * bound, bound)
    roles = [_role(m, limit) for m, limit in zip(delta.as_tuple(), limits)]
    pairs, j = min((k * len(roles[o][0]) * len(roles[i][0]), j) for j, (o, i, _, k) in enumerate(_ORDERS))
    order = _ORDERS[j][:3]
    cap = min(pairs, MAX_SIEVE_LIMIT)
    rads = [rad for _, _, rad in roles]
    sieved = [limit for rad, limit in zip(rads, limits) if rad is None]
    if sieved:
        n = max(sieved)
        flat = _rad_table(n).__getitem__ if n <= cap else radical
        rads = [flat if r is None else r for r in rads]
    outs, X, (Y, in_y, _) = roles[order[0]][0], roles[order[1]][0], roles[order[2]]
    # x - o and o + x run from -max o to max o + max X
    off = outs[-1]
    span = 2 * off + X[-1] + 1
    hits = _wheel_hits(X, (in_y, _hit_table(Y, off, span) if span <= cap else None, off))
    scan = partial(_pair_rows, order, hits, rads, positive_only)
    if order[0] == 2 and workers <= 1:
        return scan(outs, BLOCK_ROWS)
    # the workers inherit the tables through the fork; each sorts its own
    # stride, so the sort here merges sorted runs
    rows = fork_map(lambda part: next(scan(part, math.inf)), outs, workers)
    rows.sort()
    return [rows]


def enumerate_soft_points(
    delta: DeltaSupport3,
    bound: int,
    positive_only: bool = False,
    workers: int = 1,
) -> list[P1PointQ]:
    """All soft points (a : c) with 0 < |a| <= bound and 0 < c <= bound,
    ordered by c then a.  Negative numerators are included unless
    positive_only restricts to 0 < a < c.

    Each role of the triple a + b = c draws its candidates from the
    powerful numbers of its multiplicity, up to the height bound (twice
    it for b).  The scan runs over the pair of roles with the fewest
    pairs -- (c, a), (c, b) or (a, b) -- so it is far smaller than the
    coprime grid whenever some multiplicity exceeds 1.  For each value of
    the outer role it finds the hits among the values of the inner role at
    once, by gathering from a byte table of the third role's values, or by
    an `in` test per pair where that table would be longer than the pairs
    visited.  Only inner values prime to gcd(o, 6) are gathered for an
    outer value o, so pairs sharing a factor 2 or 3 are dropped before any
    per-pair work; a gcd test drops the rest.  Worker processes split the
    outer role of that pair; no worker count changes the result.
    """
    blocks = _soft_rows(delta, bound, positive_only, workers)
    return [P1PointQ(a, c) for rows in blocks for c, a, _ in rows]


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool


def _bound_terms(point: P1PointQ, delta: DeltaSupport3) -> tuple[int, int, bool]:
    """M = max(|a|, |b|, |c|) and rad(a*b*c) of a soft point, and whether
    M^(L/n0 + L/n1 + L/n_inf) >= rad(a*b*c)^L, L = lcm of the multiplicities."""
    if INFINITY in delta.as_tuple():
        raise MathDomainError("bound check needs finite multiplicities")
    if not is_soft_integral_3pt(point, delta):
        raise MathDomainError(f"{point} is not soft for {delta.as_tuple()}")
    a, b, c = point.a, point.b, point.c
    m, rad = max(abs(a), abs(b), abs(c)), radical(abs(a * b * c))
    lcm = math.lcm(delta.n0, delta.n1, delta.n_inf)
    exponent = lcm // delta.n0 + lcm // delta.n1 + lcm // delta.n_inf
    return m, rad, m**exponent >= rad**lcm


def campana_abc_bound_check(point: P1PointQ, delta: DeltaSupport3) -> BoundCheck:
    """Evaluate (1/n0 + 1/n1 + 1/n_inf) * log M against log rad(a*b*c) for a
    soft point, M = max(|a|, |b|, |c|).  For soft points the inequality is a
    theorem, so `holds` should never be False.  The integer test of
    campana_abc_bound_exact decides `holds`; the logs are for display."""
    m, rad, holds = _bound_terms(point, delta)
    lhs = (
        Fraction(1, delta.n0) + Fraction(1, delta.n1) + Fraction(1, delta.n_inf)
    ) * math.log(m)
    return BoundCheck(float(lhs), math.log(rad), holds)


def campana_abc_bound_exact(point: P1PointQ, delta: DeltaSupport3) -> bool:
    """Integer-exact form of the bound check, for audit: compares
    M^(L/n0 + L/n1 + L/n_inf) with rad(a*b*c)^L, L = lcm of the
    multiplicities."""
    return _bound_terms(point, delta)[2]
