"""Heights over the rationals, counting functions for coordinate-form
divisors, abc quality and the Vojta-style gap on the line x + y + z = 0.

With primitive integer coordinates the finite places contribute nothing to
the naive height, so H is just the maximum absolute coordinate and all the
analytic content lives in the prime-counting sums, which are computed from
exact factorizations.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, compress, islice
from math import gcd, isqrt

from ._pool import fork_map
from .arith import (
    MAX_SIEVE_LIMIT,
    WHEEL,
    ProjectivePointQ,
    _as_int,
    _rad_table,
    _wheel_classes,
    factorize,
    radical,
)
from .errors import MathDomainError, PointOnBoundaryError, ResourceLimitError, UnsupportedFieldError

# MAX_SIEVE_LIMIT, the cap on the scan window, is re-exported from arith,
# where the one radical sieve lives

# largest numerator or denominator of an abc quality threshold p/q: the
# exact test raises c to the power q and rad(abc) to the power p
MAX_THRESHOLD_TERM = 10**5


@dataclass(frozen=True)
class Form:
    """Homogeneous integer form in nvars variables, content 1, stored as
    sorted (exponent tuple, coefficient) terms."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        object.__setattr__(self, "nvars", _as_int(self.nvars))
        if self.nvars < 1:
            raise ValueError(f"a form needs at least one variable, got nvars={self.nvars}")
        merged: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms:
            e = tuple(map(_as_int, exps))
            if len(e) != self.nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for {self.nvars} variables")
            merged[e] = merged.get(e, 0) + _as_int(coeff)
        terms = tuple(sorted((e, c) for e, c in merged.items() if c != 0))
        if not terms:
            raise ValueError("the zero form is not allowed")
        degrees = {sum(e) for e, _ in terms}
        if len(degrees) != 1:
            raise ValueError(f"form is not homogeneous: degrees {sorted(degrees)}")
        content = 0
        for _, c in terms:
            content = gcd(content, c)
        if content != 1:
            raise ValueError(f"form has content {content} != 1")
        object.__setattr__(self, "terms", terms)

    @property
    def degree(self) -> int:
        return sum(self.terms[0][0])

    @classmethod
    def coordinate(cls, index: int, nvars: int) -> "Form":
        index, nvars = _as_int(index), _as_int(nvars)
        if not 0 <= index < nvars:
            raise ValueError(f"coordinate index {index} is outside 0..{nvars - 1}")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, ((exps, 1),))

    def evaluate(self, coords) -> int:
        coords = tuple(map(_as_int, coords))
        if len(coords) != self.nvars:
            raise ValueError("wrong number of coordinates")
        total = 0
        for exps, coeff in self.terms:
            t = coeff
            for x, e in zip(coords, exps):
                t *= x**e
            total += t
        return total


@dataclass(frozen=True)
class FormDivisor:
    """Divisor cut out by a product of irreducible coordinate-space forms."""

    forms: tuple[Form, ...]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("divisor needs at least one form")
        if len({f.nvars for f in self.forms}) != 1:
            raise ValueError("forms live in different coordinate spaces")

    @classmethod
    def coordinate_axes(cls, nvars: int) -> "FormDivisor":
        return cls(tuple(Form.coordinate(i, nvars) for i in range(nvars)))


@dataclass(frozen=True)
class HeightReport:
    H: int
    h: float


@dataclass(frozen=True)
class CountingReport:
    N: float
    N_trunc: float
    per_prime: tuple[tuple[int, int], ...]


def naive_height(point: ProjectivePointQ) -> HeightReport:
    """H = max |x_i| on primitive coordinates, h = log H."""
    h = max(abs(x) for x in point.coords)
    return HeightReport(h, math.log(h))


def counting_function(divisor: FormDivisor, point: ProjectivePointQ, excluded=frozenset()) -> CountingReport:
    """Prime-weighted intersection tally of the point with the divisor.

    The multiplicity at p sums the valuations of every form value; the
    truncated variant counts each prime once.  Primes in the excluded set
    contribute nothing.  Points on the divisor are rejected."""
    excluded = frozenset(excluded)
    values = []
    for f in divisor.forms:
        v = f.evaluate(point.coords)
        if v == 0:
            raise PointOnBoundaryError(f"{point} lies on the divisor")
        values.append(abs(v))
    mults: dict[int, int] = {}
    for v in values:
        for p, e in factorize(v).factors:
            if p not in excluded:
                mults[p] = mults.get(p, 0) + e
    per_prime = tuple(sorted(mults.items()))
    n = sum(e * math.log(p) for p, e in per_prime)
    n_trunc = sum(math.log(p) for p, _ in per_prime)
    return CountingReport(n, n_trunc, per_prime)


@dataclass(frozen=True)
class AbcTriple:
    """Coprime positive integers with a + b = c."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _as_int(getattr(self, name)))
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) < 1:
            raise ValueError("triple entries must be positive")
        if a + b != c:
            raise ValueError(f"{a} + {b} != {c}")
        if gcd(a, b) != 1:
            raise ValueError(f"gcd({a}, {b}) != 1: triple is not coprime")

    @cached_property
    def factorizations(self):
        return (factorize(self.a), factorize(self.b), factorize(self.c))

    @cached_property
    def radical_product(self) -> int:
        fa, fb, fc = self.factorizations
        return fa.radical() * fb.radical() * fc.radical()

    @property
    def quality(self) -> float:
        return math.log(self.c) / math.log(self.radical_product)


def abc_quality(triple: AbcTriple) -> float:
    """log c / log rad(abc); above 1 exactly when c beats its radical."""
    return triple.quality


def log_discriminant_term(field_tag: str) -> float:
    """Relative logarithmic discriminant of the field of definition over the
    rationals.  Only the rationals themselves are supported, where it is 0."""
    if field_tag in ("Q", "ℚ"):
        return 0.0
    raise UnsupportedFieldError(f"unsupported field {field_tag!r}; only Q is implemented")


def vojta_gap(point: ProjectivePointQ, eps_prime: float) -> float:
    """(1 - eps') * h(P) - N1(D, P) for a point on the line x + y + z = 0,
    with D the coordinate-axes divisor and no excluded finite primes.
    Points with a zero coordinate sit on D and are rejected."""
    if not 0 < eps_prime < 1:
        raise MathDomainError("eps_prime must lie in (0, 1)")
    coords = point.coords
    if len(coords) != 3:
        raise MathDomainError("expected a point of the projective plane")
    if sum(coords) != 0:
        raise MathDomainError(f"{point} is not on the line x + y + z = 0")
    if any(x == 0 for x in coords):
        raise PointOnBoundaryError(f"{point} is degenerate: a coordinate vanishes")
    report = counting_function(FormDivisor.coordinate_axes(3), point)
    return (1 - eps_prime) * naive_height(point).h - report.N_trunc


class _RadicalIndex:
    """The radicals of 0..limit, and for each k dividing WHEEL the n in
    1..limit prime to k, ordered by (rad n, n): order[k], with the radical
    of each entry in keys[k].  A scan for c reads the class gcd(c, WHEEL)
    (see _pruned_triples).

    The orders hold every n whose radical is at most `cap`: isqrt(limit)
    up front, which covers every abc scan at quality >= 1; a request past
    the cap extends every class, at least doubling the cap, with one pass
    over the table.  The classes share their int objects, and the keys are
    64-bit arrays (8 bytes an entry, against about 40 in a list of ints),
    so the four classes take no more memory than one order with a list of
    keys."""

    def __init__(self, limit: int):
        self.rad = _rad_table(limit)
        self.cap = 0
        self.order = dict(_wheel_classes(()))
        self.keys = {k: array("q") for k in self.order}
        self.count_upto(isqrt(limit))

    def count_upto(self, s: int, k: int = 1) -> int:
        """Length of the prefix of order[k] whose radicals are at most s."""
        if s > self.cap:
            rad, lo = self.rad, self.cap
            hi = min(max(s, 2 * lo), len(rad) - 1)
            new = sorted((n for n in range(1, len(rad)) if lo < rad[n] <= hi), key=rad.__getitem__)
            for j, part in _wheel_classes(new):
                self.order[j] += part
                self.keys[j].extend(map(rad.__getitem__, part))
            self.cap = hi
        return bisect_right(self.keys[k], s)


def _pruned_triples(index: _RadicalIndex, cs, log_bound):
    """The coprime triples a + b = c, a <= b, c in cs, that can have
    rad(abc) <= B(c) = exp(log_bound(c)) * (1 + 1e-9) + 2.

    Yields (c, increasing a's) for each c with candidates.  A coprime pair
    has rad(abc) = rad(a) rad(b) rad(c), so it qualifies exactly when
    rad(a) rad(b) <= T = floor(B / rad c), and then min(rad a, rad b) <=
    sqrt(T) (Browkin & Brzezinski, Math. Comp. 62, 1994): only the x < c
    with rad(x) <= sqrt(T) are visited, as a = min(x, c - x), and of those
    only the x prime to gcd(c, WHEEL), from the index's class of c; an x
    sharing 2 or 3 with c gives an a that is not prime to c.  At
    --max-c 30000 and quality 1 that visits 96 095 x instead of 297 438.
    The floats only size B; the test on rad(a) rad(b) is exact.
    log_bound(c) is called as c is reached, after the previous c's triples
    were consumed."""
    rad, order = index.rad, index.order
    for c in cs:
        rc = rad[c]
        t = int(math.exp(log_bound(c)) * (1 + 1e-9) + 2) // rc
        # for c >= 3 one of a, b exceeds 1, so rad(a) rad(b) >= 2
        if t < 2 and c > 2:
            continue
        k = gcd(c, WHEEL)
        n = index.count_upto(min(isqrt(t), c - 1), k)
        xs = {
            x if 2 * x <= c else c - x
            for x in islice(order[k], n)
            if x < c and rad[x] * rad[c - x] <= t
        }
        if xs:
            candidates = [a for a in sorted(xs) if gcd(a, c) == 1]
            if candidates:
                yield c, candidates


@dataclass(frozen=True)
class GapEvent:
    a: int
    b: int
    c: int
    gap: float


def scan_vojta_gap(eps_prime: float, max_c: int) -> list[GapEvent]:
    """Running-maximum trace of the gap over 0 < a < b, c = a + b <= max_c,
    scanned in (c, a) order.  The last event carries the empirical O(1)
    constant for the window.

    An a can raise the running best only when rad(abc) is below
    exp((1 - eps') log c - best), so each c visits just the radical-pruned
    candidates for that bound (see _pruned_triples).  The event test is
    still the float comparison g > best, so the trace equals that of the
    full quadratic scan."""
    if not 0 < eps_prime < 1:
        raise MathDomainError("eps_prime must lie in (0, 1)")
    max_c = _as_int(max_c)
    if max_c < 2:
        raise MathDomainError("max_c must be at least 2")
    index = _RadicalIndex(max_c)
    rad = index.rad
    events: list[GapEvent] = []
    # every gap is above this: rad(abc) <= abc < c^3 <= max_c^3, so the
    # first candidate is an event and every log bound is finite
    best = -3 * math.log(max_c)

    def log_bound(c: int) -> float:
        return (1 - eps_prime) * math.log(c) - best

    # c = 2 has only a = b = 1
    for c, candidates in _pruned_triples(index, range(3, max_c + 1), log_bound):
        hc = (1 - eps_prime) * math.log(c)
        for a in candidates:
            g = hc - math.log(rad[a] * rad[c - a] * rad[c])
            if g > best:
                best = g
                events.append(GapEvent(a, c - a, c, g))
    return events


@dataclass(frozen=True)
class AbcHit:
    a: int
    b: int
    c: int
    rad: int
    quality: float


def _quality_at_least(c: int, radprod: int, threshold: Fraction) -> bool:
    # log c / log radprod >= p/q  <=>  c^q >= radprod^p, exactly
    return c**threshold.denominator >= radprod**threshold.numerator


def _scan_abc_chunk(index: _RadicalIndex, min_quality: Fraction, cs) -> list[tuple]:
    """The rows of _abc_rows with c in cs, unsorted; index covers every c.
    Plain (a, b, c, rad, quality) tuples pickle back from a worker cheaply."""
    rad = index.rad
    exponent = 1.0 / float(min_quality)
    rows: list[tuple] = []
    for c, candidates in _pruned_triples(index, cs, lambda c: exponent * math.log(c)):
        for a in candidates:
            rp = rad[a] * rad[c - a] * rad[c]
            if _quality_at_least(c, rp, min_quality):
                rows.append((a, c - a, c, rp, math.log(c) / math.log(rp)))
    return rows


def scan_abc(max_c: int, min_quality: Fraction, workers: int = 1) -> list[AbcHit]:
    """All coprime triples a + b = c <= max_c, a <= b, whose quality reaches
    min_quality, sorted by quality descending (ties by c then a).

    Each c visits only the a prime to gcd(c, 6) whose triple can have
    rad(abc) <= c^(1/q), found through the radical index (see
    _pruned_triples); floats only size that search.  The threshold test is exact -- c^q >= rad^p for
    min_quality = p/q -- so the result is independent of floating-point
    behavior; the float quality in each hit is for display.  Thresholds
    below 1/3 act as 1/3, which every coprime triple beats; a threshold
    whose reduced numerator or denominator exceeds MAX_THRESHOLD_TERM is
    refused with ResourceLimitError before anything is built.  With workers,
    the c values are dealt out in strides: this process scans the first,
    and a forked child each other one (see _pool.fork_map).  Worker counts
    never change the output."""
    return [AbcHit(*row) for row in _abc_rows(max_c, min_quality, workers)]


def _abc_rows(max_c: int, min_quality: Fraction, workers: int) -> list[tuple]:
    """scan_abc's hits as (a, b, c, rad, quality) rows, the printed columns.

    >>> [r[:4] for r in _abc_rows(10, Fraction(1), 1)]
    [(1, 8, 9, 6), (1, 1, 2, 2)]
    """
    max_c = _as_int(max_c)
    if max_c < 2:
        raise MathDomainError("max_c must be at least 2")
    min_quality = Fraction(min_quality)
    if min_quality <= 0:
        raise MathDomainError("min_quality must be positive")
    # rad(abc) <= abc < c^3, so every coprime triple has quality above 1/3
    # and any lower threshold admits the same triples
    min_quality = max(min_quality, Fraction(1, 3))
    if max(min_quality.numerator, min_quality.denominator) > MAX_THRESHOLD_TERM:
        raise ResourceLimitError(
            f"quality threshold {min_quality} has a term above {MAX_THRESHOLD_TERM}; "
            f"the exact test would raise c to that power"
        )
    index = _RadicalIndex(max_c)
    cs = range(2, max_c + 1)
    if min_quality >= 1:
        # B(c) < 2c for squarefree c >= 3, where rad c = c, so T = 1 and
        # _pruned_triples would skip it: deal out c = 2 and the c with rad c < c
        cs = array("q", chain([2], compress(cs, map(operator.lt, islice(index.rad, 2, None), cs))))
    # the workers inherit the index through the fork
    rows = fork_map(partial(_scan_abc_chunk, index, min_quality), cs, workers)
    rows.sort(key=lambda r: (-r[4], r[2], r[0]))
    return rows
