"""Toroidal firmaments on a single positive-orthant cone chart.

A firmament is a finite irredundant collection of lattice monoids in a fixed
dimension.  It assigns to each lattice ray the minimal positive multiple
landing in one of its monoids, which yields the boundary coefficients
1 - 1/m of the constellation it supports.  Firmaments arise here as images
of monomial exponent matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import _linalg
from .arith import is_prime
from .errors import MathDomainError, ParseError
from .monoids import LatticeMonoid, min_multiple


@dataclass(frozen=True)
class ExponentMap:
    """Matrix of monomial exponents mapping the source lattice N^cols to the
    target lattice N^rows.  Columns are the images of the source generators;
    an all-zero column would mean a non-dominant divisor and is rejected."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows or not rows[0]:
            raise ValueError("exponent matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("exponent matrix rows have unequal lengths")
        if any(x < 0 for r in rows for x in r):
            raise ValueError("exponent entries must be nonnegative")
        for j in range(width):
            if all(r[j] == 0 for r in rows):
                raise ValueError(f"column {j} is all zero")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(r[j] for r in self.entries) for j in range(self.cols)]

    def apply(self, v) -> tuple[int, ...]:
        v = tuple(int(x) for x in v)
        if len(v) != self.cols:
            raise ValueError(f"vector {v} has wrong dimension (want {self.cols})")
        if any(x < 0 for x in v):
            raise ValueError(f"vector {v} has a negative coordinate")
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self.entries)


@dataclass(frozen=True)
class Firmament:
    """Irredundant collection of monoids of one dimension.  Containments are
    removed eagerly at construction; `partial` flags collections in which
    some monoid fails to span a full-dimensional cone (multiplicity queries
    on rays outside every cone raise rather than guess)."""

    dimension: int
    monoids: tuple[LatticeMonoid, ...]
    partial: bool = field(init=False, compare=False)

    def __post_init__(self):
        ms = tuple(self.monoids)
        if not ms:
            raise ValueError("firmament needs at least one monoid")
        for m in ms:
            if m.dimension != self.dimension:
                raise ValueError("monoid dimension mismatch")
        kept = _maximal(ms)
        object.__setattr__(self, "monoids", kept)
        full = all(_linalg.rank(m.generators) == self.dimension for m in kept)
        object.__setattr__(self, "partial", not full)

    def __str__(self):
        return "{" + ", ".join(str(m) for m in self.monoids) + "}"


def _maximal(ms: tuple[LatticeMonoid, ...]) -> tuple[LatticeMonoid, ...]:
    kept = []
    for i, m in enumerate(ms):
        drop = False
        for j, other in enumerate(ms):
            if i == j:
                continue
            if other.contains(m) and (not m.contains(other) or j < i):
                drop = True
                break
        if not drop:
            kept.append(m)
    return tuple(kept)


def base_firmament(maps) -> Firmament:
    """Firmament generated by the column images of the given exponent maps,
    one monoid per map, reduced to its maximal members."""
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one exponent map")
    dim = maps[0].rows
    if any(m.rows != dim for m in maps):
        raise ValueError("exponent maps target different lattice dimensions")
    return Firmament(dim, tuple(LatticeMonoid(dim, tuple(m.columns())) for m in maps))


def multiplicity_at(firm: Firmament, ray) -> int:
    """Minimal positive k with k*ray inside one of the firmament's monoids."""
    return min_multiple(firm.monoids, ray)


def supported_constellation(firm: Firmament, rays) -> list[tuple[tuple[int, ...], Fraction]]:
    """Boundary coefficients 1 - 1/m at each ray, as exact rationals."""
    out = []
    for ray in rays:
        r = tuple(int(x) for x in ray)
        m = multiplicity_at(firm, r)
        out.append((r, 1 - Fraction(1, m)))
    return out


def morphism_check(f: ExponentMap, source: Firmament, target: Firmament) -> bool:
    """True iff every source monoid maps, generator by generator, into a
    single monoid of the target firmament."""
    if f.cols != source.dimension or f.rows != target.dimension:
        raise ValueError("exponent map dimensions do not match the firmaments")
    for m in source.monoids:
        images = [f.apply(g) for g in m.generators]
        if not any(all(t.member(w) for w in images) for t in target.monoids):
            return False
    return True


def induced_membership(f: ExponentMap, target: Firmament, v) -> bool:
    """Membership test for the induced firmament on the source lattice:
    v belongs iff its image lands in some target monoid.  (Generator
    extraction for the preimage monoids is out of scope; the membership
    predicate is the supported representation.)"""
    if f.rows != target.dimension:
        raise ValueError("exponent map does not target the firmament's lattice")
    w = f.apply(v)
    return any(m.member(w) for m in target.monoids)


def face_restriction(firm: Firmament, axes) -> Firmament:
    """Derived view of the firmament on a coordinate face of the orthant:
    keep the listed axes, zero out the rest.

    Generators are nonnegative, so a member supported on the face can only
    use face-supported generators; restriction is therefore exact generator
    filtering.  A face meeting every monoid only at the origin has no
    monoid to show and raises MathDomainError."""
    axes = tuple(axes)
    if not axes or len(set(axes)) != len(axes):
        raise ValueError("axes must be nonempty and distinct")
    if any(not 0 <= i < firm.dimension for i in axes):
        raise ValueError(f"axes {axes} out of range for dimension {firm.dimension}")
    off = [j for j in range(firm.dimension) if j not in axes]
    restricted = []
    for m in firm.monoids:
        gens = [
            tuple(g[i] for i in axes)
            for g in m.generators
            if all(g[j] == 0 for j in off)
        ]
        if gens:
            restricted.append(LatticeMonoid(len(axes), tuple(gens)))
    if not restricted:
        raise MathDomainError("the firmament meets this face only at the origin")
    return Firmament(len(axes), tuple(restricted))


@dataclass(frozen=True)
class ReductionDatum:
    """Reduction of a point at one prime: the lattice point of the boundary
    stratum the reduction lands on."""

    prime: int
    stratum_point: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "stratum_point", tuple(int(x) for x in self.stratum_point))
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if any(x < 0 for x in self.stratum_point):
            raise ValueError("stratum point coordinates must be nonnegative")


def firm_integral_test(firm: Firmament, reductions) -> bool:
    """True iff every reduction's stratum point lies in some monoid of the
    firmament.  An empty reduction list passes: the point never meets the
    boundary."""
    for datum in reductions:
        pt = datum.stratum_point
        if len(pt) != firm.dimension:
            raise ValueError("stratum point dimension mismatch")
        if not any(m.member(pt) for m in firm.monoids):
            return False
    return True


def to_text(firm: Firmament) -> str:
    """Plain-text serialization: a `dim d` header, then one monoid per line
    as `d; (g1) (g2) ...`.  Round-trips bit-exactly for canonical files."""
    lines = [f"dim {firm.dimension}"]
    for m in firm.monoids:
        gens = " ".join("(" + ",".join(map(str, g)) + ")" for g in m.generators)
        lines.append(f"{m.dimension}; {gens}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Firmament:
    """Parse the serialization produced by to_text."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise ParseError("empty firmament file")
    no, header = lines[0]
    if not header.startswith("dim "):
        raise ParseError(f"line {no}: expected 'dim <d>' header, got {header!r}")
    try:
        dim = int(header[4:].strip())
    except ValueError:
        raise ParseError(f"line {no}: bad dimension {header[4:].strip()!r}") from None
    monoids = []
    for no, ln in lines[1:]:
        head, sep, tail = ln.partition(";")
        if not sep:
            raise ParseError(f"line {no}: expected '<d>; <generators>'")
        try:
            d = int(head.strip())
        except ValueError:
            raise ParseError(f"line {no}: bad monoid dimension {head.strip()!r}") from None
        if d != dim:
            raise ParseError(f"line {no}: monoid dimension {d} != header dimension {dim}")
        gens = []
        for tok in tail.split():
            if not (tok.startswith("(") and tok.endswith(")")):
                raise ParseError(f"line {no}: bad generator token {tok!r}")
            try:
                gens.append(tuple(int(p) for p in tok[1:-1].split(",")))
            except ValueError:
                raise ParseError(f"line {no}: bad generator token {tok!r}") from None
        if not gens:
            raise ParseError(f"line {no}: monoid has no generators")
        monoids.append(LatticeMonoid(dim, tuple(gens)))
    if not monoids:
        raise ParseError("firmament file lists no monoids")
    return Firmament(dim, tuple(monoids))
