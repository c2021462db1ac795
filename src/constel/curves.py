"""Constellation curves: a genus together with marked points carrying
multiplicities in {1, 2, 3, ...} or infinity.

The boundary coefficient of a mark of multiplicity m is 1 - 1/m, so the
structure interpolates between a bare curve (all m = 1, degree 2g - 2) and
a punctured curve (all m infinite, degree 2g - 2 + n).  The sign of
deg = 2g - 2 + sum(1 - 1/m_i) drives the whole classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .arith import INFINITY, _as_int, check_multiplicity, parse_multiplicity
from .errors import MathDomainError, ParseError


def delta_coefficient(m) -> Fraction:
    """Boundary coefficient 1 - 1/m as an exact rational; 1 for m infinite."""
    check_multiplicity(m)
    if m == INFINITY:
        return Fraction(1)
    return 1 - Fraction(1, m)


@dataclass(frozen=True)
class MultiplicityProfile:
    genus: int
    marks: tuple[tuple[str, int | float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "genus", _as_int(self.genus))
        if self.genus < 0:
            raise ValueError(f"genus must be a nonnegative integer, got {self.genus!r}")
        marks = tuple((str(lbl), check_multiplicity(m)) for lbl, m in self.marks)
        object.__setattr__(self, "marks", marks)
        labels = [lbl for lbl, _ in marks]
        if len(set(labels)) != len(labels):
            raise ValueError("mark labels must be unique")

    @classmethod
    def of(cls, genus: int, multiplicities=()) -> "MultiplicityProfile":
        return cls(genus, tuple((f"p{i}", m) for i, m in enumerate(multiplicities)))

    @property
    def multiplicities(self) -> tuple:
        return tuple(m for _, m in self.marks)


class Kappa(enum.Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    ONE = "one"


class Prediction(enum.Enum):
    POTENTIALLY_DENSE = "potentially_dense"
    CONJECTURALLY_NOT_DENSE = "conjecturally_not_dense"


@dataclass(frozen=True)
class KodairaClass:
    degree: Fraction
    kappa: Kappa
    general_type: bool


def constellation_degree(profile: MultiplicityProfile) -> Fraction:
    """Exact value of 2g - 2 + sum(1 - 1/m_i)."""
    deg = Fraction(2 * profile.genus - 2)
    for _, m in profile.marks:
        deg += delta_coefficient(m)
    return deg


def classify(profile: MultiplicityProfile) -> KodairaClass:
    """Sign classification of the degree.  Degree zero is reported as kappa
    zero without qualification: with nonnegative boundary coefficients,
    degree 0 forces either genus 0 (where a degree-0 rational divisor class
    is trivial) or genus 1 with a trivial boundary, so the torsion subtlety
    for degree-0 classes on positive genus never arises from this data."""
    deg = constellation_degree(profile)
    if deg > 0:
        kappa = Kappa.ONE
    elif deg == 0:
        kappa = Kappa.ZERO
    else:
        kappa = Kappa.NEGATIVE
    return KodairaClass(deg, kappa, deg > 0)


def delta_from_fibers(fibers) -> tuple[tuple[str, int], ...]:
    """Marks induced by fiber data: each label gets the minimum of its
    component multiplicities.

    >>> delta_from_fibers([("0", [2, 3])])
    (('0', 2),)
    """
    marks = []
    for label, mults in fibers:
        mults = list(mults)
        if not mults:
            raise ValueError(f"fiber {label!r} has no components")
        for m in mults:
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"fiber {label!r} has a bad multiplicity {m!r}")
        marks.append((str(label), min(mults)))
    return tuple(marks)


def arithmetic_prediction(profile: MultiplicityProfile) -> Prediction:
    """Density prediction: potentially dense unless the profile is of
    general type.  The not-dense direction is a theorem for classical
    profiles (every m in {1, inf}) and conjectural otherwise."""
    if classify(profile).general_type:
        return Prediction.CONJECTURALLY_NOT_DENSE
    return Prediction.POTENTIALLY_DENSE


def is_classical(profile: MultiplicityProfile) -> bool:
    """True when every mark is 1 or infinite, i.e. plain curve or punctures."""
    return all(m == 1 or m == INFINITY for m in profile.multiplicities)


def curve_iitaka_dimension(deg_l: int, is_torsion: bool) -> Kappa:
    """Section growth class of a line bundle on a curve from its degree and
    torsion flag: positive degree gives one, torsion gives zero, anything
    else is negative."""
    if is_torsion and deg_l != 0:
        raise ValueError("a torsion bundle has degree 0")
    if deg_l > 0:
        return Kappa.ONE
    if deg_l == 0 and is_torsion:
        return Kappa.ZERO
    return Kappa.NEGATIVE


# The minimal general-type profiles on a genus-0 curve: the minimal
# hyperbolic signatures, with sum(1 - 1/m_i) > 2.  Each mark adds at least
# 1/2, so five or more marks dominate (2,2,2,2,2); four marks need one of
# at least 3 (four 2s sum to exactly 2), so they dominate (2,2,2,3); three
# marks need 1/m_1 + 1/m_2 + 1/m_3 < 1, whose minimal solutions are
# (2,3,7), (2,4,5) and (3,3,4); two marks always sum to less than 2.
_MINIMAL_GENERAL_TYPE = ((2, 2, 2, 2, 2), (2, 2, 2, 3), (2, 3, 7), (2, 4, 5), (3, 3, 4))


def minimal_general_type_profiles(max_marks: int, max_mult: int) -> list[tuple[int, ...]]:
    """All multisets {m_1 <= ... <= m_k} of finite multiplicities >= 2 on a
    genus-0 curve that are of general type and minimal for the dominance
    order (componentwise after sorting, a missing mark counting as 1), with
    at most max_marks marks and no multiplicity above max_mult.  The
    complete list has five entries, so any bounds answer at once.

    >>> minimal_general_type_profiles(3, 6)
    [(2, 4, 5), (3, 3, 4)]
    """
    if _as_int(max_marks) < 1:
        raise MathDomainError("max_marks must be at least 1")
    if _as_int(max_mult) < 2:
        raise MathDomainError("max_mult must be at least 2")
    return [t for t in _MINIMAL_GENERAL_TYPE if len(t) <= max_marks and max(t) <= max_mult]


def parse_profile(text: str) -> MultiplicityProfile:
    """Parse the compact profile syntax, e.g. `g=0;m=2,3,7` or `g=1;m=inf`.

    An empty mark list is written `g=1;m=`.
    """
    s = text.strip()
    lead = len(text) - len(text.lstrip())  # positions count in text, not s
    head, sep, tail = s.partition(";")
    if not sep:
        raise ParseError(f"profile {text!r}: missing ';' separator")
    if not head.startswith("g="):
        raise ParseError(f"profile {text!r}: expected 'g=<genus>' at position {lead}")
    try:
        genus = int(head[2:])
    except ValueError:
        raise ParseError(f"profile {text!r}: bad genus {head[2:]!r} at position {lead + 2}") from None
    if not tail.startswith("m="):
        raise ParseError(f"profile {text!r}: expected 'm=<list>' at position {lead + len(head) + 1}")
    body = tail[2:]
    mults = []
    if body.strip():
        pos = lead + len(head) + 3
        for tok in body.split(","):
            try:
                mults.append(parse_multiplicity(tok))
            except ValueError:
                at = pos + len(tok) - len(tok.lstrip())
                raise ParseError(f"profile {text!r}: bad multiplicity {tok.strip()!r} at position {at}") from None
            pos += len(tok) + 1
    try:
        return MultiplicityProfile.of(genus, mults)
    except ValueError as exc:
        raise ParseError(f"profile {text!r}: {exc}") from None


def profile_text(profile: MultiplicityProfile) -> str:
    """Inverse of parse_profile, up to relabeling of marks."""
    body = ",".join("inf" if m == INFINITY else str(m) for m in profile.multiplicities)
    return f"g={profile.genus};m={body}"
