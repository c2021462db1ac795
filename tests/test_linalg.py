"""The exact Gauss-Jordan of constel._linalg against sympy's rationals."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from constel import _linalg

# small entries make dependent columns and inconsistent targets common
entries = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


def _sym(rows, ncols):
    cells = [sympy.Rational(x.numerator, x.denominator) for r in rows for x in map(Fraction, r)]
    return sympy.Matrix(len(rows), ncols, cells)


# up to five vectors of one length 1..4
vector_lists = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.tuples(*[entries] * d), max_size=5)
)


@st.composite
def systems(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=5))
    columns = draw(st.lists(st.tuples(*[entries] * d), min_size=n, max_size=n))
    if columns and draw(st.booleans()):  # a target in the column span
        coeffs = draw(st.lists(entries, min_size=n, max_size=n))
        target = tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(d))
    else:
        target = draw(st.tuples(*[entries] * d))
    return columns, target


@settings(max_examples=300, deadline=None)
@given(vector_lists)
def test_rank_matches_sympy(vectors):
    expected = _sym(vectors, len(vectors[0])).rank() if vectors else 0
    assert _linalg.rank(vectors) == expected


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_columns_matches_sympy(system):
    columns, target = system
    n, d = len(columns), len(target)
    lam = _linalg.solve_columns(columns, target)
    if n == 0:
        assert lam == ([] if not any(target) else None)
        return
    a = _sym(list(zip(*columns)), n)
    b = _sym([(t,) for t in target], 1)
    if a.rank() == n == a.row_join(b).rank():
        expected, _ = a.gauss_jordan_solve(b)
        assert lam == [Fraction(int(x.p), int(x.q)) for x in expected]
        assert all(type(x) is Fraction for x in lam)
        combination = tuple(sum(x * col[i] for x, col in zip(lam, columns)) for i in range(d))
        assert combination == tuple(map(Fraction, target))
    else:
        assert lam is None


def test_edge_cases():
    assert _linalg.rank([]) == 0
    assert _linalg.rank([(0, 0), (0, 0)]) == 0
    assert _linalg.rank([(1, 2), (2, 4), (0, 1)]) == 2
    # dependent columns: None even when the target is in their span
    assert _linalg.solve_columns([(1, 2), (2, 4)], (3, 6)) is None
    assert _linalg.solve_columns([(3,), (4,)], (1,)) is None
    # inconsistent
    assert _linalg.solve_columns([(1, 0)], (0, 1)) is None
    # no columns: only the zero target is reached, by the empty combination
    assert _linalg.solve_columns([], (0, 0)) == []
    assert _linalg.solve_columns([], (1, 0)) is None
    assert _linalg.solve_columns([(2, 1), (1, 2)], (1, 1)) == [Fraction(1, 3), Fraction(1, 3)]
