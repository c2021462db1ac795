"""Tiny exact linear algebra over Fraction, enough for cone checks."""

from __future__ import annotations

from fractions import Fraction


def _eliminate(rows, ncols: int) -> int:
    """Gauss-Jordan on the first ncols columns of rows, in place: each
    column takes the first nonzero row at or below the next pivot row.
    Returns the number of pivots, the rank of those columns."""
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def rank(vectors) -> int:
    """Rank of a list of integer/rational vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    return _eliminate(rows, len(rows[0])) if rows else 0


def solve_columns(columns, target) -> list[Fraction] | None:
    """Solve sum_j lam_j * columns[j] = target exactly.

    Returns the coefficient list when the columns are linearly independent
    and the system is consistent, else None (dependent columns are skipped
    by callers, which enumerate independent subsets)."""
    n = len(columns)
    aug = [[Fraction(c[i]) for c in columns] + [Fraction(t)] for i, t in enumerate(target)]
    r = _eliminate(aug, n)
    # n pivots put column j's pivot on row j, so row j holds lam_j
    if r < n or any(row[n] for row in aug[r:]):
        return None
    return [row[n] for row in aug[:n]]
