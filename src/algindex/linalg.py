"""Exact linear algebra over the rationals (dense, Fraction-valued)."""

from __future__ import annotations

from fractions import Fraction

from .scalars import AlgindexError


def mat(rows):
    return [[Fraction(v) for v in row] for row in rows]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def matmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise AlgindexError("matrix shape mismatch")
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    pivots = []
    lead = 0
    n_cols = len(rows[0]) if rows else 0
    for r in range(len(rows)):
        while lead < n_cols:
            pivot_row = next(
                (i for i in range(r, len(rows)) if rows[i][lead] != 0), None
            )
            if pivot_row is None:
                lead += 1
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            scale = rows[r][lead]
            rows[r] = [v / scale for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][lead] != 0:
                    factor = rows[i][lead]
                    rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
            pivots.append(lead)
            lead += 1
            break
        else:
            break
    return rows, pivots


def rank(matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix)[1])


def solve(a, b):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    augmented = [list(a[i]) + [Fraction(b[i])] for i in range(n_rows)]
    reduced, pivots = rref(augmented)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for row, col in zip(reduced, pivots):
        x[col] = row[-1]
    return x


def nullspace(a):
    """Basis of ker A, deterministic (one vector per free column)."""
    if not a:
        return []
    n_cols = len(a[0])
    reduced, pivots = rref(a)
    free = [j for j in range(n_cols) if j not in pivots]
    basis = []
    for j in free:
        vec = [Fraction(0)] * n_cols
        vec[j] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[j]
        basis.append(vec)
    return basis


def det(a) -> Fraction:
    n = len(a)
    rows = [list(r) for r in a]
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            result = -result
        result *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                factor = rows[i][col] * inv
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[col])]
    return result
