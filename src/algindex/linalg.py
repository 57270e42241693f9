"""Exact linear algebra over the rationals.

Matrices come in as dense lists of rows.  ``rank``, ``det``, ``solve`` and
``nullspace`` all run on one sparse forward elimination, ``_eliminate``.
"""

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


def _eliminate(matrix):
    """Sparse exact forward elimination of a dense matrix.

    Each row keeps only its nonzero entries, as ``{column: Fraction}``.
    Column by column, the pivot is the sparsest remaining row with a nonzero
    in that column, ties going to the lowest row index, and it is subtracted
    from every other remaining row with a nonzero there.  Returns the pivot
    rows, their pivot columns and the original indices of the pivot rows, all
    in pivot order.  Pivot row k is zero left of its pivot column, and the
    pivot columns are the leftmost independent columns whichever rows are
    chosen as pivots.
    """
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in matrix]
    remaining = [i for i, row in enumerate(rows) if row]
    pivots, columns, order = [], [], []
    for col in range(len(matrix[0]) if matrix else 0):
        hits = [i for i in remaining if col in rows[i]]
        if not hits:
            continue
        p = min(hits, key=lambda i: len(rows[i]))
        pivot = rows[p]
        for i in hits:
            if i == p:
                continue
            row = rows[i]
            factor = row[col] / pivot[col]
            for j, v in pivot.items():
                w = row.get(j, 0) - factor * v
                if w:
                    row[j] = w
                else:
                    del row[j]
        remaining = [i for i in remaining if i != p and rows[i]]
        pivots.append(pivot)
        columns.append(col)
        order.append(p)
    return pivots, columns, order


def _back_substitute(pivots, columns, x):
    """Set x on the pivot columns so that every pivot row annihilates x."""
    for row, col in zip(reversed(pivots), reversed(columns)):
        x[col] = -sum((v * x[j] for j, v in row.items() if j != col), Fraction(0)) / row[col]
    return x


def rank(matrix) -> int:
    return len(_eliminate(matrix)[1])


def det(a) -> Fraction:
    pivots, columns, order = _eliminate(a)
    if len(pivots) < len(a):
        return Fraction(0)
    inversions = sum(p > q for k, p in enumerate(order) for q in order[k + 1:])
    result = Fraction((-1) ** inversions)
    for row, col in zip(pivots, columns):
        result *= row[col]
    return result


def solve(a, b):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    n_cols = len(a[0]) if a else 0
    pivots, columns, _ = _eliminate([list(row) + [b_i] for row, b_i in zip(a, b)])
    if columns and columns[-1] == n_cols:
        return None
    # the right-hand side is column n_cols, with x = -1 there
    x = [Fraction(0)] * n_cols + [Fraction(-1)]
    return _back_substitute(pivots, columns, x)[:n_cols]


def nullspace(a):
    """Basis of ker A, deterministic (one vector per free column)."""
    n_cols = len(a[0]) if a else 0
    pivots, columns, _ = _eliminate(a)
    basis = []
    for free in sorted(set(range(n_cols)) - set(columns)):
        x = [Fraction(0)] * n_cols
        x[free] = Fraction(1)
        basis.append(_back_substitute(pivots, columns, x))
    return basis


def betti_numbers(dims, ranks):
    """Betti numbers of a cochain complex: dim C^k - rank d_k - rank d_{k-1}."""
    return [dims[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(len(dims))]
