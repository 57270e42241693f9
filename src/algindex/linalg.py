"""Exact linear algebra over the rationals.

``rank`` takes the sparse rows ``{column: value}`` that the cohomology
builders make; ``det`` takes dense lists of rows.  Both run on one sparse,
fraction-free forward elimination, ``_eliminate``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import AlgindexError

# the most entries (rows x columns) a matrix, or a set of them, may have
MAX_ENTRIES = 2 ** 24


def check_size(entries, what):
    """Refuse ``what`` before it is allocated if it has more than MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise AlgindexError(
            f"{what} would have {entries} entries, above the limit of 2^24 = {MAX_ENTRIES}"
        )


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def matmul(a, b):
    """a @ b; each row of a meets only the nonzero entries of the rows of b it needs."""
    if a and b and len(a[0]) != len(b):
        raise AlgindexError("matrix shape mismatch")
    n_cols = len(b[0]) if b else 0
    b_rows = [[(j, w) for j, w in enumerate(row) if w] for row in b]
    out = []
    for row in a:
        acc = [Fraction(0)] * n_cols
        for k, v in enumerate(row):
            if v:
                for j, w in b_rows[k]:
                    acc[j] += v * w
        out.append(acc)
    return out


def _primitive(row):
    """The integer row divided by the gcd of its entries, and that gcd (1 if zero)."""
    g = math.gcd(*row.values())
    if g > 1:
        row = {j: v // g for j, v in row.items()}
    return row, g or 1


def _eliminate(rows, n_cols):
    """Sparse fraction-free forward elimination of rows ``{column: value}``.

    No row stores a zero; its values are ints or Fractions.  Each row is
    scaled by the lcm of its denominators to a primitive integer row.  Column
    by column, the pivot is the sparsest remaining row with a nonzero ``p`` in
    that column, ties going to the lowest row index.  Every other remaining
    row with a nonzero ``a`` there becomes ``(p/g) row - (a/g) pivot`` with
    g = gcd(a, p), divided by the gcd of its entries.  Each row is thus always
    a nonzero multiple of the row that elimination over the rationals leaves,
    and ``scales`` holds that multiple.  Returns the pivot rows, their pivot
    columns, the original indices of the pivot rows and their scales, all in
    pivot order.  Pivot row k is zero left of its pivot column, and the pivot
    columns are the leftmost independent columns whichever rows are chosen as
    pivots.

    A remaining row is zero left of the current column, so the rows with a
    nonzero in it are those whose first nonzero is there: rows wait in
    ``starting[column]`` of their first nonzero column.
    """
    scales = []
    starting = [[] for _ in range(n_cols)]
    rows = list(rows)
    for i, row in enumerate(rows):
        lcm = math.lcm(*(v.denominator for v in row.values()))
        rows[i], g = _primitive({j: v.numerator * (lcm // v.denominator) for j, v in row.items()})
        scales.append(Fraction(lcm, g))
        if row:
            starting[min(row)].append(i)
    pivots, columns, order = [], [], []
    for col, hits in enumerate(starting):
        if not hits:
            continue
        p = min(hits, key=lambda i: (len(rows[i]), i))
        pivot = rows[p]
        for i in hits:
            if i == p:
                continue
            row = rows[i]
            g = math.gcd(row[col], pivot[col])
            u, w = pivot[col] // g, row[col] // g
            if u != 1:
                for j in row:
                    row[j] *= u
            for j, v in pivot.items():
                x = row.get(j, 0) - w * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            row, g = _primitive(row)
            rows[i] = row
            if u != 1 or g != 1:
                scales[i] *= Fraction(u, g)
            if row:
                starting[min(row)].append(i)
        pivots.append(pivot)
        columns.append(col)
        order.append(p)
    return pivots, columns, order, [scales[p] for p in order]


def exact(v):
    """v as an int if it is integral, else as a Fraction."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def add_entry(row, col, value):
    """row[col] += value in a sparse row, which keeps no zero entry."""
    x = row.get(col, 0) + value
    if x:
        row[col] = x
    else:
        del row[col]


def _sparse(matrix):
    """The rows of a dense matrix as ``{column: value}`` rows, and its column count."""
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in matrix]
    return rows, len(matrix[0]) if matrix else 0


def rank(rows) -> int:
    """Rank of the sparse rows ``{column: value}``, which store no zero."""
    return len(_eliminate(rows, 1 + max((max(row) for row in rows if row), default=-1))[1])


def det(a) -> Fraction:
    pivots, columns, order, scales = _eliminate(*_sparse(a))
    if len(pivots) < len(a):
        return Fraction(0)
    inversions = sum(p > q for k, p in enumerate(order) for q in order[k + 1:])
    result = Fraction((-1) ** inversions)
    for row, col, scale in zip(pivots, columns, scales):
        result *= row[col] / scale
    return result


def betti_numbers(dims, ranks):
    """Betti numbers of a cochain complex: dim C^k - rank d_k - rank d_{k-1}."""
    return [dims[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(len(dims))]
