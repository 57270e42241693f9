"""The exact elimination behind rank and det, against the independent row
reduction and Leibniz determinant of ``oracles``."""

import operator
import random
from fractions import Fraction

import pytest

from algindex import algebroid as alg
from algindex import groupoid as gp
from algindex import linalg
from algindex.forms import GConnection, _differential_matrix, _exact_constants, _weight_zero
from algindex.scalars import AlgindexError

import oracles


def _random_sparse(rng, rows, cols, density):
    return [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Fraction(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]


def _random_matrix(rng, rows, cols):
    """Sparse, or a product of thin factors (rank deficient), with a zero row
    and a zero column now and then."""
    if rng.random() < 0.4 and min(rows, cols) > 1:
        inner = rng.randint(1, min(rows, cols) - 1)
        m = linalg.matmul(_random_sparse(rng, rows, inner, 0.6),
                          _random_sparse(rng, inner, cols, 0.6))
    else:
        m = _random_sparse(rng, rows, cols, rng.choice([0.15, 0.3, 0.6]))
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [Fraction(0)] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in m:
            row[j] = Fraction(0)
    return m


def _matrices(seed, count=150, max_size=7):
    rng = random.Random(seed)
    fixed = [[], [[], []], [[Fraction(0)] * 3 for _ in range(2)], [[Fraction(2)]]]
    return fixed + [
        _random_matrix(rng, rng.randint(1, max_size), rng.randint(1, max_size))
        for _ in range(count)
    ]


def _sparse(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m]


def test_rank_matches_row_reduction():
    for m in _matrices(101):
        assert linalg.rank(_sparse(m)) == oracles.row_reduce_rank(m), m


def _random_sparse_rows(rng, kind):
    """Sparse rows of ints, of Fractions or of both, with empty rows now and then."""
    n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
    rows = []
    for _ in range(n_rows):
        row = {}
        for j in range(n_cols):
            if rng.random() < 0.35:
                if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                    row[j] = rng.choice([-3, -2, -1, 1, 2, 3, 6])
                else:
                    row[j] = Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.randint(1, 6))
        rows.append(row)
    return rows, n_cols


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_rank_of_sparse_rows_matches_row_reduction(kind):
    rng = random.Random(f"sparse-{kind}")
    assert linalg.rank([]) == 0
    assert linalg.rank([{}, {}]) == 0
    for _ in range(200):
        rows, n_cols = _random_sparse_rows(rng, kind)
        before = [dict(row) for row in rows]
        assert linalg.rank(rows) == oracles.row_reduce_rank(oracles.dense(rows, n_cols)), rows
        assert rows == before  # the caller's rows are not consumed


def test_det_of_an_integer_matrix_is_an_exact_fraction():
    rng = random.Random(707)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        expected = oracles.leibniz_determinant(m, operator.mul, operator.add, 0)
        value = linalg.det(m)
        assert type(value) is Fraction and value == expected, m
    assert type(linalg.det([[2, 1], [1, 1]])) is Fraction


def test_builder_rows_store_no_zero():
    # the faces of (a, a, a) in Z/n cancel on the chain (a, a), and in degree 1
    # a weight and a structure constant of aff1 cancel: both builders meet zero sums
    for G in (gp.cyclic_group_groupoid(4), gp.pair_groupoid(3)):
        rep = gp.FiniteRep.trivial(G)
        for k in range(4):
            rows = gp.differential_matrix(G, rep, k)
            assert all(v != 0 for row in rows for v in row.values()), (G, k)
    for A in (alg.aff1(), alg.su2()):
        r = A.rank
        adjoint = [[[A.bracket(a, b)[c] for b in range(r)] for c in range(r)] for a in range(r)]
        for rep in (GConnection.zero(A, 1), GConnection(A, r, adjoint)):
            for degree in range(r):
                constants = _exact_constants(A, rep)
                rows = _differential_matrix(constants, _weight_zero(constants, degree + 1),
                                            _weight_zero(constants, degree))
                assert all(v != 0 for row in rows for v in row.values()), (A, degree)


def test_det_matches_leibniz():
    rng = random.Random(202)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        expected = oracles.leibniz_determinant(m, operator.mul, operator.add, Fraction(0))
        assert linalg.det(m) == expected, m
    assert linalg.det([]) == 1


def test_det_tracks_row_scales():
    # every row has its own denominator, so every row is scaled differently
    # to an integer row, and every elimination step rescales a row again
    rng = random.Random(505)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(100):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-9, 9), primes[i] ** rng.randint(1, 2)) for _ in range(n)]
             for i in range(n)]
        expected = oracles.leibniz_determinant(m, operator.mul, operator.add, Fraction(0))
        assert linalg.det(m) == expected, m


def test_matmul_matches_triple_loop():
    rng = random.Random(606)
    for _ in range(100):
        rows, inner, cols = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = _random_sparse(rng, rows, inner, rng.choice([0.15, 0.4, 1.0]))
        b = _random_sparse(rng, inner, cols, rng.choice([0.15, 0.4, 1.0]))
        expected = [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
                     for j in range(cols)] for i in range(rows)]
        product = linalg.matmul(a, b)
        assert product == expected
        assert all(type(v) is Fraction for row in product for v in row)
    with pytest.raises(AlgindexError):
        linalg.matmul([[Fraction(1), Fraction(2)]], [[Fraction(1)]])


def test_size_check_is_at_2_to_the_24():
    linalg.check_size(2 ** 24, "a matrix")
    with pytest.raises(AlgindexError, match="a matrix would have 16777217 entries"):
        linalg.check_size(2 ** 24 + 1, "a matrix")
