import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from algindex import algebroid as alg
from algindex.forms import (
    _differential_matrix,
    AlgForm,
    GConnection,
    basis_forms,
    coboundary_witness,
    cohomology_const,
    d_g,
    is_cocycle,
    pullback_form,
    wedge,
)
from algindex.scalars import AlgindexError, Chart

import oracles


def random_form(rng, A, degree, max_coeff=6):
    form = AlgForm.zero(A)
    for base in basis_forms(A, degree):
        form = form + base.scale(Fraction(rng.randint(-max_coeff, max_coeff)))
    return form


def random_chart_form(rng, A, degree, monomial_degree=2):
    form = AlgForm.zero(A)
    chart = A.chart
    for base in basis_forms(A, degree):
        coeff = chart.const(rng.randint(-3, 3))
        for i in range(chart.dim):
            if rng.random() < 0.5:
                coeff = coeff * chart.coord(i)
        form = form + base.scale(coeff)
    return form


# -- differential examples -----------------------------------------------------


def test_de_rham_example(t2):
    x = t2.chart.coord(0)
    form = AlgForm.dual_basis(t2, (1,)).scale(x)  # x dy
    assert d_g(form) == AlgForm.dual_basis(t2, (0, 1))  # dx ^ dy


def test_su2_chevalley_eilenberg_example(su2):
    e1 = AlgForm.dual_basis(su2, (0,))
    expected = -AlgForm.dual_basis(su2, (1, 2))
    assert d_g(e1) == expected


def test_tangent_differential_is_de_rham():
    # on the tangent algebroid the Koszul formula must reduce to the
    # coordinate de Rham differential: (d f)_i = df/dx_i and
    # (d omega)_{ij} = d omega_j/dx_i - d omega_i/dx_j
    t3 = alg.tangent(3)
    rng = random.Random(1010)
    chart = t3.chart
    f = chart.zero()
    components = []
    for i in range(3):
        poly = chart.const(rng.randint(-3, 3))
        for j in range(3):
            poly = poly + chart.coord(j) * rng.randint(-2, 2)
            poly = poly + chart.coord(i) * chart.coord(j) * rng.randint(-2, 2)
        components.append(poly)
        f = f + poly * chart.coord(i)
    df = d_g(AlgForm.constant(t3, f))
    for i in range(3):
        assert df.value_on((i,))[0] == f.derive(i)
    omega = AlgForm.zero(t3)
    for i, poly in enumerate(components):
        omega = omega + AlgForm.dual_basis(t3, (i,)).scale(poly)
    domega = d_g(omega)
    for i in range(3):
        for j in range(i + 1, 3):
            expected = components[j].derive(i) - components[i].derive(j)
            assert domega.value_on((i, j))[0] == expected


def test_differential_of_constant_is_zero(su2, t2, aff1):
    for A in (su2, t2, aff1):
        one = AlgForm.constant(A, 1)
        assert d_g(one).is_zero()


def test_degree_overflow_is_zero(su2):
    top = AlgForm.dual_basis(su2, (0, 1, 2))
    assert d_g(top).is_zero()


def test_mismatched_representation_rejected(su2, t2):
    rep = GConnection.zero(t2, 1)
    with pytest.raises(ValueError):
        d_g(AlgForm.dual_basis(su2, (0,)), rep)


# -- wedge algebra ----------------------------------------------------------------


def test_wedge_basis_example(su2):
    e1, e2 = AlgForm.dual_basis(su2, (0,)), AlgForm.dual_basis(su2, (1,))
    assert wedge(e1, e2) == AlgForm.dual_basis(su2, (0, 1))


def test_wedge_self_is_zero(su2):
    e1 = AlgForm.dual_basis(su2, (0,))
    assert wedge(e1, e1).is_zero()


def test_wedge_bilinearity(su2):
    e1, e2 = AlgForm.dual_basis(su2, (0,)), AlgForm.dual_basis(su2, (1,))
    lhs = wedge(e1 + e2, e1 - e2)
    assert lhs == AlgForm.dual_basis(su2, (0, 1)).scale(-2)


def test_wedge_associative_and_graded_commutative(pullback_su2):
    rng = random.Random(606)
    A = pullback_su2
    for _ in range(10):
        degrees = [rng.randint(0, 2) for _ in range(3)]
        a, b, c = (random_form(rng, A, d) for d in degrees)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        sign = (-1) ** (degrees[0] * degrees[1])
        ba = wedge(b, a)
        assert wedge(a, b) == (ba if sign > 0 else -ba)


def test_wedge_top_truncation(su2):
    top = AlgForm.dual_basis(su2, (0, 1, 2))
    e1 = AlgForm.dual_basis(su2, (0,))
    assert wedge(top, e1).is_zero()


# -- one graded form type -----------------------------------------------------------


def test_graded_form_degrees(su2):
    one, e1 = AlgForm.constant(su2, 1), AlgForm.dual_basis(su2, (0,))
    top = AlgForm.dual_basis(su2, (0, 1, 2))
    mixed = one + e1.scale(2) + top
    assert mixed.degrees() == [0, 1, 3]
    assert mixed.degree_part(1) == e1.scale(2)
    assert mixed.degree_part(2).is_zero()
    assert mixed.truncate(1) == one + e1.scale(2)
    assert top.degree == 3 and AlgForm.zero(su2).degree == 0
    with pytest.raises(AlgindexError, match="no single degree"):
        mixed.degree
    with pytest.raises(TypeError):  # the degree argument is gone
        AlgForm.zero(su2, 2)


def test_forms_on_different_algebroids_do_not_mix(su2, aff1):
    homogeneous = (AlgForm.dual_basis(su2, (0,)), AlgForm.dual_basis(aff1, (0,)))
    mixed = (AlgForm.constant(su2, 1) + homogeneous[0], AlgForm.constant(aff1, 1) + homogeneous[1])
    for a, b in (homogeneous, mixed, (homogeneous[0], mixed[1]), (mixed[0], homogeneous[1])):
        with pytest.raises(AlgindexError, match="different algebroids"):
            a + b
        with pytest.raises(AlgindexError, match="different algebroids"):
            a.wedge(b)
        assert a != b and not a == b


@pytest.mark.parametrize("algebroid", ["su2", "so3_action"])
def test_d_g_of_a_mixed_form_acts_degree_by_degree(algebroid, request):
    A = request.getfixturevalue(algebroid)
    rng = random.Random(808)
    w = AlgForm.zero(A)
    for k in range(A.rank + 1):
        w = w + (random_chart_form(rng, A, k) if A.base_dim else random_form(rng, A, k))
    assert len(w.degrees()) == A.rank + 1
    dw = d_g(w)
    parts = AlgForm.zero(A)
    for k in w.degrees():
        parts = parts + d_g(w.degree_part(k))
    assert not dw.is_zero() and dw == parts
    assert d_g(dw).is_zero()


# -- d^2 = 0 and the Leibniz property ----------------------------------------------


def _d_squared_vanishes(A, monomial_degree=0):
    rng = random.Random(707)
    for k in range(A.rank):
        for base in basis_forms(A, k):
            assert d_g(d_g(base)).is_zero(), (A.name, k)
        if monomial_degree and A.base_dim:
            form = random_chart_form(rng, A, k, monomial_degree)
            assert d_g(d_g(form)).is_zero(), (A.name, k, "chart")


def test_d_squared_su2(su2):
    _d_squared_vanishes(su2)


def test_d_squared_aff1(aff1):
    _d_squared_vanishes(aff1)


def test_d_squared_tangent2(t2):
    _d_squared_vanishes(t2, monomial_degree=3)


def test_d_squared_action_algebroid(so3_action):
    _d_squared_vanishes(so3_action, monomial_degree=2)


def test_d_squared_pullback_su2(pullback_su2):
    _d_squared_vanishes(pullback_su2, monomial_degree=2)


def test_d_squared_with_flat_representation(su2):
    # adjoint representation of su(2): matrices ad(e_a)
    mats = [
        [[su2.bracket(a, b)[c] for b in range(3)] for c in range(3)]
        for a in range(3)
    ]
    rep = GConnection(su2, 3, mats)
    for k in range(su2.rank):
        for base in basis_forms(su2, k, bundle_rank=3):
            assert d_g(d_g(base, rep), rep).is_zero()


def test_leibniz_graded_derivation(su2, t2):
    rng = random.Random(808)
    for A in (su2, t2):
        for _ in range(8):
            ka, kb = rng.randint(0, A.rank - 1), rng.randint(0, A.rank - 1)
            a = random_chart_form(rng, A, ka) if A.base_dim else random_form(rng, A, ka)
            b = random_chart_form(rng, A, kb) if A.base_dim else random_form(rng, A, kb)
            lhs = d_g(wedge(a, b))
            rhs = wedge(d_g(a), b)
            db = wedge(a, d_g(b))
            rhs = rhs + (db if ka % 2 == 0 else -db)
            assert lhs == rhs


# -- pull-back of forms --------------------------------------------------------------


def test_pullback_along_identity(t2):
    rng = random.Random(909)
    morphism = alg.identity_morphism(t2)
    for k in range(t2.rank + 1):
        form = random_chart_form(rng, t2, k)
        assert pullback_form(morphism, form) == form


def test_pullback_along_anchor_is_primary_class_pullback(so3_action):
    # pulling a de Rham form back along the anchor, checked against direct
    # componentwise substitution on the tangent algebroid of the same chart
    tangent = alg.tangent(3, so3_action.chart, name="T(R3)")
    anchor = alg.anchor_morphism(so3_action, tangent)
    assert anchor.validate().ok
    x = so3_action.chart.coord(0)
    omega = AlgForm.dual_basis(tangent, (0, 1)).scale(x)  # x dx^dy
    pulled = pullback_form(anchor, omega)
    # direct computation: omega(rho(e_a), rho(e_b))
    for a in range(so3_action.rank):
        for b in range(a + 1, so3_action.rank):
            direct = (
                so3_action.anchor[a][0] * so3_action.anchor[b][1]
                - so3_action.anchor[a][1] * so3_action.anchor[b][0]
            ) * x
            got = pulled.value_on((a, b))[0]
            assert (got - direct).is_zero()


def test_pullback_is_cochain_map(so3_action, pullback_su2):
    rng = random.Random(111)
    tangent = alg.tangent(3, so3_action.chart, name="T(R3)")
    anchor = alg.anchor_morphism(so3_action, tangent)
    for k in range(3):
        form = random_chart_form(rng, tangent, k)
        assert pullback_form(anchor, d_g(form)) == d_g(pullback_form(anchor, form))
    zs = alg.zero_section_morphism(pullback_su2)
    for k in range(4):
        form = random_form(rng, pullback_su2, k)
        assert pullback_form(zs, d_g(form)) == d_g(pullback_form(zs, form))


def test_zero_section_kills_vertical_forms(pullback_su2, su2):
    zs = alg.zero_section_morphism(pullback_su2)
    vertical = AlgForm.dual_basis(
        pullback_su2, tuple(pullback_su2.pullback_data.vertical)
    )
    assert pullback_form(zs, vertical).is_zero()


# -- cohomology ------------------------------------------------------------------------


def test_abelian_betti():
    A = alg.abelian_bundle(0, 3)
    assert cohomology_const(A) == [1, 3, 3, 1]


def test_su2_betti(su2):
    assert cohomology_const(su2) == [1, 0, 0, 1]


def test_aff1_betti(aff1):
    assert cohomology_const(aff1) == [1, 1, 0]


def test_betti_against_raw_rank_oracle(su2, aff1):
    # oracle applied to the raw differential matrices, frozen expectations
    su2_structure = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
    assert oracles.ce_betti_numbers(su2_structure, 3) == cohomology_const(su2)
    aff1_structure = {(0, 1): {1: 1}}
    assert oracles.ce_betti_numbers(aff1_structure, 2) == cohomology_const(aff1)


def test_adjoint_coefficients_whitehead(su2, aff1):
    # H(su2; adjoint) = 0 (Whitehead), H(aff1; adjoint) = 0 (aff(1) is
    # centerless with only inner derivations) -- strong independent facts
    for A in (su2, aff1):
        mats = [
            [[A.bracket(a, b)[c] for b in range(A.rank)] for c in range(A.rank)]
            for a in range(A.rank)
        ]
        adjoint = GConnection(A, A.rank, mats)
        assert cohomology_const(A, adjoint) == [0] * (A.rank + 1)


def _d_g_matrix(A, rep, degree):
    """The matrix of d built by running d_g on every basis form."""
    m = rep.bundle_rank
    rows_basis = list(combinations(range(A.rank), degree + 1))
    columns = basis_forms(A, degree, bundle_rank=m)  # column (T, j) is number T * m + j
    matrix = [[Fraction(0)] * len(columns) for _ in range(len(rows_basis) * m)]
    for col, base in enumerate(columns):
        for S, values in d_g(base, rep).coeffs.items():
            for l, v in enumerate(values):
                matrix[rows_basis.index(S) * m + l][col] = v.constant_value()
    return matrix


def test_differential_matrix_matches_raw_oracle():
    # seeded structure constants, Jacobi or not: the matrix only reads them
    rng = random.Random(808)
    for _ in range(25):
        rank = rng.randint(1, 6)
        structure = {}
        for a, b in combinations(range(rank), 2):
            if rng.random() < 0.6:
                structure[(a, b)] = {
                    c: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for c in range(rank) if rng.random() < 0.4
                }
        A = alg.AlgebroidPresentation(
            Chart((), "poly"), rank, [[] for _ in range(rank)],
            {key: [row.get(c, 0) for c in range(rank)] for key, row in structure.items()},
        )
        trivial = GConnection.zero(A, 1)
        for degree in range(rank):
            matrix = oracles.dense(_differential_matrix(A, trivial, degree), comb(rank, degree))
            assert matrix == oracles.ce_differential_matrix(structure, rank, degree), (
                structure, degree)


def test_differential_matrix_with_representation_matches_d_g(su2, aff1):
    adjoint = [
        [[su2.bracket(a, b)[c] for b in range(3)] for c in range(3)] for a in range(3)
    ]
    # [rho(e1), rho(e2)] = rho(e2): a flat 2-dimensional representation of aff1
    plane = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    for A, rep in ((su2, GConnection(su2, 3, adjoint)), (aff1, GConnection(aff1, 2, plane))):
        for degree in range(A.rank):
            matrix = _differential_matrix(A, rep, degree)
            n_cols = comb(A.rank, degree) * rep.bundle_rank
            assert oracles.dense(matrix, n_cols) == _d_g_matrix(A, rep, degree)
        assert cohomology_const(A, rep) == [0] * (A.rank + 1)


def _gl(n):
    """gl(n) on the basis E_ij: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    basis = [(i, j) for i in range(n) for j in range(n)]
    structure = {}
    for (a, (i, j)), (b, (k, l)) in combinations(enumerate(basis), 2):
        row = {}
        if j == k:
            row[basis.index((i, l))] = 1
        if l == i:
            c = basis.index((k, j))
            row[c] = row.get(c, 0) - 1
        if any(row.values()):
            structure[(a, b)] = {c: v for c, v in row.items() if v}
    return len(basis), structure


def test_gl3_full_cohomology():
    # Poincare polynomial (1+t)(1+t^3)(1+t^5)
    rank, structure = _gl(3)
    A = alg.lie_algebra(
        {key: [row.get(c, 0) for c in range(rank)] for key, row in structure.items()}, rank)
    start = time.monotonic()
    betti = cohomology_const(A)
    elapsed = time.monotonic() - start
    assert betti == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
    assert elapsed < 5.0, f"H* of gl(3) took {elapsed:.2f}s (budget 5s)"
    assert oracles.ce_betti_numbers(structure, rank) == betti


def test_cohomology_rejects_positive_dimensional_base(t2):
    with pytest.raises(ValueError):
        cohomology_const(t2)


# -- cocycle and coboundary testing -----------------------------------------------------


def test_is_cocycle(su2):
    assert is_cocycle(AlgForm.dual_basis(su2, (0, 1, 2)))
    assert not is_cocycle(AlgForm.dual_basis(su2, (0,)))


def test_coboundary_witness_constant_case(aff1):
    # d e^2 = -e^1 ^ e^2, so -e^1^e^2 has witness e^2
    target = -AlgForm.dual_basis(aff1, (0, 1))
    witness = coboundary_witness(target)
    assert witness is not None
    assert d_g(witness) == target


def test_coboundary_witness_failure_is_none(su2):
    # the top class of su(2) is not exact
    assert coboundary_witness(AlgForm.dual_basis(su2, (0, 1, 2))) is None


def test_coboundary_witness_chart_ansatz(t2):
    x = t2.chart.coord(0)
    target = d_g(AlgForm.dual_basis(t2, (1,)).scale(x * x))
    witness = coboundary_witness(target, ansatz_degree=2)
    assert witness is not None
    assert d_g(witness) == target
    # not-found-within-ansatz is reported as None, never as "not exact"
    assert coboundary_witness(target, ansatz_degree=0) is None


def test_coboundary_witness_of_zero_is_zero(su2, t2):
    for A in (su2, t2):
        witness = coboundary_witness(AlgForm.zero(A))
        assert witness is not None and witness.is_zero() and witness.algebroid is A
