import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from algindex import algebroid as alg, forms
from algindex.forms import (
    _differential_matrix,
    _exact_constants,
    _weight_zero,
    AlgForm,
    GConnection,
    basis_forms,
    coboundary_witness,
    cohomology_const,
    d_g,
    d_nabla,
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
        assert df.value_on((i,)) == f.derive(i)
    omega = AlgForm.zero(t3)
    for i, poly in enumerate(components):
        omega = omega + AlgForm.dual_basis(t3, (i,)).scale(poly)
    domega = d_g(omega)
    for i in range(3):
        for j in range(i + 1, 3):
            expected = components[j].derive(i) - components[i].derive(j)
            assert domega.value_on((i, j)) == expected


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
        d_nabla([AlgForm.dual_basis(su2, (0,))], rep)
    with pytest.raises(ValueError):
        d_nabla([AlgForm.dual_basis(t2, (0,))] * 2, rep)


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
        for forms in _one_hot(su2, k, 3):
            assert all(w.is_zero() for w in d_nabla(d_nabla(forms, rep), rep))


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
            got = pulled.value_on((a, b))
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
    # the full complex against the weight-zero one, also on gl(3) written on a
    # permuted, sign-flipped basis as the benchmark writes it
    for rank, structure in (_gl(2), _sl2(), _relabel(random.Random(5), *_gl(3))):
        assert oracles.ce_betti_numbers(structure, rank) == cohomology_const(_lie(rank, structure))


def test_adjoint_coefficients_whitehead(su2, aff1):
    # H(su2; adjoint) = H(sl2; adjoint) = 0 (Whitehead), H(aff1; adjoint) = 0
    # (aff(1) is centerless with only inner derivations) -- strong independent
    # facts; ad(h) of sl(2) on h, e, f and ad(e1) of aff1 are diagonal, so
    # those two run on their weight-zero subcomplex
    for A in (su2, aff1, _lie(*_sl2())):
        assert cohomology_const(A, _adjoint(A)) == [0] * (A.rank + 1)


def _one_hot(A, degree, m):
    """Each basis form times each bundle basis vector, as a list of m forms;
    the one of (T, j) is number T * m + j."""
    zero = AlgForm.zero(A)
    return [[base if l == j else zero for l in range(m)]
            for base in basis_forms(A, degree) for j in range(m)]


def _d_g_matrix(A, rep, degree):
    """The matrix of d built by running d_nabla on every basis form."""
    m = rep.bundle_rank
    rows_basis = list(combinations(range(A.rank), degree + 1))
    columns = _one_hot(A, degree, m)
    matrix = [[Fraction(0)] * len(columns) for _ in range(len(rows_basis) * m)]
    for col, forms in enumerate(columns):
        for l, image in enumerate(d_nabla(forms, rep)):
            for S, v in image.coeffs.items():
                matrix[rows_basis.index(S) * m + l][col] = v.constant_value()
    return matrix


def _matrix(A, rep, degree):
    constants = _exact_constants(A, rep)
    return _differential_matrix(
        constants, _weight_zero(constants, degree + 1), _weight_zero(constants, degree))




def test_differential_matrix_matches_raw_oracle(monkeypatch):
    # seeded structure constants, Jacobi or not: the matrix only reads them.
    # Some draws have a torus element; with the torus taken away every
    # cochain has weight zero, so the whole matrix is compared
    monkeypatch.setattr(forms, "_WEIGHT_SUMS", -1)
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
            matrix = oracles.dense(_matrix(A, trivial, degree), comb(rank, degree))
            assert matrix == oracles.ce_differential_matrix(structure, rank, degree), (
                structure, degree)


def test_differential_matrix_with_representation_matches_d_g(su2, aff1, monkeypatch):
    # [rho(e1), rho(e2)] = rho(e2): a flat 2-dimensional representation of aff1
    plane = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    for A, rep in ((su2, _adjoint(su2)), (aff1, GConnection(aff1, 2, plane))):
        with monkeypatch.context() as patch:
            patch.setattr(forms, "_WEIGHT_SUMS", -1)  # no torus: the whole matrix
            for degree in range(A.rank):
                matrix = _matrix(A, rep, degree)
                n_cols = comb(A.rank, degree) * rep.bundle_rank
                assert oracles.dense(matrix, n_cols) == _d_g_matrix(A, rep, degree)
        # e1 of aff1 is a torus element here: this runs the weight-zero complex
        assert cohomology_const(A, rep) == [0] * (A.rank + 1)


def test_a_representation_matrix_off_the_diagonal_keeps_the_whole_complex(aff1):
    # ad(e1) of aff1 is diagonal, but rho(e1) = [[1, 1], [0, 0]] is not
    # diagonal in the given basis, so e1 is no torus element; the oracle is
    # the rank of the matrix that d_nabla makes on every basis form
    rep = GConnection(aff1, 2, [[[1, 1], [0, 0]], [[0, 0], [0, 0]]])
    ranks = [oracles.row_reduce_rank(_d_g_matrix(aff1, rep, k)) for k in range(2)] + [0]
    expected = [comb(2, k) * 2 - ranks[k] - (ranks[k - 1] if k else 0) for k in range(3)]
    assert cohomology_const(aff1, rep) == expected == [1, 2, 1]


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


def _lie(rank, structure):
    return alg.lie_algebra(
        {key: [row.get(c, 0) for c in range(rank)] for key, row in structure.items()}, rank)


def _adjoint(A):
    r = A.rank
    return GConnection(A, r, [[[A.bracket(a, b)[c] for b in range(r)] for c in range(r)]
                              for a in range(r)])


def _matrix_algebra(basis, pivots):
    """Structure constants of a Lie algebra of integer matrices from exact
    commutators; basis matrix c is 1 at pivots[c], where the others are 0."""
    n = len(basis[0])

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    structure = {}
    for a, b in combinations(range(len(basis)), 2):
        xy, yx = mul(basis[a], basis[b]), mul(basis[b], basis[a])
        bracket = [[p - q for p, q in zip(u, v)] for u, v in zip(xy, yx)]
        row = {c: bracket[i][j] for c, (i, j) in enumerate(pivots) if bracket[i][j]}
        # the commutator lies in the span
        assert bracket == [[sum(v * basis[c][i][j] for c, v in row.items()) for j in range(n)]
                           for i in range(n)]
        if row:
            structure[(a, b)] = row
    return len(basis), structure


def _unit(n, *entries):
    m = [[0] * n for _ in range(n)]
    for i, j, v in entries:
        m[i][j] = v
    return m


def _sl2():
    """sl(2) on h, e, f: [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    basis = [_unit(2, (0, 0, 1), (1, 1, -1)), _unit(2, (0, 1, 1)), _unit(2, (1, 0, 1))]
    return _matrix_algebra(basis, [(0, 0), (0, 1), (1, 0)])


def _sp4():
    """so(5) = sp(4) in a Chevalley basis: the 4x4 matrices [[A, B], [C, -A^T]]
    with B, C symmetric; H1, H2, then a root vector for each of the 8 roots
    +-(e1 - e2), +-2e1, +-2e2, +-(e1 + e2)."""
    basis = [
        _unit(4, (0, 0, 1), (2, 2, -1)), _unit(4, (1, 1, 1), (3, 3, -1)),
        _unit(4, (0, 1, 1), (3, 2, -1)), _unit(4, (1, 0, 1), (2, 3, -1)),
        _unit(4, (0, 2, 1)), _unit(4, (2, 0, 1)), _unit(4, (1, 3, 1)), _unit(4, (3, 1, 1)),
        _unit(4, (0, 3, 1), (1, 2, 1)), _unit(4, (3, 0, 1), (2, 1, 1)),
    ]
    pivots = [(0, 0), (1, 1), (0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (0, 3), (3, 0)]
    return _matrix_algebra(basis, pivots)


def _relabel(rng, rank, structure):
    """The same algebra on the basis s_i e_i, renumbered pi(i), s_i = +-1:
    c^c_ab becomes s_a s_b s_c c^c_ab."""
    perm = rng.sample(range(rank), rank)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    out = {}
    for (a, b), row in structure.items():
        sign = signs[a] * signs[b] * (1 if perm[a] < perm[b] else -1)
        out[tuple(sorted((perm[a], perm[b])))] = {
            perm[c]: sign * signs[c] * v for c, v in row.items()}
    return rank, out


def test_gl3_full_cohomology():
    # Poincare polynomial (1+t)(1+t^3)(1+t^5)
    rank, structure = _gl(3)
    A = _lie(rank, structure)
    start = time.monotonic()
    betti = cohomology_const(A)
    elapsed = time.monotonic() - start
    assert betti == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
    assert elapsed < 5.0, f"H* of gl(3) took {elapsed:.2f}s (budget 5s)"
    assert oracles.ce_betti_numbers(structure, rank) == betti


# the algebra and the degrees d of its primitive generators: H* has the
# Poincare polynomial prod (1 + t^d)
KNOWN_ANSWERS = {"gl4": (lambda: _gl(4), (1, 3, 5, 7)), "so5": (_sp4, (3, 7))}


@pytest.mark.parametrize("name", sorted(KNOWN_ANSWERS))
def test_weight_zero_cohomology_known_answers(name):
    # gl(4) in degree 8 has 426 weight-zero cochains of 12870, and its full
    # degree-5 matrix would have 34 978 944 entries, above 2^24
    algebra, degrees = KNOWN_ANSWERS[name]
    start = time.monotonic()
    betti = cohomology_const(_lie(*algebra()))
    elapsed = time.monotonic() - start
    assert betti == oracles.poincare_coefficients(degrees)
    assert elapsed < 10.0, f"H* of {name} took {elapsed:.2f}s (budget 10s)"


def test_gl5_is_refused_by_its_weight_zero_size():
    # the weight-zero matrices of gl(5) reach about 1.2e9 entries; the first
    # above 2^24 is refused before any basis of it is enumerated
    start = time.monotonic()
    with pytest.raises(AlgindexError, match=(
            r"^the degree-7 differential matrix would have 46721500 entries, "
            r"above the limit of 2\^24")):
        cohomology_const(_lie(*_gl(5)))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"refusing gl(5) took {elapsed:.2f}s (budget 5s)"


def _semidirect(weights):
    """R x| R^n: [e_1, e_i] = weights[i - 2] e_i, the rest commute."""
    return len(weights) + 1, {(0, i): {i: v} for i, v in enumerate(weights, 1) if v}


def test_weight_zero_walk_matches_the_filtered_combinations():
    # ad(e_1) of R x| R^7 acts with these weights, with the trivial and a
    # diagonal representation: the walk gives exactly the filtered subsets,
    # in combinations order, and as many cochains as the table counts
    rng = random.Random(25)
    for _ in range(6):
        weights = [rng.randint(-2, 2) for _ in range(7)]
        A = _lie(*_semidirect(weights))
        diagonal = GConnection(A, 2, [[[1, 0], [0, -1]]] + [[[0, 0], [0, 0]]] * 7)
        for rep, mu in ((GConnection.zero(A, 1), [0]), (diagonal, [1, -1])):
            constants = _exact_constants(A, rep)
            for k in range(A.rank + 1):
                expected = [(T, js) for T in combinations(range(A.rank), k)
                            if (js := [j for j, v in enumerate(mu)
                                       if sum(weights[b - 1] for b in T if b) == v])]
                assert _weight_zero(constants, k) == expected, (weights, mu, k)
                assert constants[-1][0][k].get(0, 0) == sum(len(js) for _, js in expected)


def test_a_skewed_torus_walks_only_the_weight_zero_cochains():
    # R x| R^29 with every weight 1 has weight-zero dims 1, 1, 0, ..., so
    # every degree passes the size check; the walk must not visit the 2^30
    # subsets of its basis
    start = time.monotonic()
    assert cohomology_const(_lie(*_semidirect([1] * 29))) == [1, 1] + [0] * 29
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"R x| R^29 took {elapsed:.2f}s (budget 2s)"


def test_too_many_weight_sums_build_the_whole_complex(monkeypatch):
    # a table that would pass its limit drops the torus; the whole complex
    # has the same cohomology
    monkeypatch.setattr(forms, "_WEIGHT_SUMS", 10)
    A = _lie(*_gl(3))
    constants = _exact_constants(A, GConnection.zero(A, 1))
    assert constants[2] == [0] * 9
    assert [counts[0] for counts in constants[-1][0]] == [comb(9, k) for k in range(10)]
    assert cohomology_const(A) == oracles.poincare_coefficients((1, 3, 5))


@pytest.mark.parametrize("name", ["gl3", "aff1-adjoint", "sl2-adjoint"])
def test_weight_zero_matrix_is_the_restricted_full_matrix(name, monkeypatch):
    if name == "gl3":
        A = _lie(*_gl(3))
        rep, torus = GConnection.zero(A, 1), (0, 4, 8)  # E_11, E_22, E_33
    else:
        A = alg.aff1() if name == "aff1-adjoint" else _lie(*_sl2())
        rep, torus = _adjoint(A), (0,)  # e1 of aff1, h of sl(2)
    r, m = A.rank, rep.bundle_rank
    # the weights by hand: ad(h) on e_b and rho(h) on the j-th bundle vector
    lam = [[A.bracket(h, b)[b].constant_value() for h in torus] for b in range(r)]
    mu = [[rep.matrices[h][j][j].constant_value() for h in torus] for j in range(m)]

    def cochains(k, weight_zero):
        return [(T, j) for T in combinations(range(r), k) for j in range(m)
                if not weight_zero or all(
                    sum(lam[b][t] for b in T) == mu[j][t] for t in range(len(torus)))]

    for degree in range(r):
        rows, columns = cochains(degree + 1, True), cochains(degree, True)
        small = oracles.dense(_matrix(A, rep, degree), len(columns))
        with monkeypatch.context() as patch:
            patch.setattr(forms, "_WEIGHT_SUMS", -1)  # no torus: the whole matrix
            full = oracles.dense(_matrix(A, rep, degree), comb(r, degree) * m)
        full_rows, full_columns = cochains(degree + 1, False), cochains(degree, False)
        assert small == [[full[full_rows.index(row)][full_columns.index(col)] for col in columns]
                         for row in rows], (name, degree)
        # d preserves weight: a weight-zero row meets only weight-zero columns
        for row in rows:
            values = full[full_rows.index(row)]
            assert all(full_columns[n] in columns for n, v in enumerate(values) if v), (name, row)


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
