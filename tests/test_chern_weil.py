import random
import time
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import yaml

from algindex import algebroid as alg
from algindex import chern_weil as cw
from algindex.forms import AlgForm, basis_forms, d_g
from algindex.scalars import AlgindexError, Chart

import oracles


# -- curvature ------------------------------------------------------------------


def test_zero_connection_on_abelian_is_flat():
    A = alg.abelian_bundle(0, 3)
    assert cw.curvature(cw.GConnection.zero(A, 2)).is_zero()


def test_trivial_representation_is_flat(so3_action):
    assert cw.curvature(cw.GConnection.zero(so3_action, 1)).is_zero()


def test_su2_adjoint_is_flat(su2):
    mats = [
        [[su2.bracket(a, b)[c] for b in range(3)] for c in range(3)]
        for a in range(3)
    ]
    adjoint = cw.GConnection(su2, 3, mats)
    assert cw.curvature(adjoint).is_zero()
    assert cw.validate_representation(adjoint)


def test_su2_levi_civita_curvature(su2):
    metric = cw.Metric.identity(su2)
    lc = cw.levi_civita(su2, metric)
    # nabla_X Y = [X, Y]/2
    for a in range(3):
        for b in range(3):
            for c in range(3):
                half_bracket = su2.bracket(a, b)[c] * Fraction(1, 2)
                assert (lc.matrices[a][c][b] - half_bracket).is_zero()
    # R(X, Y) = -ad([X, Y])/4
    R = cw.curvature(lc)
    for a in range(3):
        for b in range(a + 1, 3):
            for i in range(3):
                for j in range(3):
                    expected = sum(
                        (
                            su2.bracket(a, b)[c] * su2.bracket(c, j)[i]
                            for c in range(3)
                        ),
                        su2.chart.zero(),
                    ) * Fraction(-1, 4)
                    got = R.entries[i][j].value_on((a, b))
                    assert (got - expected).is_zero()


# -- Levi-Civita ------------------------------------------------------------------


def test_levi_civita_flat_metric(t2):
    lc = cw.levi_civita(t2, cw.Metric.identity(t2))
    assert all(
        v.is_zero() for mat in lc.matrices for row in mat for v in row
    )


def test_levi_civita_properties_random_constant_metrics(su2, aff1):
    rng = random.Random(1212)
    for A in (su2, aff1):
        for _ in range(3):
            metric = oracles.random_spd_metric(rng, A)
            lc = cw.levi_civita(A, metric)
            assert oracles.torsion_components(lc) == {}
            assert oracles.metric_compatibility(lc, metric) == {}


def test_levi_civita_round_sphere_against_finite_differences(t2, sphere_metric):
    lc = cw.levi_civita(t2, sphere_metric)
    assert oracles.torsion_components(lc) == {}
    assert oracles.metric_compatibility(lc, sphere_metric) == {}
    # cross-check the Koszul solve against central differences of the metric
    point = (0.3, -0.7)
    g = [[lambda point, v=sphere_metric.entries[i][j]: float(v.eval(point)) for j in range(2)]
         for i in range(2)]
    gp = [[g[i][j](point) for j in range(2)] for i in range(2)]
    det = gp[0][0] * gp[1][1] - gp[0][1] * gp[1][0]
    ginv = [
        [gp[1][1] / det, -gp[0][1] / det],
        [-gp[1][0] / det, gp[0][0] / det],
    ]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                koszul = 0.5 * sum(
                    ginv[c][d]
                    * (
                        oracles.central_difference(g[d][b], list(point), a)
                        + oracles.central_difference(g[d][a], list(point), b)
                        - oracles.central_difference(g[a][b], list(point), d)
                    )
                    for d in range(2)
                )
                got = float(lc.matrices[a][c][b].eval(point))
                assert abs(koszul - got) <= 1e-5


def test_residuals_of_a_connection_with_torsion(t2, su2):
    # the oracles that find levi_civita torsion-free and metric-compatible see
    # T(e_a, e_b)^c = Gamma_a[c][b] - Gamma_b[c][a] - C^c_ab, pinned per pair
    x, y = t2.chart.coord(0), t2.chart.coord(1)
    conn = cw.GConnection(t2, 2, [[[x, x * x], [1, y]], [[1, x * y], [2, 0]]])
    torsion = oracles.torsion_components(conn)
    assert {k: [str(v) for v in vs] for k, vs in torsion.items()} == {
        (0, 1): ["x1^2 - 1", "x2 - 2"]}
    # the zero connection on su2 has torsion -[e_a, e_b]
    torsion = oracles.torsion_components(cw.GConnection.zero(su2, 3))
    assert {k: [str(v) for v in vs] for k, vs in torsion.items()} == {
        (0, 1): ["0", "0", "-1"], (0, 2): ["0", "1", "0"], (1, 2): ["-1", "0", "0"]}
    metric = oracles.metric_compatibility(conn, cw.Metric.identity(t2))
    assert {k: str(v) for k, v in metric.items()} == {
        (0, 0, 0): "-2*x1", (0, 0, 1): "-x1^2 - 1", (0, 1, 0): "-x1^2 - 1",
        (0, 1, 1): "-2*x2", (1, 0, 0): "-2", (1, 0, 1): "-x1*x2 - 2",
        (1, 1, 0): "-x1*x2 - 2"}


def test_levi_civita_differentiates_each_distinct_entry_once(monkeypatch):
    # a conformal metric holds two entry objects, its factor and one zero, so
    # the Koszul sum's 3 r^3 = 24 derivatives are 2 per direction
    t2 = alg.tangent(2)
    x, y = t2.chart.coord(0), t2.chart.coord(1)
    metric = cw.Metric.conformal(t2, t2.chart.const(4) / (1 + x * x + y * y) ** 2)
    calls = []
    anchor_apply = t2.anchor_apply
    monkeypatch.setattr(t2, "anchor_apply", lambda a, f: calls.append(a) or anchor_apply(a, f))
    cw.levi_civita(t2, metric)
    assert sorted(calls) == [0, 0, 1, 1]


# The conjugate Fubini-Study chart of tests/documents/conjugate-fubini-study.yaml
# (a matrix metric [[A, C], [-C, A]], positive definite and not homogeneous),
# its entries parsed one by one as the document's are
CONJUGATE_FS = Path(__file__).parent / "documents" / "conjugate-fubini-study.yaml"


def test_conjugate_fubini_study_l_genus_and_pfaffian_within_budget():
    spec = yaml.safe_load(CONJUGATE_FS.read_text())
    chart = Chart(spec["coordinates"])
    A = alg.tangent(4, chart)
    entries = [[chart.parse(v) for v in row] for row in spec["metrics"]["g"]["entries"]]
    metric = cw.Metric(A, entries)
    R = cw.curvature(cw.levi_civita(A, metric))
    start = time.perf_counter()
    L = cw.char_class(R, "l_genus")
    pf = cw.pfaffian_form(R, metric)
    elapsed = time.perf_counter() - start
    assert elapsed < 6.0, f"took {elapsed:.2f}s (budget 6s)"
    assert L.degrees() == [0, 4] and pf.degrees() == [4]
    # [[A, -C], [C, A]], the off-diagonal blocks negated, is Fubini-Study
    # itself: its L top is -8/rho^3 in this orientation
    fubini_study = cw.Metric(A, [[v if (i < 2) == (j < 2) else -v for j, v in enumerate(row)]
                                 for i, row in enumerate(entries)])
    rho = chart.parse("1 + x1^2 + x2^2 + y1^2 + y2^2")
    L = cw.char_class(cw.levi_civita(A, fubini_study), "l_genus")
    assert L.degree_part(4).value_on((0, 1, 2, 3)) == -8 / rho**3


def test_levi_civita_rejects_singular_metric(aff1):
    entries = [[1, 1], [1, 1]]
    with pytest.raises(ValueError):
        cw.levi_civita(aff1, cw.Metric(aff1, entries))


def test_sampled_positivity_skips_poles_and_sees_both_signs(t2):
    x, y = t2.chart.coord(0), t2.chart.coord(1)
    assert not cw.Metric.conformal(t2, x).check_positive_definite()
    assert not cw.Metric.conformal(t2, 1 + x * y).check_positive_definite()  # -1 at (1, -2)
    # the origin is a pole and is skipped; with no other point there is nothing to check
    punctured = cw.Metric.conformal(t2, 1 / (x * x + y * y))
    assert punctured.check_positive_definite()
    assert not punctured.check_positive_definite(sample_points=[(0, 0)])


# -- characteristic series (paper rationals) ------------------------------------


@pytest.fixture(scope="module")
def two_root_curvature():
    A = alg.abelian_bundle(0, 8)
    w1 = AlgForm.dual_basis(A, (0, 1)) + AlgForm.dual_basis(A, (2, 3))
    w2 = AlgForm.dual_basis(A, (4, 5)) + AlgForm.dual_basis(A, (6, 7))
    zero = AlgForm.zero(A)
    return cw.FormMatrix(A, [[w1, zero], [zero, w2]]), w1, w2


@pytest.fixture(scope="module")
def two_block_antisymmetric():
    A = alg.abelian_bundle(0, 8)
    a1 = AlgForm.dual_basis(A, (0, 1)) + AlgForm.dual_basis(A, (2, 3))
    a2 = AlgForm.dual_basis(A, (4, 5)) + AlgForm.dual_basis(A, (6, 7))
    z = AlgForm.zero(A)
    return (
        cw.FormMatrix(
            A,
            [
                [z, a1, z, z],
                [-a1, z, z, z],
                [z, z, z, a2],
                [z, z, -a2, z],
            ],
        ),
        a1,
        a2,
    )


def test_chern_classes_of_diagonal_curvature(two_root_curvature):
    R, w1, w2 = two_root_curvature
    assert cw.chern_class(R, 1) == w1 + w2
    assert cw.chern_class(R, 2) == w1.wedge(w2)


def test_chern_classes_are_principal_minor_sums_generic():
    # Newton's identities against the defining sum of principal k x k minors,
    # on a matrix of commuting indeterminate entries
    size = 3
    A = alg.abelian_bundle(size * size, size)
    entries = [
        [AlgForm.constant(A, A.chart.coord(size * i + j)) for j in range(size)]
        for i in range(size)
    ]
    R = cw.FormMatrix(A, entries)
    for k in range(1, size + 1):
        minors = AlgForm.zero(A)
        for subset in combinations(range(size), k):
            sub = cw.FormMatrix(A, [[entries[i][j] for j in subset] for i in subset])
            minors = minors + oracles.form_det(sub)
        assert cw.chern_class(R, k) == minors
    assert cw.chern_class(R, size + 1).is_zero()


def test_chern_character_series(two_root_curvature):
    R, w1, w2 = two_root_curvature
    c1, c2 = cw.chern_class(R, 1), cw.chern_class(R, 2)
    ch = cw.char_class(R, "ch", 4)
    assert ch.degree_part(0) == AlgForm.constant(R.algebroid, 2)
    assert ch.degree_part(2) == c1
    assert ch.degree_part(4) == (c1.wedge(c1) - c2.scale(2)).scale(Fraction(1, 2))


def test_todd_series(two_root_curvature):
    R, _, _ = two_root_curvature
    c1, c2 = cw.chern_class(R, 1), cw.chern_class(R, 2)
    todd = cw.char_class(R, "todd", 4)
    assert todd.degree_part(0) == AlgForm.constant(R.algebroid, 1)
    assert todd.degree_part(2) == c1.scale(Fraction(1, 2))
    assert todd.degree_part(4) == (c2 + c1.wedge(c1)).scale(Fraction(1, 12))


def test_todd_single_root_harness():
    # rank-1 harness: single Chern root x with x^2 != 0
    A = alg.abelian_bundle(0, 8)
    x = AlgForm.dual_basis(A, (0, 1)) + AlgForm.dual_basis(A, (2, 3))
    R = cw.FormMatrix(A, [[x]])
    todd = cw.char_class(R, "todd", 4)
    assert todd.degree_part(4) == x.wedge(x).scale(Fraction(1, 12))


def test_l_genus_series(two_block_antisymmetric):
    R, _, _ = two_block_antisymmetric
    p1 = cw.pontryagin_class(R, 1)
    p2 = cw.pontryagin_class(R, 2)
    L = cw.char_class(R, "l_genus", 8)
    assert L.degree_part(0) == AlgForm.constant(R.algebroid, 1)
    assert L.degree_part(4) == p1.scale(Fraction(1, 3))
    assert L.degree_part(8) == (p2.scale(7) - p1.wedge(p1)).scale(Fraction(1, 45))


def test_a_hat_series(two_block_antisymmetric):
    R, _, _ = two_block_antisymmetric
    p1 = cw.pontryagin_class(R, 1)
    p2 = cw.pontryagin_class(R, 2)
    a_hat = cw.char_class(R, "a_hat", 8)
    assert a_hat.degree_part(4) == p1.scale(Fraction(-1, 24))
    assert a_hat.degree_part(8) == (
        p1.wedge(p1).scale(7) - p2.scale(4)
    ).scale(Fraction(1, 5760))


def test_a_hat_with_vanishing_p2():
    # p1 = p, p2 = 0: degree-8 coefficient is 7 p^2 / 5760
    A = alg.abelian_bundle(0, 8)
    a1 = AlgForm.dual_basis(A, (0, 1)) + AlgForm.dual_basis(A, (2, 3))
    z = AlgForm.zero(A)
    R = cw.FormMatrix(A, [[z, a1], [-a1, z]])
    p1 = cw.pontryagin_class(R, 1)
    assert cw.pontryagin_class(R, 2).is_zero()
    a_hat = cw.char_class(R, "a_hat", 8)
    assert a_hat.degree_part(4) == p1.scale(Fraction(-1, 24))
    assert a_hat.degree_part(8) == p1.wedge(p1).scale(Fraction(7, 5760))


def test_truncation_beyond_top_is_silent(two_root_curvature):
    R, _, _ = two_root_curvature
    assert cw.char_class(R, "ch", 100).degrees() == cw.char_class(R, "ch").degrees()


# -- Pfaffian --------------------------------------------------------------------


def test_pfaffian_2x2_block():
    A = alg.abelian_bundle(0, 4)
    a = AlgForm.dual_basis(A, (0, 1))
    z = AlgForm.zero(A)
    R = cw.FormMatrix(A, [[z, a], [-a, z]])
    assert cw.pfaffian_form(R) == a


@pytest.mark.parametrize("bundle_rank, other_plane, message", [
    (4, False, "metric's rank"),  # a rank-4 bundle on the plane, the plane's metric
    (2, True, "different algebroid"),  # the right rank, declared on another plane
])
def test_pfaffian_refuses_a_metric_it_cannot_lower(bundle_rank, other_plane, message):
    plane = alg.tangent(2)
    R = cw.curvature(cw.GConnection.zero(plane, bundle_rank))
    metric = cw.Metric.identity(alg.tangent(2) if other_plane else plane)
    with pytest.raises(AlgindexError, match=message):
        cw.pfaffian_form(R, metric)


def test_pfaffian_odd_rank_vanishes_silently(su2):
    A = alg.abelian_bundle(0, 3)
    z = AlgForm.zero(A)
    R = cw.FormMatrix(A, [[z] * 3 for _ in range(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cw.pfaffian_form(R).is_zero()


def test_pfaffian_squared_is_determinant_generic():
    # the non-vacuous matrix identity, on commuting indeterminate entries
    for size in (2, 4):
        names = tuple(
            f"a{i}{j}" for i in range(size) for j in range(i + 1, size)
        )
        chart = Chart(names)
        A = alg.abelian_bundle(len(names), size)
        entries = [[AlgForm.zero(A) for _ in range(size)] for _ in range(size)]
        k = 0
        for i in range(size):
            for j in range(i + 1, size):
                coeff = A.chart.coord(k)
                entries[i][j] = AlgForm.constant(A, coeff)
                entries[j][i] = AlgForm.constant(A, -coeff)
                k += 1
        R = cw.FormMatrix(A, entries)
        pf = cw.pfaffian_form(R)
        det = oracles.form_det(R)
        assert pf.wedge(pf) == det


def test_pfaffian_squared_is_determinant_levi_civita():
    # as stated for curvature 2-forms: both sides live above the top degree
    # on rank-2/rank-4 presentations and are exactly equal (to zero)
    rng = random.Random(1313)
    aff1 = alg.aff1()
    rank4 = alg.product(alg.aff1(), alg.aff1())
    for A in (aff1, rank4):
        for _ in range(3):
            metric = oracles.random_spd_metric(rng, A)
            R = cw.curvature(cw.levi_civita(A, metric))
            lowered = [
                [
                    sum(
                        (R.entries[k][j].scale(metric.entries[i][k]) for k in range(A.rank)),
                        AlgForm.zero(A),
                    )
                    for j in range(A.rank)
                ]
                for i in range(A.rank)
            ]
            lowered_matrix = cw.FormMatrix(A, lowered)
            pf = cw.pfaffian_form(R, metric)
            assert pf.wedge(pf) == oracles.form_det(lowered_matrix)


# -- roots identities --------------------------------------------------------------


def test_gauss_bonnet_roots_identity():
    for p in (1, 2):
        result = cw.roots_identity("gauss_bonnet", p, 8)
        assert result.residual_zero
        assert result.factors == {p: Fraction((-1) ** p)}


def test_signature_roots_identity_power_of_two():
    for p in (1, 2):
        result = cw.roots_identity("signature", p, 8)
        assert result.residual_zero
        for degree, factor in result.factors.items():
            assert factor == Fraction(2) ** (p - degree)


def test_roots_identity_truncation_zero():
    for identity in ("gauss_bonnet", "signature"):
        result = cw.roots_identity(identity, 1, 0)
        assert result.residual_zero


def test_roots_identity_unknown():
    with pytest.raises(ValueError):
        cw.roots_identity("dolbeault", 1, 4)


@pytest.mark.parametrize("genus", ["chern", "todd", "l_genus", "a_hat"])
def test_root_series_and_log_coefficients_match_sympy(genus):
    # to x^12, past the form degree 8 that the class tests above reach
    sympy = pytest.importorskip("sympy")
    x, n = sympy.symbols("x"), 12
    q = {"chern": 1 + x, "todd": x / (1 - sympy.exp(-x)), "l_genus": x / sympy.tanh(x),
         "a_hat": (x / 2) / sympy.sinh(x / 2)}[genus]

    def coefficients(expr):
        poly = sympy.series(expr, x, 0, n + 1).removeO()
        return [Fraction(int(c.p), int(c.q))
                for c in (sympy.Rational(poly.coeff(x, k)) for k in range(n + 1))]

    assert cw._root_series(genus, n) == coefficients(q)
    log_q = coefficients(sympy.log(q))
    if genus in ("l_genus", "a_hat"):  # one root x_j of each pair +-i x_j
        log_q = [0 if j % 2 else c * Fraction((-1) ** (j // 2), 2) for j, c in enumerate(log_q)]
    assert cw._log_coefficients(genus, n) == log_q


# -- naturality, additivity, Bianchi ------------------------------------------------


def _pulled_back(morphism, conn):
    return cw.GConnection(morphism.source, conn.bundle_rank,
                          oracles.pulled_back_matrices(morphism, conn))


@pytest.fixture()
def shear_morphism():
    t2 = alg.tangent(2, name="T-target")
    src = alg.tangent(2, t2.chart, name="T-source")
    x, y = src.chart.coord(0), src.chart.coord(1)
    base = [x + y * y, y]
    bundle = [[src.chart.one(), src.chart.zero()], [2 * y, src.chart.one()]]
    morphism = oracles.Morphism(src, t2, base, bundle, "shear")
    assert oracles.morphism_violations(morphism) == []
    return morphism


def test_char_class_naturality(shear_morphism):
    tgt = shear_morphism.target
    x, y = tgt.chart.coord(0), tgt.chart.coord(1)
    z = tgt.chart.zero()
    conn = cw.GConnection(tgt, 2, [[[x, y], [z, x * x]], [[y, z], [x, y * y]]])
    pulled_conn = _pulled_back(shear_morphism, conn)
    for genus in ("ch", "todd", "chern"):
        direct = cw.char_class(pulled_conn, genus, 2)
        transported = oracles.pullback_form(shear_morphism, cw.char_class(conn, genus, 2))
        assert (direct - transported).is_zero(), genus


def test_curvature_naturality(shear_morphism):
    tgt = shear_morphism.target
    x, y = tgt.chart.coord(0), tgt.chart.coord(1)
    z = tgt.chart.zero()
    conn = cw.GConnection(tgt, 2, [[[x, z], [y, x]], [[z, y], [x * y, z]]])
    R_pulled = cw.curvature(_pulled_back(shear_morphism, conn))
    R = cw.curvature(conn)
    for i in range(2):
        for j in range(2):
            assert R_pulled.entries[i][j] == oracles.pullback_form(
                shear_morphism, R.entries[i][j]
            )


def test_chern_character_additive_multiplicative(su2):
    metric = cw.Metric.identity(su2)
    lc = cw.levi_civita(su2, metric)
    doubled = cw.GConnection(
        su2, 3, [[[2 * v for v in row] for row in mat] for mat in lc.matrices]
    )
    ch_sum = cw.char_class(oracles.direct_sum(lc, doubled), "ch")
    expected = cw.char_class(lc, "ch") + cw.char_class(doubled, "ch")
    assert (ch_sum - expected).is_zero()
    ch_tensor = cw.char_class(oracles.tensor_product(lc, doubled), "ch")
    product = cw.char_class(lc, "ch").wedge(cw.char_class(doubled, "ch"))
    assert (ch_tensor - product).is_zero()


def test_bianchi_for_levi_civita_constant_metrics(su2):
    rng = random.Random(1414)
    rank4 = alg.product(su2, alg.abelian_bundle(0, 1))
    for A in (su2, rank4):
        metric = oracles.random_spd_metric(rng, A)
        lc = cw.levi_civita(A, metric)
        R = cw.curvature(lc)
        assert all(w.is_zero() for row in oracles.covariant_derivative(R, lc) for w in row)


def _random_poly(rng, chart):
    value = chart.const(rng.randint(-2, 2))
    for i in range(chart.dim):
        value = value + chart.coord(i) * rng.randint(-2, 2)
        value = value + chart.coord(i) * chart.coord(rng.randrange(chart.dim)) * rng.randint(-1, 1)
    return value


def test_d_nabla_squared_is_curvature_wedge(su2):
    # (d^nabla)^2 w = R ^ w with R = cw.curvature(conn), on a rank-2 bundle whose
    # connection is not flat; the same connections satisfy Bianchi dR + [Gamma, R] = 0
    rng = random.Random(2020)
    for A in (alg.tangent(2), alg.tangent(3), su2):
        m = 2
        conn = cw.GConnection(A, m, [
            [[_random_poly(rng, A.chart) for _ in range(m)] for _ in range(m)]
            for _ in range(A.rank)
        ])
        R = cw.curvature(conn)
        assert not R.is_zero(), A.name
        assert all(w.is_zero() for row in oracles.covariant_derivative(R, conn) for w in row)
        for k in range(A.rank - 1):
            forms = [
                sum((base.scale(_random_poly(rng, A.chart)) for base in basis_forms(A, k)),
                    AlgForm.zero(A))
                for _ in range(m)
            ]
            twice = oracles.d_nabla(oracles.d_nabla(forms, conn), conn)
            assert not all(w.is_zero() for w in twice), (A.name, k)
            for j in range(m):
                expected = sum((R.entries[j][l].wedge(forms[l]) for l in range(m)),
                               AlgForm.zero(A))
                assert twice[j] == expected, (A.name, k, j)


def test_flat_connection_has_trivial_chern_character(su2):
    # rank-3 flat connection: all positive-degree ch components vanish exactly
    mats = [
        [[su2.bracket(a, b)[c] for b in range(3)] for c in range(3)]
        for a in range(3)
    ]
    adjoint = cw.GConnection(su2, 3, mats)
    ch = cw.char_class(adjoint, "ch")
    assert ch.degree_part(0) == AlgForm.constant(su2, 3)
    assert all(ch.degree_part(k).is_zero() for k in range(1, su2.rank + 1))
    trivial = cw.GConnection.zero(su2, 3)
    ch0 = cw.char_class(trivial, "ch")
    assert ch0.degree_part(0) == AlgForm.constant(su2, 3)
    assert all(ch0.degree_part(k).is_zero() for k in range(1, su2.rank + 1))


def test_characteristic_forms_are_closed():
    rng = random.Random(1515)
    t4 = alg.tangent(4)
    chart = t4.chart
    mats = []
    for _ in range(4):
        mat = [
            [
                sum(
                    (chart.coord(i) * rng.randint(-2, 2) for i in range(4)),
                    chart.zero(),
                )
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        mats.append(mat)
    conn = cw.GConnection(t4, 2, mats)
    for genus in ("ch", "todd", "chern"):
        mixed = cw.char_class(conn, genus, 4)
        assert d_g(mixed).is_zero(), genus
    su2 = alg.su2()
    metric = cw.Metric.identity(su2)
    lc = cw.levi_civita(su2, metric)
    for genus in ("ch", "todd"):
        assert d_g(cw.char_class(lc, genus)).is_zero()


# -- connection identities against the index-loop oracles ----------------------------


def _flow(backend):
    """The action algebroid ``flow`` of tests/documents/numeric-chart.yaml:
    [e_1, e_2] = (1 - x) e_1 + e_2.  On ``poly`` the anchor's exp(x) becomes 0,
    which keeps it a Lie algebroid."""
    anchor = [["1", "0"], ["x", "exp(x)" if backend == "numeric" else "0"]]
    return alg.action_algebroid({(0, 1): ["1 - x", "1"]}, anchor,
                                Chart(("x", "y"), backend), "flow")


def _sheared_plane():
    """The plane in the frame (d/dx, d/dy + x^2 y d/dx): [e_1, e_2] = 2xy e_1."""
    chart = Chart(("x", "y"))
    x, y = chart.coord(0), chart.coord(1)
    A = alg.AlgebroidPresentation(chart, 2, [[1, 0], [x * x * y, 1]],
                                  {(0, 1): [2 * x * y, 0]}, "sheared")
    assert A.validate().ok
    return A


def _oracle_algebroids(su2, so3_action):
    return [alg.tangent(3), su2, so3_action, _flow("poly"), _sheared_plane()]


def _random_connection(rng, A, m):
    return cw.GConnection(A, m, [
        [[_random_poly(rng, A.chart) for _ in range(m)] for _ in range(m)]
        for _ in range(A.rank)
    ])


def _strings(coeffs):
    return [(key, str(value)) for key, value in coeffs.items()]


def test_curvature_matches_the_index_loop_oracle(su2, so3_action, t2, sphere_metric):
    # entry by entry and string by string; the round sphere's Levi-Civita
    # connection runs on rational functions
    rng = random.Random(3001)
    connections = [_random_connection(rng, A, m)
                   for A in _oracle_algebroids(su2, so3_action) for m in (1, 2, 3)]
    connections.append(cw.levi_civita(t2, sphere_metric))
    seen = 0
    for conn in connections:
        R = cw.curvature(conn)
        for (i, j), expected in oracles.curvature_components(conn).items():
            assert sorted(_strings(R.entries[i][j].coeffs)) == sorted(_strings(expected)), (
                conn.algebroid.name, conn.bundle_rank, i, j)
            seen += len(expected)
    assert seen > 100


_NUMERIC_ENTRIES = ["sin(x)*y", "exp(x*y/4)", "1/(2 + sin(x))", "x^2 - y", "0.5", "0",
                    "cos(y) - x"]
_SAMPLE_POINTS = [(0.3, -0.7), (1.1, 0.4), (-1.5, 1.9), (0.0, 0.25), (1.75, -1.25)]


def _agree(got, expected):
    for point in _SAMPLE_POINTS:
        a, b = got.eval(point), expected.eval(point)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (point, a, b)


def test_connection_identities_match_the_oracles_on_numeric():
    # the numeric-chart document's algebroids; trees differ in the order of
    # their sums, so values are compared at sample points.  The numeric
    # Levi-Civita connection is torsion-free and metric-compatible
    rng = random.Random(3004)
    flow = _flow("numeric")
    plane = alg.tangent(2, flow.chart, name="plane")
    bumpy = cw.Metric.conformal(plane, "exp(x*y/4) + 1/(2 + sin(x))")

    def connection(A, m):
        return cw.GConnection(A, m, [[[rng.choice(_NUMERIC_ENTRIES) for _ in range(m)]
                                      for _ in range(m)] for _ in range(A.rank)])

    cases = [connection(flow, 2), connection(flow, 3), connection(plane, 2),
             cw.levi_civita(plane, bumpy)]
    for conn in cases:
        R = cw.curvature(conn)
        for (i, j), expected in oracles.curvature_components(conn).items():
            assert R.entries[i][j].coeffs.keys() == expected.keys()
            for key, value in expected.items():
                _agree(R.entries[i][j].coeffs[key], value)
    assert oracles.torsion_components(cases[-1]) == {}
    assert oracles.metric_compatibility(cases[-1], bumpy) == {}
