"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances and runtime budgets are pinned here exactly as stated; nothing is
deferred to later calibration.
"""

import random
import time
from fractions import Fraction

import pytest

from algindex import algebroid as alg
from algindex import chern_weil as cw
from algindex import groupoid as gp
from algindex import linalg
from algindex import thom_index as ti
from algindex.forms import AlgForm, basis_forms, cohomology_const, d_g
from algindex.scalars import Chart

import oracles


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_series_coefficients():
    start = time.monotonic()
    A = alg.abelian_bundle(0, 8)
    w1 = AlgForm.dual_basis(A, (0, 1)) + AlgForm.dual_basis(A, (2, 3))
    w2 = AlgForm.dual_basis(A, (4, 5)) + AlgForm.dual_basis(A, (6, 7))
    zero = AlgForm.zero(A)
    R = cw.FormMatrix(A, [[w1, zero], [zero, w2]])
    c1, c2 = cw.chern_class(R, 1), cw.chern_class(R, 2)

    todd = cw.char_class(R, "todd", 4)
    assert todd.degree_part(0) == AlgForm.constant(A, 1)
    assert todd.degree_part(2) == c1.scale(Fraction(1, 2))
    assert todd.degree_part(4) == (c2 + c1.wedge(c1)).scale(Fraction(1, 12))

    ch = cw.char_class(R, "ch", 4)
    assert ch.degree_part(0) == AlgForm.constant(A, 2)
    assert ch.degree_part(2) == c1
    assert ch.degree_part(4) == (c1.wedge(c1) - c2.scale(2)).scale(Fraction(1, 2))

    a1 = w1
    a2 = w2
    R_anti = cw.FormMatrix(
        A,
        [
            [zero, a1, zero, zero],
            [-a1, zero, zero, zero],
            [zero, zero, zero, a2],
            [zero, zero, -a2, zero],
        ],
    )
    p1, p2 = cw.pontryagin_class(R_anti, 1), cw.pontryagin_class(R_anti, 2)
    L = cw.char_class(R_anti, "l_genus", 8)
    assert L.degree_part(4) == p1.scale(Fraction(1, 3))
    assert L.degree_part(8) == (p2.scale(7) - p1.wedge(p1)).scale(Fraction(1, 45))
    a_hat = cw.char_class(R_anti, "a_hat", 8)
    assert a_hat.degree_part(4) == p1.scale(Fraction(-1, 24))
    assert a_hat.degree_part(8) == (
        p1.wedge(p1).scale(7) - p2.scale(4)
    ).scale(Fraction(1, 5760))

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    report(1, f"Td/ch/L/A-hat series match the stated rationals exactly "
              f"({elapsed:.2f}s < 1s)")


def test_criterion_2_d_squared_zero(su2, aff1, t2, so3_action, pullback_su2):
    start = time.monotonic()
    rng = random.Random(2323)
    for A in (su2, aff1, t2, so3_action, pullback_su2):
        for k in range(A.rank):
            for base in basis_forms(A, k):
                assert d_g(d_g(base)).is_zero(), (A.name, k)
            if A.base_dim:
                # polynomial coefficients exercise the anchor terms
                chart = A.chart
                for base in basis_forms(A, k):
                    coeff = chart.const(1)
                    for i in range(chart.dim):
                        if rng.random() < 0.5:
                            coeff = coeff * chart.coord(i)
                    form = base.scale(coeff)
                    assert d_g(d_g(form)).is_zero(), (A.name, k, "chart")
    for G in (gp.pair_groupoid(3), gp.cyclic_group_groupoid(2)):
        rep = gp.FiniteRep.trivial(G)
        dims = gp._cochain_dims(G, rep, 4)
        for k in range(3):
            d_k = oracles.dense(gp.differential_matrix(G, rep, k), dims[k])
            d_next = oracles.dense(gp.differential_matrix(G, rep, k + 1), dims[k + 1])
            product = linalg.matmul(d_next, d_k)
            assert all(v == 0 for row in product for v in row)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s (budget 10s)"
    report(2, f"d^2 = 0 exactly on full bases (5 algebroids incl. the dual "
              f"pull-back of su2, plus pair-3 and Z/2 complexes) ({elapsed:.2f}s < 10s)")


def test_criterion_3_lie_algebra_cohomology(su2, aff1):
    # the brute-force rank oracle ran first; its outputs are frozen here
    assert oracles.ce_betti_numbers({}, 3) == [1, 3, 3, 1]
    assert oracles.ce_betti_numbers(
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, 3
    ) == [1, 0, 0, 1]
    assert oracles.ce_betti_numbers({(0, 1): {1: 1}}, 2) == [1, 1, 0]

    assert cohomology_const(alg.abelian_bundle(0, 3)) == [1, 3, 3, 1]
    assert cohomology_const(su2) == [1, 0, 0, 1]
    assert cohomology_const(aff1) == [1, 1, 0]
    report(3, "Betti numbers (1,3,3,1)/(1,0,0,1)/(1,1,0) match the raw-matrix "
              "rank oracle exactly")


def test_criterion_4_pfaffian_squared_is_determinant():
    rng = random.Random(2424)
    cases = 0
    for A in (alg.aff1(), alg.product(alg.aff1(), alg.aff1())):
        for _ in range(3):
            metric = oracles.random_spd_metric(rng, A)
            R = cw.curvature(cw.levi_civita(A, metric))
            lowered = [
                [
                    sum(
                        (R.entries[k][j].scale(metric.entries[i][k])
                         for k in range(A.rank)),
                        AlgForm.zero(A),
                    )
                    for j in range(A.rank)
                ]
                for i in range(A.rank)
            ]
            pf = cw.pfaffian_form(R, metric)
            assert pf.wedge(pf) == oracles.form_det(cw.FormMatrix(A, lowered))
            cases += 1
    # the same identity with non-truncating (degree-zero) indeterminates,
    # where both sides are nonzero
    for size in (2, 4):
        names = tuple(f"a{i}{j}" for i in range(size) for j in range(i + 1, size))
        B = alg.abelian_bundle(len(names), size, Chart(names))
        entries = [[AlgForm.zero(B)] * size for _ in range(size)]
        k = 0
        for i in range(size):
            for j in range(i + 1, size):
                coeff = B.chart.coord(k)
                entries[i][j] = AlgForm.constant(B, coeff)
                entries[j][i] = AlgForm.constant(B, -coeff)
                k += 1
        R = cw.FormMatrix(B, entries)
        pf = cw.pfaffian_form(R)
        assert not pf.is_zero()
        assert pf.wedge(pf) == oracles.form_det(R)
    report(4, f"Pf(R)^2 = det(R) exactly for {cases} Levi-Civita curvatures "
              f"(rank 2 and 4) and for generic antisymmetric matrices")


def test_criterion_5_roots_identities():
    start = time.monotonic()
    logged = []
    for p in (1, 2):
        gb = cw.roots_identity("gauss_bonnet", p, 8)
        assert gb.residual_zero
        assert gb.factors == {p: Fraction((-1) ** p)}
        logged.append(f"gauss_bonnet p={p}: factor {gb.factors[p]}")
        sig = cw.roots_identity("signature", p, 8)
        assert sig.residual_zero
        for degree, factor in sig.factors.items():
            assert factor == Fraction(2) ** (p - degree)
        logged.append(
            "signature p=%d: factors %s"
            % (p, {2 * d: str(f) for d, f in sorted(sig.factors.items())})
        )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.2f}s (budget 5s)"
    report(5, "roots identities residual-zero through truncation 8; measured "
              "normalizations: " + "; ".join(logged) + f" ({elapsed:.2f}s < 5s)")


def test_criterion_6_gauss_bonnet_desk_scale(t2, sphere_metric):
    start = time.monotonic()
    flat = ti.index_general(
        "euler", t2, cw.Metric.identity(t2), ti.Density(t2, 1),
        ti.BoxDomain([(0, 1), (0, 1)]),
    )
    assert flat.value == 0 and flat.exact

    chi = oracles.euler_characteristic(oracles.octahedron_faces())
    assert chi == 2
    sphere = ti.index_general(
        "euler", t2, sphere_metric, ti.Density(t2, 1), ti.PlaneDomain(),
        tol=1e-8, budget=6000,
    )
    assert abs(sphere.value - chi) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.2f}s (budget 30s)"
    report(6, f"flat torus index exactly 0; stereographic sphere index "
              f"{sphere.value:.9f} vs triangulation chi=2 within 1e-6 "
              f"({elapsed:.2f}s < 30s)")


def test_criterion_7_thom_compatibility(su2, t2, sphere_metric):
    # symbolic cases: exact equality
    top = AlgForm.dual_basis(su2, (0, 1, 2))
    check = ti.thom_compatibility(su2, top, ti.Density(su2, 1))
    assert check.base.value == check.mapped.value == 1
    assert check.roundtrip_identity and check.theta_closed

    t1 = alg.tangent(1)
    x = t1.chart.coord(0)
    form = AlgForm.dual_basis(t1, (0,)).scale(1 + 3 * x * x)
    check1 = ti.thom_compatibility(t1, form, ti.Density(t1, 1), ti.BoxDomain([(0, 1)]))
    assert check1.base.value == check1.mapped.value == 2

    area = AlgForm.dual_basis(t2, (0, 1))
    check2 = ti.thom_compatibility(
        t2, area, ti.Density(t2, 1), ti.BoxDomain([(0, 1), (0, 1)])
    )
    assert check2.base.value == check2.mapped.value == 1

    # numeric case: 1e-9 agreement
    e = ti.euler_class(t2, sphere_metric)
    check3 = ti.thom_compatibility(t2, e, ti.Density(t2, 1), ti.PlaneDomain())
    assert abs(float(check3.base.value) - float(check3.mapped.value)) <= 1e-9 + \
        check3.base.error + check3.mapped.error
    report(7, "Thom-mapped integrals equal base integrals exactly (su2, line, "
              "torus) and within 1e-9 (sphere)")


def test_criterion_8_unimodularity(su2, aff1):
    assert ti.modular_cocycle(su2, ti.Density(su2, 1)).is_zero()
    for n in (1, 2, 3):
        A = alg.tangent(n)
        assert ti.modular_cocycle(A, ti.Density(A, 1)).is_zero()
    cocycle = ti.modular_cocycle(aff1, ti.Density(aff1, 1))
    assert cocycle == AlgForm.dual_basis(aff1, (0,))
    with pytest.raises(ti.NonInvariantDensityError):
        ti.integrate(aff1, AlgForm.dual_basis(aff1, (0, 1)), ti.Density(aff1, 1))
    report(8, "modular cocycles: 0 for su2/tangent(n), e^1 for aff(1); "
              "aff(1) density rejected by integrate, all exact")


def test_criterion_9_rank_only_mechanism(su2, t2):
    # flat rank-3 connection: positive-degree Chern character vanishes exactly
    mats = [
        [[su2.bracket(a, b)[c] for b in range(3)] for c in range(3)]
        for a in range(3)
    ]
    adjoint = cw.GConnection(su2, 3, mats)
    assert cw.curvature(adjoint).is_zero()
    ch = cw.char_class(adjoint, "ch")
    assert ch.degree_part(0) == AlgForm.constant(su2, 3)
    for k in range(1, su2.rank + 1):
        assert ch.degree_part(k).is_zero()

    # the Dirac index is linear in the rank on flat inputs
    metric = cw.Metric.identity(t2)
    density = ti.Density(t2, 1)
    domain = ti.BoxDomain([(0, 1), (0, 1)])
    nu = AlgForm.dual_basis(t2, (0, 1))
    base = ti.index_general(
        "dirac", t2, metric, density, domain, nu=nu, E=cw.GConnection.zero(t2, 1)
    )
    for rank in (2, 3, 5):
        scaled = ti.index_general(
            "dirac", t2, metric, density, domain, nu=nu, E=cw.GConnection.zero(t2, rank)
        )
        assert scaled.value == rank * base.value
    report(9, "flat rank-3 ch has exactly zero positive-degree components; "
              "the Dirac index scales linearly in the rank on flat inputs")


def test_criterion_10_finite_convolution_algebra():
    rng = random.Random(2525)
    pair3 = gp.pair_groupoid(3)
    for _ in range(10):
        f1 = {g: Fraction(rng.randint(-4, 4)) for g in pair3.arrows}
        f2 = {g: Fraction(rng.randint(-4, 4)) for g in pair3.arrows}
        conv = gp.convolve(f1, f2, pair3)
        product = linalg.matmul(
            gp.arrow_matrix_bijection(pair3, f1, 3),
            gp.arrow_matrix_bijection(pair3, f2, 3),
        )
        assert gp.arrow_matrix_bijection(pair3, conv, 3) == product
    weights = {x: Fraction(3) for x in pair3.objects}
    for _ in range(10):
        f1 = {g: Fraction(rng.randint(-4, 4)) for g in pair3.arrows}
        f2 = {g: Fraction(rng.randint(-4, 4)) for g in pair3.arrows}
        assert gp.trace(gp.convolve(f1, f2, pair3), weights, pair3) == gp.trace(
            gp.convolve(f2, f1, pair3), weights, pair3
        )
    bad_weights = {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)}
    f1, f2 = gp.invariance_counterexample(pair3, bad_weights)
    assert f1 is not None and f2 is not None
    with pytest.raises(gp.GroupoidError):
        gp.trace(f1, bad_weights, pair3)
    report(10, "pair-3 convolution = 3x3 matrix multiplication; trace "
               "cyclicity exact; non-invariant weights rejected with an "
               "exhibited counterexample pair")
