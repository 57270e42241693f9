import math
import random
from fractions import Fraction
from importlib import resources

import pytest

from algindex import algebroid as alg
from algindex import chern_weil as cw
from algindex import cli, quadrature
from algindex import thom_index as ti
from algindex.forms import AlgForm, MixedForm, basis_forms, d_g, pullback_form
from algindex.scalars import AlgindexError, Chart

import oracles


# -- modular cocycle and unimodularity -------------------------------------------


def test_su2_is_unimodular(su2):
    assert ti.modular_cocycle(su2, ti.Density(su2, 1)).is_zero()


def test_aff1_modular_cocycle_is_e1(aff1):
    cocycle = ti.modular_cocycle(aff1, ti.Density(aff1, 1))
    assert cocycle == AlgForm.dual_basis(aff1, (0,))


def test_tangent_lebesgue_is_unimodular():
    for n in (1, 2, 3):
        A = alg.tangent(n)
        assert ti.modular_cocycle(A, ti.Density(A, 1)).is_zero()


def test_modular_cocycle_is_closed(aff1, so3_action):
    for A in (aff1, so3_action):
        cocycle = ti.modular_cocycle(A, ti.Density(A, 1))
        assert d_g(cocycle).is_zero()


def test_weighted_density_cocycle(t2):
    # rho(f)/f term: density (1 + x^2) on the tangent algebroid
    x = t2.chart.coord(0)
    density = ti.Density(t2, 1 + x * x)
    cocycle = ti.modular_cocycle(t2, density)
    expected = (2 * x) / (1 + x * x)
    assert cocycle.value_on((0,))[0] == expected
    assert cocycle.value_on((1,))[0].is_zero()


def test_vanishing_density_rejected(su2):
    with pytest.raises(ValueError):
        ti.Density(su2, 0)


# -- integration -------------------------------------------------------------------


def test_su2_top_pairing(su2):
    result = ti.integrate(
        su2, AlgForm.dual_basis(su2, (0, 1, 2)), ti.Density(su2, 1)
    )
    assert result.value == 1 and result.value_is_exact


def test_box_integral_exact(t2):
    x = t2.chart.coord(0)
    form = d_g(AlgForm.dual_basis(t2, (1,)).scale(x))
    result = ti.integrate(
        t2, form, ti.Density(t2, 1), ti.BoxDomain([(0, 1), (0, 1)])
    )
    assert result.value == 1 and result.value_is_exact


def test_stokes_vanishing_boundary_exact(t2):
    x, y = t2.chart.coord(0), t2.chart.coord(1)
    bump = (x * (1 - x)) ** 3 * (y * (1 - y)) ** 3
    form = d_g(AlgForm.dual_basis(t2, (1,)).scale(bump))
    result = ti.integrate(
        t2, form, ti.Density(t2, 1), ti.BoxDomain([(0, 1), (0, 1)])
    )
    assert result.value == 0 and result.value_is_exact


def test_stokes_vanishing_boundary_numeric():
    # same check through the numeric-expression backend and quadrature
    chart = Chart(("x", "y"), "numeric")
    A = alg.tangent(2, chart)
    x, y = chart.coord(0), chart.coord(1)
    bump = (x * (1 - x)) ** 3 * (y * (1 - y)) ** 3
    form = d_g(AlgForm.dual_basis(A, (1,)).scale(bump))
    result = ti.integrate(
        A, form, ti.Density(A, 1), ti.BoxDomain([(0, 1), (0, 1)]), tol=1e-10
    )
    assert abs(result.value) <= 1e-9


def test_non_invariant_density_rejected(aff1):
    with pytest.raises(ti.NonInvariantDensityError):
        ti.integrate(aff1, AlgForm.dual_basis(aff1, (0, 1)), ti.Density(aff1, 1))


def test_degree_restriction(su2):
    with pytest.raises(ValueError):
        ti.integrate(su2, AlgForm.dual_basis(su2, (0,)), ti.Density(su2, 1))


def test_one_dimensional_box(t2):
    t1 = alg.tangent(1)
    x = t1.chart.coord(0)
    form = AlgForm.dual_basis(t1, (0,)).scale(x * x)
    result = ti.integrate(t1, form, ti.Density(t1, 1), ti.BoxDomain([(0, 2)]))
    assert result.value == Fraction(8, 3) and result.value_is_exact


def test_box_bounds_are_exact_rationals():
    assert ti.BoxDomain([("1/2", 1), (0.5, Fraction(3, 4))]).bounds == [
        (Fraction(1, 2), Fraction(1)), (Fraction(1, 2), Fraction(3, 4))]
    for bad in ("1/x", "1/0"):
        with pytest.raises(AlgindexError):
            ti.BoxDomain([(0, bad)])


def test_rational_integrand_over_box_is_numeric(t2):
    x, y = t2.chart.coord(0), t2.chart.coord(1)
    coeff = t2.chart.const(1) / (1 + x * x + y * y)
    form = AlgForm.dual_basis(t2, (0, 1)).scale(coeff)
    result = ti.integrate(
        t2, form, ti.Density(t2, 1), ti.BoxDomain([(0, 1), (0, 1)]), tol=1e-10
    )
    assert not result.value_is_exact
    # Riemann-sum oracle at modest resolution
    n = 200
    riemann = sum(
        1.0 / (1 + ((i + 0.5) / n) ** 2 + ((j + 0.5) / n) ** 2)
        for i in range(n)
        for j in range(n)
    ) / (n * n)
    assert abs(result.value - riemann) <= 1e-4


def test_integral_of_exact_forms_vanishes_point_base(su2, so3_action):
    # the integration lemma in the base_dim = 0 case, exactly
    density = ti.Density(su2, 1)
    for base in basis_forms(su2, su2.rank - 1):
        result = ti.integrate(su2, d_g(base), density)
        assert result.value == 0 and result.value_is_exact


# -- symplectic form -----------------------------------------------------------------


def test_symplectic_tangent_is_darboux():
    pb = alg.pullback(alg.tangent(2), 2)
    theta = ti.symplectic_form(pb)
    expected = AlgForm(pb, 2, {(0, 2): (1,), (1, 3): (1,)})
    assert theta == expected
    assert d_g(theta).is_zero()


def test_symplectic_abelian_line():
    pb = alg.pullback(alg.abelian_bundle(1, 1), 1)
    theta = ti.symplectic_form(pb)
    assert theta == AlgForm(pb, 2, {(0, 1): (1,)})
    assert not ti.symplectic_top_power(pb, theta).is_zero()


def test_symplectic_su2_lie_poisson(pullback_su2):
    theta = ti.symplectic_form(pullback_su2)
    assert d_g(theta).is_zero()
    assert not ti.symplectic_top_power(pullback_su2, theta).is_zero()
    # canonical pairing part present
    data = pullback_su2.pullback_data
    for a in range(3):
        assert theta.value_on((a, data.vertical[a]))[0] == 1
    # Lie-Poisson corrections are linear in the fiber coordinates on h^h pairs
    correction = theta.value_on((0, 1))[0]
    assert not correction.is_zero()
    u3 = pullback_su2.chart.coord(data.fiber_coords[2])
    assert (correction - u3).is_zero() or (correction + u3).is_zero()


# -- the formal Thom calculus ----------------------------------------------------------


def test_thom_class_requires_orientation(pullback_su2):
    with pytest.raises(ValueError):
        ti.thom_class(pullback_su2, orientation=0)


def test_thom_square_is_zero(pullback_su2):
    th = ti.thom_class(pullback_su2)
    assert th.wedge(th).is_zero()


def test_vertical_factors_die_against_thom(pullback_su2):
    th = ti.thom_class(pullback_su2)
    vertical = AlgForm.dual_basis(
        pullback_su2, (pullback_su2.pullback_data.vertical[0],)
    )
    assert th.wedge(MixedForm.from_form(vertical)).is_zero()


def test_fiber_restriction_gives_generator(pullback_su2):
    inclusion = alg.fiber_inclusion_morphism(pullback_su2, [])
    free, thom = ti.restrict_extended(inclusion, ti.thom_class(pullback_su2))
    fiber = inclusion.source
    assert free.is_zero()
    assert thom == MixedForm.constant(fiber, 1)


def test_thom_pullback_along_identity(pullback_su2, su2):
    lifted = ti.lift_morphism_to_pullbacks(
        alg.identity_morphism(su2), pullback_su2, pullback_su2
    )
    assert lifted.validate().ok
    t = ti.thom_map(AlgForm.dual_basis(su2, (0, 1)), pullback_su2)
    assert ti.pullback_extended(lifted, t, pullback_su2) == t


def test_thom_naturality_along_anchor(so3_action):
    tangent = alg.tangent(3, so3_action.chart, name="T(R3)")
    anchor = alg.anchor_morphism(so3_action, tangent)
    pb_src = alg.pullback(so3_action, 3)
    pb_tgt = alg.pullback(tangent, 3)
    lifted = ti.lift_morphism_to_pullbacks(anchor, pb_src, pb_tgt)
    assert lifted.validate().ok
    pulled = ti.pullback_extended(lifted, ti.thom_class(pb_tgt), pb_src)
    assert pulled == ti.thom_class(pb_src)


def test_fiber_integrate_roundtrip(su2, t2):
    rng = random.Random(1616)
    pb = alg.pullback(su2, 3)
    for k in range(su2.rank + 1):
        for base in basis_forms(su2, k):
            assert ti.fiber_integrate(ti.thom_map(base, pb)).degree_part(k) == base
    pb2 = alg.pullback(t2, 2)
    x = t2.chart.coord(0)
    form = AlgForm.dual_basis(t2, (0, 1)).scale(1 + x * x)
    assert ti.fiber_integrate(ti.thom_map(form, pb2)).degree_part(2) == form


def test_fiber_integrate_rejects_vertical_top_free_part(pullback_su2):
    vertical_top = AlgForm.dual_basis(
        pullback_su2, tuple(pullback_su2.pullback_data.vertical)
    )
    bad = ti.ThomExtendedForm(pullback_su2, free=MixedForm.from_form(vertical_top))
    with pytest.raises(ValueError, match="vertical top"):
        ti.fiber_integrate(bad)


def test_fiber_integrate_free_part_without_vertical_top_is_dropped(pullback_su2):
    horizontal = AlgForm.dual_basis(pullback_su2, (0, 1))
    t = ti.ThomExtendedForm(pullback_su2, free=MixedForm.from_form(horizontal))
    assert ti.fiber_integrate(t).is_zero()


def test_fiber_integrate_rejects_fiber_dependent_thom_part(pullback_su2):
    u1 = pullback_su2.chart.coord(pullback_su2.pullback_data.fiber_coords[0])
    part = AlgForm.dual_basis(pullback_su2, (0,)).scale(u1)
    bad = ti.ThomExtendedForm(pullback_su2, thom=MixedForm.from_form(part))
    with pytest.raises(ValueError, match="fiber coordinates"):
        ti.fiber_integrate(bad)


def test_zero_section_restriction_substitutes_euler_form(t2, sphere_metric):
    pb = alg.pullback(t2, 2)
    e = ti.euler_class(t2, sphere_metric)
    restricted = ti.zero_section_restrict(ti.thom_class(pb), e)
    assert restricted == MixedForm.from_form(e)
    # consistent with pulling the lifted representative back along the section
    zs = alg.zero_section_morphism(pb)
    assert pullback_form(zs, ti.pi_star(e, pb)) == e


# -- Thom / integration compatibility ---------------------------------------------------


def test_thom_compatibility_su2(su2):
    top = AlgForm.dual_basis(su2, (0, 1, 2))
    check = ti.thom_compatibility(su2, top, ti.Density(su2, 1))
    assert check.theta_closed and check.theta_nondegenerate
    assert check.roundtrip_identity
    assert check.base.value == 1 and check.mapped.value == 1
    assert check.compatible


def test_thom_compatibility_tangent_line():
    t1 = alg.tangent(1)
    x = t1.chart.coord(0)
    form = AlgForm.dual_basis(t1, (0,)).scale(3 * x * x + 1)
    check = ti.thom_compatibility(
        t1, form, ti.Density(t1, 1), ti.BoxDomain([(0, 1)])
    )
    assert check.compatible and check.base.value == 2
    assert check.base.value_is_exact and check.mapped.value_is_exact


def test_thom_compatibility_torus(t2):
    form = AlgForm.dual_basis(t2, (0, 1))
    check = ti.thom_compatibility(
        t2, form, ti.Density(t2, 1), ti.BoxDomain([(0, 1), (0, 1)])
    )
    assert check.compatible and check.base.value == 1


def test_thom_compatibility_sphere_numeric(monkeypatch, t2, sphere_metric):
    e = ti.euler_class(t2, sphere_metric)
    results = _spy_quadrature(monkeypatch)
    check = ti.thom_compatibility(t2, e, ti.Density(t2, 1), ti.PlaneDomain())
    assert check.compatible and check.roundtrip_identity
    assert abs(float(check.base.value) - float(check.mapped.value)) <= 1e-9 + 2e-7
    # the round trip holds, so the mapped integral is the base one: one quadrature
    assert len(results) == 1


# -- Euler class and index evaluators -----------------------------------------------------


def test_euler_class_flat_metric(t2):
    assert ti.euler_class(t2, cw.Metric.identity(t2)).is_zero()


def test_euler_class_odd_rank(su2):
    assert ti.euler_class(su2, cw.Metric.identity(su2)).is_zero()


def test_euler_class_round_sphere_is_gauss_curvature_form(t2, sphere_metric):
    # the ordinary Euler form of the round metric is K * dA = lambda dx^dy
    e = ti.euler_class(t2, sphere_metric)
    lam = sphere_metric.entries[0][0]
    expected = AlgForm.dual_basis(t2, (0, 1)).scale(lam)
    assert e == expected
    # pull-back along the (identity) anchor morphism of the tangent algebroid
    anchor = alg.anchor_morphism(t2, alg.tangent(2, t2.chart, name="T"))
    lifted = AlgForm(anchor.target, 2, {(0, 1): (lam,)})
    assert pullback_form(anchor, lifted) == e


def test_euler_class_is_computed_once_per_metric(t2, monkeypatch):
    x, y = t2.chart.coord(0), t2.chart.coord(1)
    metric = cw.Metric.conformal(t2, 1 / (1 + x * x + 2 * y * y))
    calls = []

    def counting(A, g):
        calls.append(A)
        return cw.levi_civita(A, g)

    monkeypatch.setattr(ti, "levi_civita", counting)
    first = ti.euler_class(t2, metric)
    second = ti.euler_class(t2, metric)
    assert len(calls) == 1
    assert first == second and not first.is_zero()
    # the kept form is for the metric's own algebroid only
    with pytest.raises(AlgindexError, match="different algebroid"):
        ti.euler_class(alg.tangent(2), metric)
    assert len(calls) == 2


def test_sphere_plane_quadrature_is_pinned(monkeypatch):
    # the raw integral of the bundled sphere job's index, bit for bit
    original = quadrature.integrate_2d
    results = []

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(quadrature, "integrate_2d", spy)
    job = resources.files("algindex").joinpath("jobs/sphere-stereographic.yaml")
    ctx = cli.JobContext(cli.load_document(str(job)))
    result = ti.index_euler(
        ctx.ref("algebroid", "sphere_chart"), ctx.ref("metric", "round"),
        ctx.ref("density", "lebesgue"), ctx.ref("domain", "plane"),
        tol=1e-8, budget=6000,
    )
    assert result.integral.raw == 12.566370619856325
    assert result.integral.error == 1.0986086516414886e-07
    assert [r.panels for r in results] == [106]


def test_transcendental_box_quadrature_is_pinned(monkeypatch):
    # a numeric-backend integrand over a box, bit for bit
    results = _spy_quadrature(monkeypatch)
    A = alg.tangent(2, Chart(("x", "y"), "numeric"))
    wave = A.chart.parse("sin(x)*cos(y) + sqrt(1 + x^2) - 2.5*x^3")
    form = AlgForm.dual_basis(A, (0, 1)).scale(wave)
    result = ti.integrate(A, form, ti.Density(A, 1), ti.BoxDomain([(0, 1), ("-1/2", 1)]),
                          tol=1e-13)
    assert not result.exact
    assert result.raw == 1.3914034480438033
    assert result.error == 1.1712852909795402e-14
    assert [r.panels for r in results] == [4]


def _spy_quadrature(monkeypatch):
    """The QuadResult of every quadrature entry-point call, in call order."""
    results = []
    for name in ("integrate_1d", "integrate_2d"):
        original = getattr(quadrature, name)

        def spy(*args, _original=original, **kwargs):
            results.append(_original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(quadrature, name, spy)
    return results


def _inverse_quadric(A):
    """The top form 1/(1 + x_1^2 + ... + x_n^2) on a tangent algebroid."""
    xs = [A.chart.coord(i) for i in range(A.base_dim)]
    denominator = 1 + sum(x * x for x in xs)
    return AlgForm.dual_basis(A, tuple(range(A.rank))).scale(A.chart.const(1) / denominator)


@pytest.mark.parametrize("dim,domain,tol,raw,error,panels", [
    # int 1/(1+x^2) dx over the line is pi
    (1, ti.PlaneDomain(), 1e-9, 3.141592653589783, 1.1546319456101628e-14, 1),
    # atan(3) + pi/4
    (1, ti.BoxDomain([(-1, 3)]), 1e-12, 2.0344439357956965, 4.691247390553599e-13, 6),
    (2, ti.BoxDomain([(0, 1), (-1, 2)]), 1e-10, 1.5702264783779252, 7.47097730902091e-11, 13),
])
def test_quadrature_paths_are_pinned(monkeypatch, dim, domain, tol, raw, error, panels):
    results = _spy_quadrature(monkeypatch)
    A = alg.tangent(dim)
    result = ti.integrate(A, _inverse_quadric(A), ti.Density(A, 1), domain, tol=tol)
    assert not result.exact
    assert result.raw == raw
    assert result.error == error
    assert [r.panels for r in results] == [panels]


@pytest.mark.parametrize("domain", [ti.BoxDomain([(0, 1)] * 3), ti.PlaneDomain()])
def test_three_dimensional_quadrature_is_refused(domain):
    A = alg.tangent(3)
    with pytest.raises(AlgindexError, match="base dimension <= 2"):
        ti.integrate(A, _inverse_quadric(A), ti.Density(A, 1), domain)


def test_three_dimensional_polynomial_box_is_exact():
    A = alg.tangent(3)
    x, y, z = (A.chart.coord(i) for i in range(3))
    form = AlgForm.dual_basis(A, (0, 1, 2)).scale(x * y * y + z)
    result = ti.integrate(A, form, ti.Density(A, 1), ti.BoxDomain([(0, 1), (0, 2), (0, 3)]))
    # int x y^2 = 1/2 * 8/3 * 3 = 4, int z = 1 * 2 * 9/2 = 9
    assert result.value == 13 and result.value_is_exact


def test_index_euler_flat_torus(t2):
    result = ti.index_euler(
        t2, cw.Metric.identity(t2), ti.Density(t2, 1), ti.BoxDomain([(0, 1), (0, 1)])
    )
    assert result.value == 0 and result.exact


def test_index_euler_sphere_matches_triangulation_oracle(t2, sphere_metric):
    chi = oracles.euler_characteristic(oracles.octahedron_faces())
    assert chi == 2
    result = ti.index_euler(
        t2, sphere_metric, ti.Density(t2, 1), ti.PlaneDomain(),
        tol=1e-8, budget=6000,
    )
    assert abs(result.value - chi) <= 1e-6
    assert not result.exact and result.error <= 1e-6


def test_index_euler_rejects_non_invariant_density(aff1):
    with pytest.raises(ti.NonInvariantDensityError):
        ti.index_euler(aff1, cw.Metric.identity(aff1), ti.Density(aff1, 1))


def test_index_dirac_rank_scaling(t2):
    # flat coefficient bundles: the index scales linearly in the rank
    metric = cw.Metric.identity(t2)
    density = ti.Density(t2, 1)
    domain = ti.BoxDomain([(0, 1), (0, 1)])
    nu = AlgForm.dual_basis(t2, (0, 1))
    values = []
    for rank in (1, 2, 3):
        E = cw.GConnection.zero(t2, rank)
        result = ti.index_dirac(t2, metric, E, nu, density, domain)
        values.append(result.value)
        assert result.i_power == 1  # nu has degree 2
    assert values[1] == 2 * values[0]
    assert values[2] == 3 * values[0]
    assert abs(values[0] - 1 / (2 * math.pi)) <= 1e-12


def test_index_signature_degree_mismatch_is_exact_zero(t2):
    result = ti.index_signature(
        t2, cw.Metric.identity(t2), None, ti.Density(t2, 1),
        ti.BoxDomain([(0, 1), (0, 1)]),
    )
    assert result.value == 0 and result.exact
    assert "degree mismatch" in result.note


def test_index_signature_with_supplied_class(t2):
    nu = AlgForm.dual_basis(t2, (0, 1))
    result = ti.index_signature(
        t2, cw.Metric.identity(t2), nu, ti.Density(t2, 1),
        ti.BoxDomain([(0, 1), (0, 1)]),
    )
    # flat L-genus = 1: the integral is the nu volume, normalized
    assert abs(result.value - 1 / (2 * math.pi)) <= 1e-12
    assert result.i_power == 1


def test_index_signature_requires_closed_nu(t2):
    x = t2.chart.coord(0)
    not_closed = AlgForm.dual_basis(t2, (1,)).scale(x)
    with pytest.raises(ValueError):
        ti.index_signature(
            t2, cw.Metric.identity(t2), not_closed, ti.Density(t2, 1)
        )


def test_index_general_dispatch_and_refusal(t2, sphere_metric):
    result = ti.index_general(
        t2, sphere_metric, None, None, ti.Density(t2, 1), "euler",
        ti.PlaneDomain(), tol=1e-6, budget=6000,
    )
    assert abs(result.value - 2) <= 1e-4
    with pytest.raises(ti.UnresolvedEulerDivisionError, match="euler, signature, dirac"):
        ti.index_general(
            t2, sphere_metric, None, None, ti.Density(t2, 1), "dolbeault"
        )


def test_sqrt_det_failure_is_reported(aff1):
    metric = cw.Metric(aff1, [[2, 0], [0, 1]])  # det 2: no exact square root
    with pytest.raises(ValueError, match="square root"):
        ti.euler_class(aff1, metric)
