import gc
import itertools
import json
import math
import random
import runpy
import time
import weakref
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
import yaml

from algindex import algebroid as alg
from algindex import chern_weil as cw
from algindex import cli, quadrature
from algindex import thom_index as ti
from algindex.forms import AlgForm, basis_forms, d_g
from algindex.scalars import AlgindexError, Chart, RationalScalar

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
    assert cocycle.value_on((0,)) == expected
    assert cocycle.value_on((1,)).is_zero()


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


def test_integrate_refuses_a_mixed_form_below_top_degree(su2):
    top, density = AlgForm.dual_basis(su2, (0, 1, 2)), ti.Density(su2, 1)
    for lower in (AlgForm.constant(su2, 1), AlgForm.dual_basis(su2, (0, 1))):
        with pytest.raises(AlgindexError, match="only top-degree"):
            ti.integrate(su2, top + lower, density)
    zero = ti.integrate(su2, AlgForm.zero(su2), density)
    assert zero.value == 0 and zero.value_is_exact


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
    expected = AlgForm(pb, {(0, 2): 1, (1, 3): 1})
    assert theta == expected
    assert d_g(theta).is_zero()


def test_symplectic_abelian_line():
    pb = alg.pullback(alg.abelian_bundle(1, 1), 1)
    theta = ti.symplectic_form(pb)
    assert theta == AlgForm(pb, {(0, 1): 1})
    assert not ti.symplectic_top_power(pb, theta).is_zero()


def test_symplectic_su2_lie_poisson(pullback_su2, su2, aff1):
    theta = ti.symplectic_form(pullback_su2)
    # Lie-Poisson corrections are linear in the fiber coordinates on h^h pairs
    correction = theta.value_on((0, 1))
    data = pullback_su2.pullback_data
    u3 = pullback_su2.chart.coord(data.fiber_coords[2])
    assert (correction - u3).is_zero() or (correction + u3).is_zero()
    # the same shape on a non-unimodular algebra and on a product
    for A in (su2, aff1, alg.product(su2, aff1)):
        pb = pullback_su2 if A is su2 else alg.pullback(A, A.rank)
        theta = ti.symplectic_form(pb)
        assert d_g(theta).is_zero()
        assert not ti.symplectic_top_power(pb, theta).is_zero()
        data = pb.pullback_data
        # canonical pairing part present
        for a in range(A.rank):
            assert theta.value_on((a, data.vertical[a])) == 1
        for a in range(A.rank):
            for b in range(a + 1, A.rank):
                correction = theta.value_on((a, b))
                bracketed = any(not c.is_zero() for c in A.bracket(a, b))
                assert correction.is_zero() != bracketed, (A.name, a, b)
                for u in data.fiber_coords:
                    assert correction.derive(u).is_constant()


def _thom_check_then(tmp_path, capsys, algebroid, after, coordinates=(), domain=None):
    """Run a thom-check of the top form of ``algebroid`` and then ``after``
    in-process; the JSON results and the exit code."""
    rank = algebroid["rank"]
    top = ",".join(str(i + 1) for i in range(rank))
    check = {"op": "thom-check", "label": "theta", "algebroid": "g", "form": "top",
             "density": "omega"}
    doc = {"version": 1, "backend": "poly", "coordinates": list(coordinates),
           "algebroids": {"g": algebroid},
           "densities": {"omega": {"algebroid": "g", "coefficient": "1"}},
           "forms": {"top": {"algebroid": "g", "degree": rank, "coefficients": {top: "1"}}},
           "computations": [check, {**after, "label": "after", "algebroid": "g"}]}
    if domain is not None:
        doc["domains"] = {"cell": domain}
        check["domain"] = "cell"
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = cli.main(["--format", "json", "run", str(path)])
    return json.loads(capsys.readouterr().out)["results"], code


def test_symplectic_form_refuses_a_jacobi_violation(tmp_path, capsys):
    # unimodular (every structure matrix is traceless) but not a Lie algebra
    structure = {"1,2": {"2": -1, "4": -1}, "1,3": {"2": -1, "4": 1}, "1,4": {"4": 1},
                 "2,3": {"2": -1, "4": -1}, "2,4": {"2": 1}, "3,4": {"3": -1, "4": -1}}
    results, code = _thom_check_then(
        tmp_path, capsys, {"kind": "lie_algebra", "rank": 4, "structure": structure},
        {"op": "cohomology"})
    assert code == 1
    theta, after = results
    assert not theta["ok"] and theta["error"] == "no Lie-Poisson correction closes Theta"
    # d^2 != 0, so cohomology refuses to print dims - ranks as Betti numbers
    assert not after["ok"]
    report = json.loads(after["error"])["g"]
    assert report["status"] == "invalid"
    assert report["violations"] and {v["kind"] for v in report["violations"]} == {"jacobi"}


def test_thom_check_with_varying_structure_functions(tmp_path, capsys):
    # [e1, e2] = x e3: Theta needs no constant structure
    algebroid = {"kind": "explicit", "rank": 3, "anchor": [["0"], ["0"], ["0"]],
                 "structure": {"1,2": {"3": "x"}}}
    results, code = _thom_check_then(
        tmp_path, capsys, algebroid, {"op": "validate"}, coordinates=["x"],
        domain={"type": "box", "bounds": [["0", "1"]]})
    assert code == 0
    theta, after = results
    exact_one = {"error": "0", "exact": True, "value": "1"}
    assert theta["result"] == {"base": exact_one, "mapped": exact_one, "compatible": True,
                               "theta_closed": True, "theta_nondegenerate": True,
                               "roundtrip_identity": True}
    assert after["ok"] and after["result"]["g"]["status"] == "valid"


def test_symplectic_form_refuses_a_jacobi_violation_made_by_the_anchor(tmp_path, capsys):
    # [e1, e2] = x e3 with rho(e3) = d/dx: Jacobi fails through the rho(e3)(x) term
    algebroid = {"kind": "explicit", "rank": 3, "anchor": [["0"], ["0"], ["1"]],
                 "structure": {"1,2": {"3": "x"}}}
    results, code = _thom_check_then(
        tmp_path, capsys, algebroid, {"op": "validate"}, coordinates=["x"],
        domain={"type": "box", "bounds": [["0", "1"]]})
    assert code == 1
    theta, after = results
    assert not theta["ok"] and theta["error"] == "no Lie-Poisson correction closes Theta"
    violations = json.loads(after["error"])["g"]["violations"]
    assert {(v["kind"], v["residual"]) for v in violations} == {
        ("jacobi", "-1"), ("anchor-morphism", "x")}


def _sliding():
    """rho(e1) = d/dx, rho(e2) = x^2/2 d/dx, [e1, e2] = x e1 on the line."""
    chart = Chart(("x",))
    x = chart.coord(0)
    return alg.AlgebroidPresentation(chart, 2, [[1], [x * x / 2]], {(0, 1): [x, 0]}, "sliding")


def test_symplectic_form_with_varying_structure_and_anchor():
    A = _sliding()
    assert A.validate().ok
    pb = alg.pullback(A, A.rank)
    theta = ti.symplectic_form(pb)
    x, u1 = (pb.chart.coord(i) for i in (0, pb.pullback_data.fiber_coords[0]))
    assert theta.value_on((0, 1)) == x * u1
    assert not ti.symplectic_top_power(pb, theta).is_zero()


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
    assert th.wedge(vertical).is_zero()


def test_fiber_restriction_gives_generator(pullback_su2):
    inclusion = oracles.fiber_inclusion(pullback_su2, [])  # a morphism: see test_algebroid
    th = ti.thom_class(pullback_su2)
    assert oracles.pullback_form(inclusion, th.free).is_zero()
    assert oracles.pullback_form(inclusion, th.thom) == AlgForm.constant(inclusion.source, 1)


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
    bad = ti.ThomExtendedForm(pullback_su2, free=vertical_top)
    with pytest.raises(ValueError, match="vertical top"):
        ti.fiber_integrate(bad)


def test_fiber_integrate_free_part_without_vertical_top_is_dropped(pullback_su2):
    horizontal = AlgForm.dual_basis(pullback_su2, (0, 1))
    t = ti.ThomExtendedForm(pullback_su2, free=horizontal)
    assert ti.fiber_integrate(t).is_zero()


def test_fiber_integrate_rejects_fiber_dependent_thom_part(pullback_su2):
    u1 = pullback_su2.chart.coord(pullback_su2.pullback_data.fiber_coords[0])
    part = AlgForm.dual_basis(pullback_su2, (0,)).scale(u1)
    bad = ti.ThomExtendedForm(pullback_su2, thom=part)
    with pytest.raises(ValueError, match="fiber coordinates"):
        ti.fiber_integrate(bad)


def test_zero_section_restriction_substitutes_euler_form(t2, sphere_metric):
    pb = alg.pullback(t2, 2)
    e = ti.euler_class(t2, sphere_metric)
    zs = oracles.zero_section(pb)
    assert oracles.morphism_violations(zs) == []
    th = ti.thom_class(pb)
    restricted = oracles.pullback_form(zs, th.free) + oracles.pullback_form(zs, th.thom).wedge(e)
    assert restricted == e
    # consistent with pulling the lifted representative back along the section
    assert oracles.pullback_form(zs, ti.pi_star(e, pb)) == e


# -- Thom / integration compatibility ---------------------------------------------------


def test_thom_compatibility_su2(su2):
    top = AlgForm.dual_basis(su2, (0, 1, 2))
    check = ti.thom_compatibility(su2, top, ti.Density(su2, 1))
    assert check.theta_closed and check.theta_nondegenerate
    assert check.roundtrip_identity
    assert check.base.value == 1 and check.mapped.value == 1
    assert check.compatible


def test_thom_check_closes_theta_once(su2, t2, monkeypatch):
    calls = []

    def counting_d_g(form):
        calls.append(form)
        return d_g(form)

    monkeypatch.setattr(ti, "d_g", counting_d_g)
    sliding = _sliding()
    x = sliding.chart.coord(0)
    for A, coefficient, domain, value in (
        (su2, 1, None, 1),
        (t2, 1, ti.BoxDomain([(0, 1), (0, 1)]), 1),
        (sliding, 3 * x * x, ti.BoxDomain([(0, 2)]), 8),
    ):
        calls.clear()
        top = AlgForm.dual_basis(A, tuple(range(A.rank))).scale(coefficient)
        check = ti.thom_compatibility(A, top, ti.Density(A, 1), domain)
        assert check.theta_closed and check.compatible and check.base.value == value
        assert len(calls) == 1, A.name


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


def test_euler_class_of_the_round_s4_chart():
    # 4/(1 + |x|^2)^2 is the unit round S^4; its Euler form is 48/(1 + |x|^2)^4,
    # whose integral over R^4 divided by (2 pi)^2 is chi(S^4) = 2
    start = time.monotonic()
    A = alg.tangent(4)
    u = 1 + sum(A.chart.coord(i) ** 2 for i in range(4))
    e = ti.euler_class(A, cw.Metric.conformal(A, 4 / u**2))
    elapsed = time.monotonic() - start
    assert e == AlgForm.dual_basis(A, (0, 1, 2, 3)).scale(48 / u**4)
    assert elapsed < 10.0, f"the S^4 Euler form took {elapsed:.2f}s (budget 10s)"


def _perfbench_workloads():
    """The names of perfbench/workloads.py, for its sample points and its exact evaluator."""
    return runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))


def test_euler_class_of_the_probe_chart():
    # a translated numerator over two distinct denominator factors (the chart
    # perfbench/README.md leaves out); the Euler form is -1/2 Laplace(log phi)
    workloads = _perfbench_workloads()
    start = time.monotonic()
    A = alg.tangent(2, Chart(("x", "y")))
    phi = "7/3*(3 + (x - 1)^2 + (y - 1)^2)/((2 + x^2 + y^2)*(1 + x^2 + y^2)^2)"
    printed = str(ti.euler_class(A, cw.Metric.conformal(A, phi)).coeffs[(0, 1)])
    elapsed = time.monotonic() - start

    def expected(x, y):
        return (-6 / (3 + (x - 1) ** 2 + (y - 1) ** 2) ** 2
                + 4 / (2 + x * x + y * y) ** 2 + 4 / (1 + x * x + y * y) ** 2)

    for x, y in workloads["SAMPLE_POINTS"]:
        assert workloads["eval_scalar"](printed, x, y) == expected(x, y)
    assert elapsed < 10.0, f"the probe chart's Euler form took {elapsed:.2f}s (budget 10s)"


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
    result = ti.index_general(
        "euler", ctx.ref("algebroid", "sphere_chart"), ctx.ref("metric", "round"),
        ctx.ref("density", "lebesgue"), ctx.ref("domain", "plane"),
        tol=1e-8, budget=6000,
    )
    assert result.integral.raw == 12.566370619856325
    assert result.integral.raw_error == 1.0986086516414886e-07
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


def _fresh_quadrature(program, box, tol, plane):
    """The adaptive quadrature written out, each panel's rows built afresh.

    Per panel and axis: the GK15 nodes mid -+ half * x and weights w * half
    (QUADPACK qk15), on the plane x = tan(s) with multiplier 1 + x^2.  The
    worst panel is split first, ties broken by creation order, into four
    halves, x varying fastest; the running sums decide when to stop, and the
    result is summed in creation order."""
    rows, panel = program

    def sums(box):
        axes = []
        for i, (a, b) in enumerate(box):
            half, mid, nodes = 0.5 * (b - a), 0.5 * (a + b), []
            for n, x in enumerate(quadrature._XGK):
                kron = quadrature._WGK[n] * half
                gauss = quadrature._WG[n // 2] * half if n % 2 else None
                for s in ((mid - half * x, mid + half * x) if x else (mid,)):
                    t = math.tan(s) if plane else s
                    nodes.append((t, 1.0 + t * t if plane else 1.0, kron, gauss))
            axes.append(rows[i](nodes))
        kron, gauss = panel(axes)
        return kron, abs(kron - gauss)

    created, payload, heap = itertools.count(), {}, []
    value = error = 0.0
    fresh = [tuple(box)]
    while True:
        for child in fresh:
            index = next(created)
            payload[index] = (child, *sums(child))
            heap.append((-payload[index][2], index))
            value += payload[index][1]
            error += payload[index][2]
        heap.sort()
        if error <= max(tol, tol * abs(value)):
            break
        _, index = heap.pop(0)
        (xspan, yspan), panel_value, panel_error = payload.pop(index)
        value -= panel_value
        error -= panel_error
        halves = [((a, m), (m, b)) for a, b in (xspan, yspan) for m in (0.5 * (a + b),)]
        fresh = [(x, y) for y in halves[1] for x in halves[0]]
    value = error = 0.0
    for index in sorted(payload):
        value += payload[index][1]
        error += payload[index][2]
    return quadrature.QuadResult(value, error, len(payload))


def _same_bits(got, want):
    return (got.value.hex(), got.error.hex(), got.panels) == (
        want.value.hex(), want.error.hex(), want.panels)


def test_plane_quadrature_prepares_spans_without_changing_bits(monkeypatch):
    # rows kept per span give the bits of rows built for every panel afresh
    results = _spy_quadrature(monkeypatch)
    A = alg.tangent(2, Chart(("x", "y")))
    coefficient = A.chart.parse("(4 + x - x*y^2 + 3*x^2*y)/(1 + x^2 + y^2)^4")
    density = ti.Density(A, 1)
    form = AlgForm.dual_basis(A, (0, 1)).scale(coefficient)
    ti.integrate(A, form, density, ti.PlaneDomain(), tol=1e-10)
    [got] = results
    assert got.panels >= 100
    program = (coefficient * density.coefficient).compile_panel()
    box = [(-math.pi / 2, math.pi / 2)] * 2
    assert _same_bits(got, _fresh_quadrature(program, box, 1e-10, plane=True))


@pytest.mark.parametrize("backend", ["poly", "numeric"])
def test_axes_with_equal_spans_keep_their_own_rows(backend, monkeypatch):
    # both axes of the unit square have the same spans but not the same
    # powers, so a row is kept per axis index as well as per span
    results = _spy_quadrature(monkeypatch)
    A = alg.tangent(2, Chart(("x", "y"), backend))
    coefficient = A.chart.parse("x^3*y/(1 + y^2)")
    density = ti.Density(A, 1)
    form = AlgForm.dual_basis(A, (0, 1)).scale(coefficient)
    result = ti.integrate(A, form, density, ti.BoxDomain([(0, 1), (0, 1)]))
    assert abs(result.raw - math.log(2) / 8) <= 1e-12
    [got] = results
    program = (coefficient * density.coefficient).compile_panel()
    assert _same_bits(got, _fresh_quadrature(program, [(0.0, 1.0)] * 2, 1e-9, plane=False))


def test_rows_are_kept_per_axis_and_span_for_one_integral():
    class Row:  # a row that a weak reference can watch
        pass

    kept, keys, calls = [], set(), []

    def f(box, rows):
        calls.append(len(rows))
        keys.update(enumerate(box))
        for key in enumerate(box):
            if key not in rows:
                rows[key] = Row()
                kept.append(weakref.ref(rows[key]))
        x = sum(a + b for a, b in box)
        return x, x + 1e-3 * (box[0][1] - box[0][0])  # halves the error per split

    gc.disable()
    try:
        for _ in range(2):
            result = quadrature.integrate_2d(f, (0, 1), (0, 1), tol=1e-4, budget=100)
            # a fresh dict per integral, one row per axis index and span, and
            # on the square a span that both axes use
            assert result.panels > 4 and calls[0] == 0
            assert len(kept) == len(keys) and {(0, (0.0, 0.5)), (1, (0.0, 0.5))} <= keys
            # dropped when the integral returns, without the cyclic collector
            assert all(ref() is None for ref in kept)
            for seen in (kept, keys, calls):
                seen.clear()
    finally:
        gc.enable()


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


@pytest.mark.parametrize("backend,text,bounds,raw,error,panels", [
    ("poly", "(x^3 - 2*x + 1)/(x^2 + x + 1)", [(-2, "3/2")],
     2.8189014379426434, 9.555273239314488e-13, 7),
    ("numeric", "exp(-x^2)*cos(3*x) + sqrt(1 + x^2)", [(-1, 2)],
     4.368196821187651, 2.441769009209338e-12, 6),
])
def test_line_box_quadrature_is_pinned(monkeypatch, backend, text, bounds, raw, error, panels):
    # 1-D box integrals on both backends, bit for bit
    results = _spy_quadrature(monkeypatch)
    A = alg.tangent(1, Chart(("x",), backend))
    form = AlgForm.dual_basis(A, (0,)).scale(A.chart.parse(text))
    result = ti.integrate(A, form, ti.Density(A, 1), ti.BoxDomain(bounds), tol=1e-12)
    assert not result.exact
    assert (result.raw, result.raw_error) == (raw, error)
    assert [r.panels for r in results] == [panels]


@pytest.mark.parametrize("backend,text,domain,tol,budget,raw,error,panels", [
    ("numeric", "exp(-x^2)", ti.PlaneDomain(), 1e-12, 2000,
     1.7724538509055108, 1.289765388085628e-12, 15),
    ("numeric", "exp(-x^2 - y^2)", ti.PlaneDomain(), 1e-10, 6000,
     3.1415926535897745, 3.126105326693377e-10, 283),
    # (x - y)^2 cancels on the diagonal: some nodes take the exact fallback
    ("poly", "(x^2 - 2*x*y + y^2 + 1)/(1 + x^2 + y^2)^3", ti.PlaneDomain(), 1e-8, 6000,
     3.1415926537653016, 2.6171181269764242e-08, 109),
    # the shifted round chart's Euler form: its denominator has mixed signs
    ("poly", "4/(x^2 + y^2 - 2*y + 2)^2", ti.PlaneDomain(), 1e-8, 6000,
     12.56637061820651, 1.2042788034613542e-07, 127),
])
def test_plane_quadrature_is_pinned(monkeypatch, backend, text, domain, tol, budget,
                                    raw, error, panels):
    # plane integrals through the tan substitution on both backends, bit for bit
    results = _spy_quadrature(monkeypatch)
    names = ("x", "y") if "y" in text else ("x",)
    A = alg.tangent(len(names), Chart(names, backend))
    form = AlgForm.dual_basis(A, tuple(range(len(names)))).scale(A.chart.parse(text))
    result = ti.integrate(A, form, ti.Density(A, 1), domain, tol=tol, budget=budget)
    assert not result.exact
    assert (result.raw, result.raw_error) == (raw, error)
    assert [r.panels for r in results] == [panels]


def _raw_integral(A, scalar, domain, tol, budget=4000):
    form = AlgForm.dual_basis(A, (0, 1)).scale(scalar)
    result = ti.integrate(A, form, ti.Density(A, 1), domain, tol=tol, budget=budget)
    return result.raw, result.raw_error


def test_equal_integrands_integrate_to_the_same_bits():
    # a compiled integrand sums in print order, so only its value decides the bits
    A = alg.tangent(2, Chart(("x", "y")))
    x, y = A.chart.coord(0), A.chart.coord(1)
    box = ti.BoxDomain([(0, 1), (-1, 2)])
    spellings = [A.chart.const(1) / (1 + sum(v * v for v in (x, y))),
                 A.chart.const(1) / (1 + x * x + y * y),
                 A.chart.parse("1/(1 + x^2 + y^2)"),
                 A.chart.parse("1/(y^2 + x^2 + 1)")]
    assert len({_raw_integral(A, s, box, 1e-10) for s in spellings}) == 1
    u = 1 + x * x + y * y
    spellings = [A.chart.parse("4/(1 + x^2 + y^2)^2"),
                 A.chart.parse("4/((1 + x^2 + y^2)*(y^2 + x^2 + 1))"),
                 A.chart.const(4) / u**2,
                 A.chart.parse("4/(x^4 + 2*x^2*y^2 + y^4 + 2*x^2 + 2*y^2 + 1)")]
    outcomes = {_raw_integral(A, s, ti.PlaneDomain(), 1e-8, 6000) for s in spellings}
    assert len(outcomes) == 1
    (raw, _), = outcomes
    assert abs(raw - 4 * math.pi) <= 1e-6


def test_sphere_job_index_and_thom_base_integrate_alike(monkeypatch):
    # the index integrates the computed Euler form, thom-check the written one:
    # one function, so the density keeps one quadrature and both read it
    results = _spy_quadrature(monkeypatch)
    job = resources.files("algindex").joinpath("jobs/sphere-stereographic.yaml")
    document = cli.load_document(str(job))
    contexts = [cli.JobContext(document) for _ in range(2)]
    outputs = [cli.run_document(ctx) for ctx in contexts]
    # each context of the document runs its own quadrature: none is shared across documents
    assert [result.error for result in results] == [1.0986086516414886e-07] * 2
    assert results[0] == results[1] and outputs[0] == outputs[1]
    for ctx in contexts:
        (_, raw, raw_error), = ctx.ref("density", "lebesgue").quadratures
        assert (raw, raw_error) == (results[0].value, results[0].error)


def test_a_density_shares_a_quadrature_by_exact_equality_only(monkeypatch):
    # x^300 is below the sampled zero test's tolerance on [-0.9, 0.9]^2, so
    # x == x + x^300 there; their keys compare the trees, and each integrates
    A = alg.tangent(2, Chart(("x", "y"), "numeric"))
    density, box = ti.Density(A, 1), ti.BoxDomain([(0, 2), (0, 1)])
    results = _spy_quadrature(monkeypatch)
    raws = [ti.integrate(A, AlgForm.dual_basis(A, (0, 1)).scale(A.chart.parse(text)),
                         density, box).raw for text in ("x", "x + x^300")]
    assert A.chart.parse("x") == A.chart.parse("x + x^300")
    assert raws == [1.9999999999999887, 1.353512276634191e+88]
    assert len(results) == 2

    # poly: two spellings of one function share a quadrature; another
    # tolerance, budget or box does not
    A = alg.tangent(2, Chart(("x", "y")))
    density, box = ti.Density(A, 1), ti.BoxDomain([(0, 1), (-1, 2)])
    results.clear()

    def integral(text, tol=1e-10, budget=4000, domain=box, degree=0):
        form = AlgForm.dual_basis(A, (0, 1)).scale(A.chart.parse(text))
        return ti.integrate(A, form, density, domain, degree, tol=tol, budget=budget)

    first = integral("1/(1 + x^2 + y^2)")
    # a shared quadrature is normalized as its caller asks
    again = integral("2/(2*y^2 + 2*x^2 + 2)", degree=1)
    assert len(results) == 1 and len(density.quadratures) == 1
    assert (again.raw, again.raw_error) == (first.raw, first.raw_error)
    assert again.value == first.value / (2 * math.pi)
    integral("1/(1 + x^2 + y^2)", tol=1e-9)
    integral("1/(1 + x^2 + y^2)", budget=3000)
    integral("1/(1 + x^2 + y^2)", domain=ti.BoxDomain([(0, 1), (-1, 1)]))
    assert len(results) == len(density.quadratures) == 4
    # a failed quadrature is not kept: it runs, and fails, again; this
    # integrand diverges over the plane
    failures = []
    for _ in range(2):
        with pytest.raises(quadrature.QuadratureError) as info:
            integral("1/(1 + x^2 + y^2)", budget=50, domain=ti.PlaneDomain())
        failures.append(str(info.value))
    assert failures[0] == failures[1] and len(density.quadratures) == 4


def test_exhausted_budget_carries_value_and_estimate():
    def f(box, rows):
        # a panel integrand: its Kronrod and Gauss sums over the product of
        # the axes' rules; it keeps nothing in rows
        kron = gauss = 0.0
        for (x, kx, gx), (y, ky, gy) in itertools.product(*(quadrature.rule(*s) for s in box)):
            value = 1 / (1 + x * x + y * y)
            kron += kx * ky * value
            if gx is not None and gy is not None:
                gauss += gx * gy * value
        return kron, gauss

    one_panel = quadrature.integrate_2d(f, (0, 1), (-1, 2), tol=1.0, budget=1)
    assert one_panel.panels == 1
    with pytest.raises(quadrature.QuadratureError, match="quadrature budget 1 exhausted") as info:
        quadrature.integrate_2d(f, (0, 1), (-1, 2), tol=1e-12, budget=1)
    assert (info.value.value, info.value.estimate) == (one_panel.value, one_panel.error)


@pytest.mark.parametrize("domain", [ti.BoxDomain([(0, 1)] * 3), ti.PlaneDomain()])
def test_three_dimensional_quadrature_is_refused(domain, monkeypatch):
    A = alg.tangent(3)

    def compiled(scalar):
        raise AssertionError("a refused integral compiles its integrand")

    monkeypatch.setattr(RationalScalar, "compile_panel", compiled)
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
    result = ti.index_general(
        "euler", t2, cw.Metric.identity(t2), ti.Density(t2, 1), ti.BoxDomain([(0, 1), (0, 1)])
    )
    assert result.value == 0 and result.exact


def test_index_euler_sphere_matches_triangulation_oracle(t2, sphere_metric):
    chi = oracles.euler_characteristic(oracles.octahedron_faces())
    assert chi == 2
    result = ti.index_general(
        "euler", t2, sphere_metric, ti.Density(t2, 1), ti.PlaneDomain(),
        tol=1e-8, budget=6000,
    )
    assert abs(result.value - chi) <= 1e-6
    assert not result.exact and result.error <= 1e-6


def test_index_euler_rejects_non_invariant_density(aff1):
    with pytest.raises(ti.NonInvariantDensityError):
        ti.index_general("euler", aff1, cw.Metric.identity(aff1), ti.Density(aff1, 1))


def test_index_dirac_rank_scaling(t2):
    # flat coefficient bundles: the index scales linearly in the rank
    metric = cw.Metric.identity(t2)
    density = ti.Density(t2, 1)
    domain = ti.BoxDomain([(0, 1), (0, 1)])
    nu = AlgForm.dual_basis(t2, (0, 1))
    values = []
    for rank in (1, 2, 3):
        E = cw.GConnection.zero(t2, rank)
        result = ti.index_general("dirac", t2, metric, density, domain, nu=nu, E=E)
        values.append(result.value)
        assert result.i_power == 1  # nu has degree 2
    assert values[1] == 2 * values[0]
    assert values[2] == 3 * values[0]
    assert abs(values[0] - 1 / (2 * math.pi)) <= 1e-12


def test_index_signature_degree_mismatch_is_exact_zero(t2):
    result = ti.index_general(
        "signature", t2, cw.Metric.identity(t2), ti.Density(t2, 1),
        ti.BoxDomain([(0, 1), (0, 1)]),
    )
    assert result.value == 0 and result.exact
    assert "degree mismatch" in result.note


def test_index_signature_with_supplied_class(t2):
    nu = AlgForm.dual_basis(t2, (0, 1))
    result = ti.index_general(
        "signature", t2, cw.Metric.identity(t2), ti.Density(t2, 1),
        ti.BoxDomain([(0, 1), (0, 1)]), nu=nu,
    )
    # flat L-genus = 1: the integral is the nu volume, normalized
    assert abs(result.value - 1 / (2 * math.pi)) <= 1e-12
    assert result.i_power == 1


def test_index_signature_requires_closed_nu(t2):
    x = t2.chart.coord(0)
    not_closed = AlgForm.dual_basis(t2, (1,)).scale(x)
    with pytest.raises(ValueError):
        ti.index_general(
            "signature", t2, cw.Metric.identity(t2), ti.Density(t2, 1), nu=not_closed
        )


def test_index_general_dispatch_and_refusal(t2, sphere_metric):
    result = ti.index_general(
        "euler", t2, sphere_metric, ti.Density(t2, 1), ti.PlaneDomain(),
        tol=1e-6, budget=6000,
    )
    assert abs(result.value - 2) <= 1e-4
    with pytest.raises(ti.UnresolvedEulerDivisionError, match="euler, signature, dirac"):
        ti.index_general("dolbeault", t2, sphere_metric, ti.Density(t2, 1))


def test_index_general_checks_its_inputs_before_computing(t2, monkeypatch):
    def never(*args):
        raise AssertionError("levi_civita ran")

    monkeypatch.setattr(ti, "levi_civita", never)
    metric, density = cw.Metric.identity(t2), ti.Density(t2, 1)
    with pytest.raises(ValueError, match="coefficient-bundle data"):
        ti.index_general("dirac", t2, metric, density)
    not_closed = AlgForm.dual_basis(t2, (1,)).scale(t2.chart.coord(0))
    with pytest.raises(ValueError, match="closed"):
        ti.index_general("signature", t2, metric, density, nu=not_closed)


def test_sqrt_det_failure_is_reported(aff1):
    metric = cw.Metric(aff1, [[2, 0], [0, 1]])  # det 2: no exact square root
    with pytest.raises(ValueError, match="square root"):
        ti.euler_class(aff1, metric)
