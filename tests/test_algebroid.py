import random
from fractions import Fraction

import pytest

from algindex import algebroid as alg
from algindex.scalars import Chart

import oracles


# -- validation ----------------------------------------------------------------


def test_tangent_algebroid_is_valid(t2):
    assert t2.validate().ok


def test_su2_is_valid(su2):
    assert su2.validate().ok


def test_su2_betti_matches_raw_oracle(su2):
    # independent confirmation that these structure constants are the ones
    # whose cohomology the raw-matrix oracle computes as (1,0,0,1)
    structure = {
        (a, b): {c: int(v.constant_value()) for c, v in enumerate(coeffs) if not v.is_zero()}
        for (a, b), coeffs in su2.structure.items()
    }
    assert oracles.ce_betti_numbers(structure, 3) == [1, 0, 0, 1]


def test_cyclic_rescaling_still_satisfies_jacobi():
    # scaling one cyclic constant of the epsilon structure keeps Jacobi:
    # every double bracket [[e_a,e_b],e_c] is proportional to [e_c,e_c] = 0
    # (this is the Bianchi-IX family; direct Jacobiator expansion confirms)
    chart = Chart((), "poly")
    scaled = alg.AlgebroidPresentation(
        chart,
        3,
        [[], [], []],
        {(0, 1): [0, 0, 2], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]},
        "su2-rescaled",
    )
    assert scaled.validate().ok


def test_genuine_jacobi_violation_is_reported():
    chart = Chart((), "poly")
    broken = alg.AlgebroidPresentation(
        chart,
        3,
        [[], [], []],
        # [e2, e3] = e1 + e3 breaks the cyclic structure
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 1], (0, 2): [0, -1, 0]},
        "su2-broken",
    )
    report = broken.validate()
    assert not report.ok
    assert any(
        v.kind == "jacobi" and v.indices == (1, 2, 3) for v in report.violations
    )


def test_anchor_morphism_violation_is_reported():
    chart = Chart(("x",), "poly")
    x = chart.coord(0)
    # [e1, e2] = 0 but the anchors do not commute
    bad = alg.AlgebroidPresentation(
        chart, 2, [[1], [x]], {}, "bad-anchor"
    )
    report = bad.validate()
    assert not report.ok
    assert any(v.kind == "anchor-morphism" for v in report.violations)


def test_antisymmetry_is_structural(su2):
    assert su2.bracket(1, 0) == [-c for c in su2.bracket(0, 1)]
    with pytest.raises(alg.PresentationError):
        alg.AlgebroidPresentation(
            Chart((), "poly"), 2, [[], []], {(0, 0): [1, 0]}, "diag"
        )


def _random_poly(rng, chart):
    """A small polynomial in x, y: up to three terms of degree <= 2, or zero."""
    x, y = chart.coord(0), chart.coord(1)
    out = chart.zero()
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        out = out + rng.randint(-2, 2) * x ** rng.randint(0, 2) * y ** rng.randint(0, 1)
    return out


def _random_presentation(rng, chart, name):
    rank = rng.randint(2, 4)
    anchor = [[_random_poly(rng, chart) for _ in range(2)] for _ in range(rank)]
    structure = {(a, b): [_random_poly(rng, chart) for _ in range(rank)]
                 for a in range(rank) for b in range(a + 1, rank) if rng.random() < 0.7}
    return alg.AlgebroidPresentation(chart, rank, anchor, structure, name)


def _violations(report):
    return [(v.kind, v.indices, str(v.residual)) for v in report.violations]


def _expected(found):
    return [(kind, indices, str(residual)) for kind, indices, residual in found]


def test_validate_matches_the_index_loop_oracle():
    # mostly invalid presentations: every residual, its indices and its place
    # in the report agree with the expansion over frame indices
    rng = random.Random(2905)
    chart = Chart(("x", "y"))
    seen = 0
    for n in range(40):
        A = _random_presentation(rng, chart, f"random{n}")
        expected = _expected(oracles.algebroid_violations(A))
        assert _violations(A.validate()) == expected, A.structure
        seen += len(expected)
    assert seen > 100


# -- constructions ---------------------------------------------------------------


def test_tangent_construction_shape(t2):
    assert t2.rank == 2 and t2.base_dim == 2
    assert t2.anchor[0][0] == 1 and t2.anchor[0][1] == 0
    assert not t2.structure


def test_lie_algebra_over_a_point(aff1):
    assert aff1.base_dim == 0 and aff1.rank == 2
    assert aff1.bracket(0, 1)[1] == 1


def test_action_algebroid_so2():
    chart = Chart(("x", "y"))
    x, y = chart.coord(0), chart.coord(1)
    A = alg.action_algebroid({}, [[-y, x]], chart, "so2")
    assert A.validate().ok
    assert A.rank == 1 and A.base_dim == 2


def test_action_algebroid_so3(so3_action):
    assert so3_action.validate().ok
    assert so3_action.rank == 3 and so3_action.base_dim == 3


def test_abelian_bundle():
    A = alg.abelian_bundle(2, 3)
    assert A.validate().ok
    assert A.rank == 3 and not A.structure


def test_invalid_structure_constants_propagate():
    with pytest.raises(alg.PresentationError):
        alg.lie_algebra({(0, 1): [0, 1, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]}, 3)


# -- products ---------------------------------------------------------------------


def test_product_tangent_tangent_is_tangent2():
    prod = alg.product(alg.tangent(1), alg.tangent(1))
    assert prod.validate().ok
    assert prod.rank == 2 and prod.base_dim == 2
    assert not prod.structure
    for a in range(2):
        for i in range(2):
            expected = 1 if a == i else 0
            assert prod.anchor[a][i] == expected


def test_product_su2_tangent(su2):
    prod = alg.product(su2, alg.tangent(1))
    assert prod.validate().ok
    assert prod.rank == 4 and prod.base_dim == 1


def test_product_abelian_abelian():
    prod = alg.product(alg.abelian_bundle(1, 1), alg.abelian_bundle(1, 2))
    assert prod.validate().ok
    assert not prod.structure


def test_product_mixed_brackets_vanish(su2, aff1):
    prod = alg.product(su2, aff1)
    for a in range(su2.rank):
        for b in range(su2.rank, prod.rank):
            assert all(c.is_zero() for c in prod.bracket(a, b))


def test_product_symmetry_up_to_relabeling(su2, aff1):
    left = alg.product(su2, aff1)
    right = alg.product(aff1, su2)
    r1 = su2.rank
    for a in range(su2.rank):
        for b in range(su2.rank):
            mirrored = right.bracket(a + aff1.rank, b + aff1.rank)
            for c in range(su2.rank):
                assert left.bracket(a, b)[c] == mirrored[c + aff1.rank]


@pytest.mark.parametrize("backend,text", [
    ("poly", "3/2*x^2*y - y + 1"),
    ("poly", "7"),
    ("poly", "0"),
    ("poly", "(x^2 - y)/(1 + x^2*y^2)"),  # a RationalScalar
    ("poly", "1/(x - y)^2 + x"),
    ("numeric", "sin(x)*cos(y) + sqrt(1 + x^2) - 2.5*x^3"),
    ("numeric", "exp(x*y/4) + 1/(2 + sin(x))"),
    ("numeric", "x^-2 - 0.5"),
    ("numeric", "0.25"),
])
def test_extend_vars_agrees_with_the_substitution_lift(backend, text):
    # a product lifts each factor by extend_vars at the offset of its
    # coordinates, which moves exponents or coordinate indices without
    # arithmetic; it must agree with substituting the product's coordinates
    scalar = Chart(("x", "y"), backend).parse(text)
    point = [Fraction(1, 3), Fraction(-2, 5), Fraction(7), Fraction(-1)]
    for offset, names in [(0, ("x", "y", "u1", "u2")), (1, ("u1", "x_2", "y_2", "u2")),
                          (2, ("u1", "u2", "x", "y"))]:
        wide = Chart(names, backend)
        extended = scalar.extend_vars(wide.names, offset)
        substituted = scalar.substitute([wide.coord(offset), wide.coord(offset + 1)])
        assert type(extended) is type(substituted)
        assert extended.vars == substituted.vars == wide.names
        assert extended == substituted
        assert str(extended) == str(substituted)
        if backend == "numeric":
            assert extended.node == substituted.node
        assert extended.eval(point) == substituted.eval(point)


def test_product_over_a_point_keeps_numeric_structure_functions():
    # no coordinates to move: a factor over a point is lifted by extend_vars,
    # so a structure function need not be a literal constant
    point = Chart((), "numeric")
    e = point.parse("exp(1)")
    g = alg.AlgebroidPresentation(point, 2, [[], []], {(0, 1): [0, e]}, "g")
    prod = alg.product(g, g)
    assert prod.validate().ok
    assert prod.bracket(0, 1)[1].node == prod.bracket(2, 3)[3].node == e.node


@pytest.mark.parametrize("backend", ["poly", "numeric"])
def test_a_product_lifts_its_factors_without_substitution(backend, monkeypatch):
    # the right factor's names clash and its coordinates move up: its scalars
    # are shifted, never composed with the product's coordinates
    chart = Chart(("x", "y"), backend)
    swing = alg.AlgebroidPresentation(chart, 2, [[1, 0], [chart.parse("1/(1 + x^2)"), 0]],
                                      {(0, 1): [0, chart.parse("-2*x/(1 + x^2)")]}, "swing")
    assert swing.validate().ok
    for scalar in (Chart(("x",)).coord(0), Chart(("x",)).parse("1/(1 + x^2)"),
                   Chart(("x",), "numeric").coord(0)):
        monkeypatch.setattr(type(scalar), "substitute", None)
    prod = alg.product(alg.tangent(1, Chart(("x",), backend)), swing)
    assert prod.chart.names == ("x_1", "x_2", "y_2") and prod.validate().ok
    assert str(prod.anchor[2][1]) == str(chart.parse("1/(1 + x^2)")).replace("x", "x_2")
    assert prod.bracket(1, 2) == [0, 0, prod.chart.parse("-2*x_2/(1 + x_2^2)")]


def test_a_shifted_numeric_tree_keeps_its_shared_subtrees():
    expr = Chart(("x", "y"), "numeric").parse("exp(x*y/4) + 1/(2 + sin(x))").derive(0).derive(1)

    def distinct(node, seen):
        if id(node) not in seen and isinstance(node, tuple):
            seen[id(node)] = node
            for child in node[1:]:
                distinct(child, seen)
        return len(seen)

    shifted = expr.extend_vars(("u", "x", "y"), 1)
    assert shifted.node != expr.node
    assert distinct(shifted.node, {}) == distinct(expr.node, {})
    assert shifted.eval((5.0, 0.25, -1.5)) == expr.eval((0.25, -1.5))


# -- pull-backs -------------------------------------------------------------------


def test_pullback_tangent_is_bigger_tangent():
    pb = alg.pullback(alg.tangent(1), 1)
    assert pb.validate().ok
    assert pb.rank == 2 and pb.base_dim == 2
    assert not pb.structure


def test_pullback_su2_dual(pullback_su2, su2):
    assert pullback_su2.validate().ok
    assert pullback_su2.rank == 2 * su2.rank
    assert pullback_su2.base_dim == su2.rank
    data = pullback_su2.pullback_data
    assert data.parent is su2 and data.fiber_dim == su2.rank


def test_pullback_abelian():
    pb = alg.pullback(alg.abelian_bundle(1, 1), 1)
    assert pb.validate().ok
    assert pb.rank == 2 and not pb.structure


def test_pullback_fiber_names_skip_the_chart_names():
    plane = alg.tangent(2, Chart(("u1", "v")))
    assert alg.pullback(plane, 2).chart.names == ("u1", "v", "u2", "u3")
    assert alg.pullback(alg.tangent(2), 2).chart.names == ("x1", "x2", "u1", "u2")


def test_pullback_structure_is_horizontal(pullback_su2, su2):
    data = pullback_su2.pullback_data
    horizontal = range(data.parent.rank)  # the parent's frame comes first
    for (a, b) in pullback_su2.structure:
        assert a in horizontal and b in horizontal
    for a in horizontal:
        for j in data.vertical:
            assert all(c.is_zero() for c in pullback_su2.bracket(a, j))


# -- maps into and out of the constructions, checked by the index-loop oracle ------


def test_anchor_morphism_validates_for_valid_presentations(t2, so3_action):
    for A in (t2, so3_action):
        tangent = alg.tangent(A.base_dim, A.chart)
        assert oracles.morphism_violations(oracles.anchor_map(A, tangent)) == []


def test_zero_bundle_map_with_moving_base_fails():
    t1 = alg.tangent(1)
    x = t1.chart.coord(0)
    bad = oracles.Morphism(t1, t1, [x * x], [[0]], "zero-map")
    assert any(kind == "anchor-compatibility" for kind, _, _ in oracles.morphism_violations(bad))


def test_zero_section_inclusion_is_morphism(pullback_su2):
    assert oracles.morphism_violations(oracles.zero_section(pullback_su2)) == []


def test_fiber_inclusion_is_morphism(pullback_su2):
    assert oracles.morphism_violations(oracles.fiber_inclusion(pullback_su2, [])) == []


def test_fiber_inclusion_at_point_of_chart_base():
    pb = alg.pullback(alg.tangent(2), 2)
    inclusion = oracles.fiber_inclusion(pb, [Fraction(1, 3), Fraction(-2)])
    assert oracles.morphism_violations(inclusion) == []


def test_constructions_validate_closure(su2, aff1, so3_action):
    # every constructed or combined presentation passes validate
    presentations = [
        alg.tangent(3),
        alg.abelian_bundle(2, 2),
        su2,
        aff1,
        so3_action,
        alg.product(su2, alg.tangent(1)),
        alg.product(aff1, aff1),
        alg.pullback(aff1, 2),
        alg.pullback(so3_action, 3),
    ]
    for A in presentations:
        assert A.validate().ok, A.name
