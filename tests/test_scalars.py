import math
import random
from fractions import Fraction

import pytest

from algindex.scalars import (
    AlgindexError,
    Chart,
    DomainError,
    PolyScalar,
    RationalScalar,
    from_poly,
    poly_gcd,
)

import oracles

XY = ("x", "y")


def P(text):
    return Chart(XY).parse(text)


def random_poly(rng, variables=XY, max_terms=5, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[expo] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return PolyScalar(variables, terms)


# -- spec examples -----------------------------------------------------------


def test_derive_power_rule():
    assert P("x^2*y").derive(0) == P("2*x*y")


def test_derive_constant():
    assert P("7").derive(1) == P("0")


def test_derive_linearity():
    assert P("x^3 + x*y").derive(0) == P("3*x^2 + y")


def test_derive_index_out_of_range():
    with pytest.raises(IndexError):
        P("x").derive(2)


def test_eval_exact():
    assert P("x^2 + y").eval((2, 1)) == 5


def test_eval_rational_function():
    chart = Chart(XY, "numeric")
    expr = chart.parse("1/(1 + x^2 + y^2)")
    assert expr.eval((0.0, 0.0)) == 1.0


def test_eval_pole_is_domain_error():
    chart = Chart(XY, "numeric")
    expr = chart.parse("x/y")
    with pytest.raises(DomainError):
        expr.eval((1.0, 0.0))
    exact = P("x") / P("y")
    with pytest.raises(DomainError):
        exact.eval((1, 0))


# -- ring axioms and calculus properties ------------------------------------


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_leibniz_rule_random():
    rng = random.Random(202)
    for _ in range(60):
        a, b = random_poly(rng), random_poly(rng)
        for i in range(2):
            assert (a * b).derive(i) == a.derive(i) * b + a * b.derive(i)


def test_poly_vs_numeric_eval_agreement():
    rng = random.Random(303)
    for _ in range(100):
        p = random_poly(rng)
        expr = from_poly(p)
        point = tuple(rng.uniform(-2, 2) for _ in XY)
        exact = float(p.eval(point))
        approx = expr.eval(point)
        assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))


def test_numeric_derivative_vs_central_differences():
    chart = Chart(XY, "numeric")
    rng = random.Random(404)
    expressions = [
        "exp(x*y) + sin(x)",
        "sqrt(1 + x^2 + y^2)",
        "cos(x) * sin(y) + x^3",
        "1/(2 + sin(x) + cos(y))",
        "exp(sin(x)) * cos(y^2)",
    ]
    for text in expressions:
        expr = chart.parse(text)
        for i in range(2):
            sym = expr.derive(i)
            for _ in range(5):
                point = [rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)]
                numeric = oracles.central_difference(
                    lambda q: expr.eval(q), point, i
                )
                symbolic = sym.eval(point)
                scale = max(1.0, abs(symbolic))
                assert abs(numeric - symbolic) <= 1e-6 * scale


# -- canonical form and serialization ----------------------------------------


def test_no_zero_terms_stored():
    p = P("x") - P("x")
    assert p.terms == {}
    assert p.is_zero()


def test_graded_lex_string():
    assert str(P("1 + x^2*y + y")) == "x^2*y + y + 1"
    assert str(P("3/2*x^2*y - 1")) == "3/2*x^2*y - 1"


def test_parse_round_trip():
    rng = random.Random(505)
    for _ in range(40):
        p = random_poly(rng)
        assert P(str(p)) == p


def test_parse_errors_are_positioned():
    with pytest.raises(ValueError, match="position"):
        P("x + + )")
    with pytest.raises(ValueError, match="numeric backend"):
        P("sin(x)")


# -- rational scalars ---------------------------------------------------------


def test_exact_division_demotes_to_polynomial():
    q = P("x^2 - y^2") / P("x - y")
    assert isinstance(q, PolyScalar)
    assert q == P("x + y")


def test_rational_cancellation():
    u = P("1 + x^2 + y^2")
    r = (P("4") * u) / (u * u * u)
    assert isinstance(r, RationalScalar)
    assert r.den == u * u
    assert r == P("4") / (u * u)


def test_rational_quotient_rule():
    u = P("1 + x^2 + y^2")
    r = P("4") / (u * u)
    expected = P("-16*x") / (u * u * u)
    assert r.derive(0) == expected


def test_rational_eval_matches_float_path():
    u = P("1 + x^2 + y^2")
    r = P("4") / (u * u)
    for point in [(0.25, -1.5), (3.0, 2.0), (1e7, -2e7)]:
        exact = float(r.eval(point))
        fast = r.eval_float(point)
        assert abs(exact - fast) <= 1e-12 * max(1.0, abs(exact))


# -- the compiled float evaluator ----------------------------------------------


def _exact_float(value):
    try:
        return float(value)
    except OverflowError:
        raise DomainError("beyond float range") from None


def _uncompiled_eval_float(p, point):
    """The float path written out directly: each coefficient converted at
    every call, every exponent visited, the same fallbacks; an exact value
    beyond float range is a DomainError."""
    if isinstance(p, RationalScalar):
        try:
            n, d = _uncompiled_eval_float(p.num, point), _uncompiled_eval_float(p.den, point)
            if d != 0.0 and math.isfinite(n) and math.isfinite(d) and math.isfinite(n / d):
                return n / d
        except ArithmeticError:
            pass
        return _exact_float(p.eval(point))
    try:
        total = largest = 0.0
        values = [float(v) for v in point]
        for expo, coeff in p.terms.items():
            term = float(coeff)
            for v, e in zip(values, expo):
                if e:
                    term *= v**e
            total += term
            largest = max(largest, abs(term))
        if math.isfinite(total) and (largest == 0.0 or abs(total) >= 1e-8 * largest):
            return total
    except OverflowError:
        pass
    return _exact_float(p.eval(point))


def _outcome(evaluate, point):
    """The float one evaluation returns, or the type of error it raises."""
    try:
        return evaluate(point)
    except (DomainError, OverflowError) as exc:
        return type(exc)


def assert_same_bits(scalar, point):
    compiled = _outcome(scalar.compile_float(), point)
    for other in (_outcome(scalar.eval_float, point),
                  _outcome(lambda q: _uncompiled_eval_float(scalar, q), point)):
        if isinstance(compiled, float):
            assert isinstance(other, float)
            assert compiled == other and math.copysign(1, compiled) == math.copysign(1, other)
        else:
            assert compiled is other
    return compiled


def test_compiled_float_matches_eval_float_random():
    rng = random.Random(606)
    for _ in range(150):
        p = random_poly(rng)
        den = random_poly(rng)
        scalars = [p] if den.is_zero() else [p, p / den]
        for scalar in scalars:
            for point in [
                (rng.uniform(-3, 3), rng.uniform(-3, 3)),
                (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-2, 2)),
                (0.0, -0.0),
            ]:
                assert_same_bits(scalar, point)


def test_compiled_float_overflow_falls_back_to_exact():
    big = 10**100
    # terms overflow to inf - inf; the exact value 10^200 (2 * 10^100 + 1) is finite
    p = PolyScalar(XY, {(2, 0): 10**200, (0, 2): -(10**200)})
    point = (Fraction(big + 1), Fraction(big))
    assert assert_same_bits(p, point) == float(p.eval(point))
    # coefficients beyond float range are never converted
    huge = PolyScalar(XY, {(1, 0): 10**400, (0, 1): -(10**400)})
    assert assert_same_bits(huge, (1, 1)) == 0.0
    assert assert_same_bits(huge, (2, 1)) is DomainError
    # an unreduced quotient whose parts overflow but whose ratio does not
    r = P("x^2") / P("x^2 + 1")
    assert assert_same_bits(r, (1e200, 0.5)) == 1.0


def test_compiled_float_cancellation_falls_back_to_exact():
    p = P("(x - 1)^8")  # expanded: nine terms of size up to 70 cancel near x = 1
    assert len(p.terms) == 9
    point = (1 + 2.0**-10, 0.25)
    assert assert_same_bits(p, point) == 2.0**-80
    assert assert_same_bits(p / P("1 + y^2"), point) == float((p / P("1 + y^2")).eval(point))


def test_compiled_float_pole_is_domain_error():
    r = P("1") / P("x - 1")
    assert assert_same_bits(r, (1.0, 0.5)) is DomainError
    assert assert_same_bits(r, (3.0, 0.5)) == 0.5


def test_compiled_float_checks_point_length():
    huge = PolyScalar(XY, {(1, 0): 10**400})  # evaluated exactly, never compiled
    for scalar in [P("x^2 + 3*y"), P("5"), P("x") / P("1 + y^2"), huge]:
        for point in [(), (1.0,), (1.0, 2.0, 3.0)]:
            for evaluate in (scalar.compile_float(), scalar.eval_float, scalar.eval):
                with pytest.raises(AlgindexError, match="point dimension"):
                    evaluate(point)
        assert_same_bits(scalar, (0.5, -2.0))


def test_numeric_compile_float_is_its_evaluator():
    expr = Chart(XY, "numeric").parse("exp(x) / (1 + y^2)")
    assert expr.compile_float() == expr.eval
    assert expr.compile_float()((0.0, 1.0)) == 0.5


def test_poly_gcd():
    a = P("x^2 - y^2") * P("1 + x")
    b = P("x + y") * P("1 + x") * P("1 + x")
    g = poly_gcd(a, b)
    assert g == P("x + y") * P("1 + x") or g == P("(x + y)*(1 + x)")


def test_substitute_composition():
    p = P("x^2 + y")
    composed = p.substitute([P("x + y"), P("x*y")])
    assert composed == P("(x + y)^2 + x*y")


def test_immutability_of_operations():
    p = P("x + 1")
    q = p + P("y")
    assert p == P("x + 1")
    assert q == P("x + y + 1")
