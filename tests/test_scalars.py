import gc
import itertools
import math
import operator
import random
import re
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algindex import scalars
from algindex.scalars import (
    AlgindexError,
    Chart,
    DomainError,
    PolyScalar,
    RationalScalar,
    poly_gcd,
    poly_quotient,
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
        expr = oracles.from_poly(p)
        point = tuple(rng.uniform(-2, 2) for _ in XY)
        exact = float(p.eval(point))
        approx = expr.eval(point)
        assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))


def test_arithmetic_refuses_mixed_backends():
    # a document has one backend, so no operation converts between them
    expr, poly = Chart(XY, "numeric").coord(0), P("x + 1")
    for combine in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((expr, poly), (poly, expr)):
            with pytest.raises(TypeError):
                combine(a, b)


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
    assert p.fraction_terms() == {}
    assert p.is_zero()


def test_arithmetic_builds_clean_terms():
    # +, -, * and derive skip the constructor's checks: their terms must be
    # clean, and equal sympy's expansion where sympy is installed
    try:
        import sympy
    except ImportError:
        sympy = None
    rng = random.Random(909)
    x, y = P("x"), P("y")
    pairs = [(x + y, x - y), (x * x - y, x * x + y)]  # cross terms cancel
    for _ in range(80):
        a, b = random_poly(rng), random_poly(rng)
        pairs.append((a, rng.choice([b, b - a, -a, a * b])))
    for a, b in pairs:
        results = [(a + b, "+"), (a - b, "-"), (a * b, "*"), (-a, "neg"), (2 - a, "2-"),
                   (a * 3, "*3"), (a.derive(0), "d0"), (b.derive(1), "d1")]
        for value, _ in results:
            assert value.vars == XY
            for expo, coeff in value.fraction_terms().items():
                assert type(coeff) is Fraction and coeff != 0
                assert len(expo) == 2 and all(type(e) is int for e in expo)
        if sympy is None:
            continue
        sx, sy = sympy.symbols(XY)

        def expanded(p):
            return sum((sympy.Rational(c.numerator, c.denominator) * sx**i * sy**j
                        for (i, j), c in p.fraction_terms().items()), sympy.Integer(0))

        sa, sb = expanded(a), expanded(b)
        want = {"+": sa + sb, "-": sa - sb, "*": sa * sb, "neg": -sa, "2-": 2 - sa,
                "*3": 3 * sa, "d0": sympy.diff(sa, sx), "d1": sympy.diff(sb, sy)}
        for value, op in results:
            assert sympy.expand(expanded(value) - want[op]) == 0, (a, b, op)
    # the constructor still refuses what arithmetic never builds
    with pytest.raises(AlgindexError, match="does not match variables"):
        PolyScalar(XY, {(1,): 1})
    with pytest.raises(AlgindexError, match="does not match variables"):
        PolyScalar(XY, {(1, 0, 2): 1})


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


@pytest.mark.parametrize("backend,text,message", [
    ("poly", "x/(y*(x + 1)", "position 12: expected ')'"),  # a divisor
    ("poly", "(x + y", "position 6: expected ')'"),  # a parenthesized sum
    ("numeric", "sin(x + y", "position 9: expected ')'"),  # a function argument
    ("poly", "x^y", "position 3: expected integer exponent after '^'"),
    ("poly", "x^", "position 2: expected integer exponent after '^'"),
    ("numeric", "x^-", "position 3: expected integer exponent after '^'"),
    ("poly", "1.5*x", "position 3: float literals need the numeric backend"),
    ("numeric", "exp x", "position 5: expected '(' after exp"),
    ("poly", "cos(x)", "position 3: cos() needs the numeric backend"),
    ("poly", "x y", "position 2: trailing input 'y'"),
    ("numeric", "(x + 1))", "position 7: trailing input ')'"),
    ("poly", "x + ", "position 4: unexpected end of input"),
    ("numeric", "x + z", "position 5: unknown name 'z'"),
])
def test_parse_error_messages(backend, text, message):
    with pytest.raises(AlgindexError) as info:
        Chart(XY, backend).parse(text)
    assert str(info.value) == f"scalar syntax error at {message}"


@pytest.mark.parametrize("backend", ["poly", "numeric"])
@pytest.mark.parametrize("text,message", [
    ("1.2.3*x", "position 5: malformed number '1.2.3'"),
    ("x + 1.2.3", "position 9: malformed number '1.2.3'"),
    (".", "position 1: malformed number '.'"),
    ("x + ²", "position 5: malformed number '²'"),  # str.isdigit accepts '²'
    ("x^²", "position 3: expected integer exponent after '^'"),
])
def test_malformed_numbers_are_positioned_syntax_errors(backend, text, message):
    with pytest.raises(AlgindexError) as info:
        Chart(XY, backend).parse(text)
    assert str(info.value) == f"scalar syntax error at {message}"


@pytest.mark.parametrize("backend", ["poly", "numeric"])
def test_unicode_decimal_digits_are_numbers(backend):
    chart = Chart(XY, backend)
    assert chart.parse("٣*x^٣") == chart.parse("3*x^3")


def test_float_literal_beyond_float_range_is_a_syntax_error():
    chart = Chart(XY, "numeric")
    huge = "1" * 400 + ".0"  # float() of it is inf
    for text in (f"sin({huge}) + x", f"exp(x)*sin({huge}*x)", f"{huge}*x + 1"):
        with pytest.raises(AlgindexError, match=r"scalar syntax error at position \d+: "
                                                "float literal beyond float range"):
            chart.parse(text)
    # the largest finite literals still parse, and a literal that underflows is 0.0
    assert chart.parse("1" * 308 + ".0").constant_value() == float("1" * 308)
    assert chart.parse("0." + "0" * 400 + "1").constant_value() == 0.0


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
        fast = _at_one_point(r, point)
        assert abs(exact - fast) <= 1e-12 * max(1.0, abs(exact))


# -- the panel program at one point --------------------------------------------


def _exact_float(value):
    try:
        return float(value)
    except OverflowError:
        raise DomainError("beyond float range") from None


def _uncompiled_eval_float(p, point):
    """The float path written out directly: the terms summed in print order
    (graded-lex descending), each coefficient converted at every call, every
    exponent visited, the same fallbacks; an exact value beyond float range
    is a DomainError."""
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
        values, terms = [float(v) for v in point], p.fraction_terms()
        for expo in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
            term = float(terms[expo])
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
    """The float one evaluation returns, or DomainError if it raises one."""
    try:
        return evaluate(point)
    except DomainError:
        return DomainError


def _run_panel(program, axes, jac, wk, wg):
    """A compiled panel program on one panel: each axis's row from its
    nodes, multipliers and Kronrod and Gauss weights, then the panel's sums
    over those rows."""
    rows, panel = program
    return panel([row(list(zip(*inputs))) for row, *inputs in zip(rows, axes, jac, wk, wg)])


def _functions(program):
    rows, panel = program
    return [*rows, panel]


def _at_one_point(scalar, point):
    """The panel program's value at one point: one node per axis, unit
    multipliers and weights, so its sums are ``0.0 +`` the value."""
    ones = [[1.0] for _ in point]
    kron, gauss = _run_panel(scalar.compile_panel(), [[v] for v in point], ones, ones, ones)
    assert _same(kron, gauss)
    return kron


def assert_same_bits(scalar, point):
    compiled = _outcome(lambda q: _at_one_point(scalar, q), point)
    other = _outcome(lambda q: 0.0 + _uncompiled_eval_float(scalar, q), point)
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
    # parts within float range whose ratio is not
    assert assert_same_bits(P("x") / P("y"), (1e300, 1e-300)) is DomainError
    # only the denominator's power overflows (1.5e154 ** 2), and its exact value
    # is in range: the numerator keeps its float sum, which is not its exact
    # value rounded, so a flag shared by the two parts gives other bits
    point = (1.5e154, math.nextafter(1.5e154, 0))
    num, den = P("x/2 - 2*y/5"), P("x^2 - x*y")
    shared = float(num.eval(point)) / float(den.eval(point))
    own = _reference_sum(num, point) / float(den.eval(point))
    assert assert_same_bits(num / den, point) == own != shared


def test_compiled_float_cancellation_falls_back_to_exact():
    p = P("(x - 1)^8")  # expanded: nine terms of size up to 70 cancel near x = 1
    assert len(p.fraction_terms()) == 9
    point = (1 + 2.0**-10, 0.25)
    assert assert_same_bits(p, point) == 2.0**-80
    assert assert_same_bits(p / P("1 + y^2"), point) == float((p / P("1 + y^2")).eval(point))


def test_compiled_float_pole_is_domain_error():
    r = P("1") / P("x - 1")
    assert assert_same_bits(r, (1.0, 0.5)) is DomainError
    assert assert_same_bits(r, (3.0, 0.5)) == 0.5


def test_non_finite_coordinates_are_domain_errors():
    p, r = P("x^2 + y + 1"), P("x") / P("1 + y^2")
    for bad in (math.nan, math.inf, -math.inf):
        for scalar in (p, r):
            for evaluate in (scalar.eval, lambda q: _at_one_point(scalar, q)):
                with pytest.raises(DomainError, match="not a finite rational"):
                    evaluate((bad, 0.0))


def test_compiled_float_checks_point_length():
    huge = PolyScalar(XY, {(1, 0): 10**400})  # evaluated exactly, never compiled
    for scalar in [P("x^2 + 3*y"), P("5"), P("x") / P("1 + y^2"), huge]:
        for point in [(), (1.0,), (1.0, 2.0, 3.0)]:
            with pytest.raises(AlgindexError, match="point dimension"):
                scalar.eval(point)
        assert_same_bits(scalar, (0.5, -2.0))


_SPECIAL = (0.0, -0.0, 0.75, -1.5, 1e200, -1e200, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("variables", [("x",), ("x", "y", "z"), ("w", "x", "y", "z")])
def test_generated_evaluator_on_charts_of_other_sizes(variables):
    rng = random.Random(len(variables))
    chart = Chart(variables)
    coords = [chart.coord(i) for i in range(len(variables))]
    for _ in range(60):
        p = random_poly(rng, variables)
        # denominators whose gcd with p is cheap: 1 + k c^2 and a linear form
        square = 1 + rng.randint(1, 3) * rng.choice(coords) ** 2
        linear = Fraction(rng.randint(-3, 3), 2) + sum(rng.randint(-2, 2) * c for c in coords)
        for scalar in [p] + [p / den for den in (square, linear) if not den.is_zero()]:
            assert_same_bits(scalar, tuple(rng.uniform(-3, 3) for _ in variables))
            assert_same_bits(scalar, tuple(rng.choice(_SPECIAL) for _ in variables))


@pytest.mark.parametrize("text", ["0", "5", "-3/7", "-2*x^3*y", "x^2 + 3*y^4 + 1/2",
                                  "-x^2*y^2 - 7*y^6 - 1"])
def test_generated_evaluator_where_no_terms_can_cancel(text):
    # one term, or coefficients of one sign on even exponents: the sum is
    # trusted whenever it is finite
    for point in itertools.product(_SPECIAL, repeat=2):
        for scalar in [P(text), P(text) / P("1 + x^2"), P(text) / P("x^3 - y")]:
            assert_same_bits(scalar, point)


def test_generated_evaluator_falls_back_only_where_terms_cancel():
    p = P("x^2 - 2*x*y + y^2")  # (x - y)^2 cancels near the diagonal only
    assert assert_same_bits(p, (3.0, 1.0)) == 4.0
    assert assert_same_bits(p, (1 + 2.0**-30, 1.0)) == 2.0**-60  # the float sum is 0.0
    # |sum| is 1.5e-8: above 1e-8 times each positive term, below it times -2*x*y
    point = (1.0, 1.0001224745)
    assert assert_same_bits(p, point) == float(p.eval(point))
    # coefficients of one sign cancel on odd exponents
    odd, point = P("x^3 + y^3"), (1 + 2.0**-30, -1.0)
    assert assert_same_bits(odd, point) == float(odd.eval(point))
    r = p / P("1 + y^2")
    assert assert_same_bits(r, (3.0, 1.0)) == 2.0
    assert assert_same_bits(r, (1 + 2.0**-30, 1.0)) == 2.0**-61
    for point in itertools.product(_SPECIAL, repeat=2):
        assert_same_bits(p, point)
        assert_same_bits(r, point)


def test_generated_evaluator_of_twelve_thousand_terms():
    # 110 x 110 terms: one sum statement per term, so no deeply nested expression
    rng = random.Random(110)
    terms = {(i, j): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
             for i in range(110) for j in range(110)}
    p = PolyScalar(XY, terms)
    assert len(p.fraction_terms()) == 12100
    for point in [(0.5, -0.25), (1.5, -0.0)]:
        assert_same_bits(p, point)


def test_generated_evaluator_holds_no_coefficient_as_text():
    r = P("x/3 + 1/7") / P("5/11 + y^2")
    constants = {c for f in _functions(r.compile_panel()) for c in f.__code__.co_consts
                 if isinstance(c, float)}
    assert constants <= {0.0, 1e-8}


@pytest.mark.parametrize("backend,text,beyond", [("poly", "x^2 - 2*x*y + y^2", True),
                                                 ("poly", "(x^2 - x*y)/(x^2 + y^2)", False),
                                                 ("numeric", "exp(x*y) / (1 + y^2)", True)],
                         ids=["polynomial", "quotient", "numeric"])
def test_an_integrand_compiles_one_program(backend, text, beyond, monkeypatch):
    compiled = []

    def counting(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(scalars, "compile", counting, raising=False)
    program = Chart(XY, backend).parse(text).compile_panel()
    assert len(compiled) == 1
    # the numerators cancel on the diagonal and 1e200 ** 2 overflows: the
    # fallbacks run inside the same program, which compiles nothing more; only
    # the quotient's value stays in float range at 1e200
    axes = [[2.0, 0.5, 1e200], [0.0, 0.5]]
    inputs = _panel_inputs(random.Random(1709), axes)
    for _ in range(2):
        if beyond:
            with pytest.raises(DomainError, match="beyond float range"):
                _run_panel(program, axes, *inputs)
        else:
            _run_panel(program, axes, *inputs)
    assert len(compiled) == 1


# -- the panel program against an independent per-point reference ------------


def _reference_terms(p, point):
    """The float terms of ``p`` at ``point`` in print order, each its float
    coefficient times its powers in coordinate order (OverflowError beyond
    float range)."""
    xs, terms, out = [float(v) for v in point], p.fraction_terms(), []
    for expo in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        term = float(terms[expo])
        for x, e in zip(xs, expo):
            if e:
                term *= x**e
        out.append(term)
    return out


def _reference_sum(p, point):
    """The float sum of ``p`` at ``point`` by the per-term rule, or None
    where it is not trusted: the terms summed in print order, trusted when
    finite and at least 1e-8 times the largest |term|."""
    try:
        terms = _reference_terms(p, point)
    except OverflowError:
        return None
    total = largest = 0.0
    for term in terms:
        total += term
        largest = max(largest, abs(term))
    return total if math.isfinite(total) and abs(total) >= 1e-8 * largest else None


def _reference_exact(p, point):
    """The exact value of ``p`` at ``point``, summed in Fractions."""
    values = [Fraction(v) for v in point]
    total = Fraction(0)
    for expo, coeff in p.fraction_terms().items():
        term = Fraction(coeff)
        for v, e in zip(values, expo):
            term *= v**e
        total += term
    return total


def _reference_float(exact):
    try:
        return float(exact)
    except OverflowError:
        return DomainError


def _reference_point(scalar, point):
    """A polynomial's trusted float sum, else its exact value; a quotient's
    ratio of its parts' values where finite, else its exact value, a pole
    or a value beyond float range being DomainError."""
    if isinstance(scalar, PolyScalar):
        fast = _reference_sum(scalar, point)
        return _reference_float(_reference_exact(scalar, point)) if fast is None else fast
    n, d = _reference_point(scalar.num, point), _reference_point(scalar.den, point)
    if DomainError not in (n, d) and d != 0.0 and math.isfinite(n / d):
        return n / d
    den = _reference_exact(scalar.den, point)
    return DomainError if den == 0 else _reference_float(_reference_exact(scalar.num, point) / den)


def _same(a, b):
    """Equal floats of equal sign, or both NaN."""
    if math.isnan(a):
        return math.isnan(b)
    return a == b and math.copysign(1, a) == math.copysign(1, b)


def _reference_panel(values, axes, jac, wk, wg):
    """The panel sums written out: at each point of ``product(*axes)``, its
    value times its multipliers in axis order, then that times the product
    of its Kronrod weights, added from 0.0 in product order; the Gauss sum
    likewise over the points whose every Gauss weight is a number."""
    kron = gauss = 0.0
    indices = itertools.product(*(range(len(axis)) for axis in axes))
    for index, value in zip(indices, values):
        y = math.prod([value] + [jac[i][n] for i, n in enumerate(index)])
        kron += math.prod(wk[i][n] for i, n in enumerate(index)) * y
        gauss_weights = [wg[i][n] for i, n in enumerate(index)]
        if None not in gauss_weights:
            gauss += math.prod(gauss_weights) * y
    return kron, gauss


def _panel_inputs(rng, axes):
    """Random multipliers and weights, Gauss weights None at about half the nodes."""
    jac = [[rng.uniform(0.5, 4.0) for _ in axis] for axis in axes]
    wk = [[rng.uniform(0.01, 0.3) for _ in axis] for axis in axes]
    wg = [[rng.choice((None, rng.uniform(0.01, 0.6))) for _ in axis] for axis in axes]
    return jac, wk, wg


def assert_panel_matches_reference(scalar, axes, jac, wk, wg, reference=_reference_point):
    """The panel program's sums have the bits of :func:`_reference_panel`
    over the per-point ``reference``; where some point is DomainError, the
    program raises the exact evaluator's error at the first."""
    points = list(itertools.product(*axes))
    values = [reference(scalar, point) for point in points]
    if DomainError in values:
        first = points[values.index(DomainError)]
        with pytest.raises(DomainError) as at_point:
            scalars._exact_float(scalar.eval, first)
        with pytest.raises(DomainError, match=re.escape(str(at_point.value))):
            _run_panel(scalar.compile_panel(), axes, jac, wk, wg)
        return DomainError
    got = _run_panel(scalar.compile_panel(), axes, jac, wk, wg)
    want = _reference_panel(values, axes, jac, wk, wg)
    assert _same(got[0], want[0]) and _same(got[1], want[1]), (scalar, axes, got, want)
    return got


def _numeric_point(expr, point):
    return _outcome(expr.eval, point)


@pytest.mark.parametrize("backend,text", [("poly", "x^2 - 3*x*y + 1"), ("poly", "x/(1 + y^2)"),
                                          ("numeric", "exp(x*y) / (1 + y^2)")])
def test_a_panel_program_is_freed_by_reference_counting(backend, text):
    # its functions do not sit in the namespace they hold as globals, so
    # dropping the program frees them without the cyclic collector
    gc.disable()
    try:
        program = Chart(XY, backend).parse(text).compile_panel()
        refs = [weakref.ref(f) for f in _functions(program)]
        assert len(refs) == 3 and all(ref() is not None for ref in refs)
        del program
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("variables", [("x",), ("x", "y"), ("x", "y", "z")])
def test_grid_evaluator_matches_per_point_reference(variables):
    rng = random.Random(1700 + len(variables))
    chart = Chart(variables)
    coords = [chart.coord(i) for i in range(len(variables))]
    nodes = (0.0, -0.0, 0.75, -1.5, 1e200, 3, Fraction(-2, 3))
    size = {1: 7, 2: 4, 3: 3}[len(variables)]
    for _ in range(40):
        p = random_poly(rng, variables)
        square = 1 + rng.randint(1, 3) * rng.choice(coords) ** 2
        linear = Fraction(rng.randint(-3, 3), 2) + sum(rng.randint(-2, 2) * c for c in coords)
        for scalar in [p] + [p / den for den in (square, linear) if not den.is_zero()]:
            axes = [[rng.choice((rng.uniform(-3, 3),) + nodes) for _ in range(size)]
                    for _ in variables]
            assert_panel_matches_reference(scalar, axes, *_panel_inputs(rng, axes))


def test_grid_evaluator_overflow_cancellation_and_pole():
    rng = random.Random(1719)
    # 1e200 ** 2 overflows in the power of that node only: it falls back, the
    # other nodes keep their float sums
    r = P("x^2 - x*y") / P("x^2 + y^2")
    assert _at_one_point(r, (1e200, 2.0)) == 1.0
    axes = [[1e200, 0.5], [2.0, -1.0]]
    assert_panel_matches_reference(r, axes, *_panel_inputs(rng, axes))
    # only the denominator's power overflows, at the first node of each axis
    axes = [[1.5e154, 0.5], [math.nextafter(1.5e154, 0), 2.0]]
    assert_panel_matches_reference(P("x/2 - 2*y/5") / P("x^2 - x*y"), axes,
                                   *_panel_inputs(rng, axes))
    # (x - y)^2 cancels on the diagonal: that node is exact, the rest are sums
    p = P("x^2 - 2*x*y + y^2")
    assert _at_one_point(p, (1 + 2.0**-30, 1.0)) == 2.0**-60
    axes = [[1 + 2.0**-30, 3.0], [1.0]]
    assert_panel_matches_reference(p, axes, *_panel_inputs(rng, axes))
    three = Chart(("x", "y", "z")).parse("(x*y - z)^2")
    assert _at_one_point(three, (2.0, 1.0, 2.0)) == 0.0
    axes = [[1e200, 2.0], [0.5, 1.0], [1.0, 2.0]]
    assert_panel_matches_reference(three, axes, *_panel_inputs(rng, axes))
    # a pole raises the point evaluator's DomainError, naming the same node
    ones = [[1.0, 1.0], [1.0]]
    with pytest.raises(DomainError, match=re.escape("at (1.0, 0.5)")):
        _run_panel((P("1") / P("x - 1")).compile_panel(), [[3.0, 1.0], [0.5]], ones, ones, ones)
    axes = [[3.0, 1.0], [0.5, 2.0]]
    assert_panel_matches_reference(P("x + y") / P("x - 1"), axes, *_panel_inputs(rng, axes))
    # one axis: a value times its multiplier overflows at a Kronrod-only node,
    # so the Kronrod sum is infinite and the Gauss sum stays finite
    line = Chart(("x",)).parse("x^2 + 1")
    axes, wk = [[0.5, 2.0, 3.0]], [[0.3, 0.2, 0.1]]
    kron, gauss = assert_panel_matches_reference(line, axes, [[1.0, 1e308, 1.0]], wk,
                                                 [[0.5, None, 0.25]])
    assert kron == math.inf and gauss == 0.5 * 1.25 + 0.25 * 10.0


@pytest.mark.parametrize("variables,text", [
    (("x", "y"), "x^2 - 3*x*y + y^2 - 1"),
    (("x", "y"), "x*y^3 - y^3 + x^2"),
    (("x", "y"), "x^3*y - 2*x*y^2 + y - 4"),
    (("x",), "x^3 - 2*x^2 + x - 1/1024"),
    (("x", "y", "z"), "x^2*y*z - 2*x*y*z^3 + y^2*z^5 - y^3 + z"),
])
def test_cancellation_check_as_the_largest_term_moves_between_groups(variables, text):
    # the largest |term| lies now in a group of one axis, now in a product
    # group; the nodes near 1 and of both signs put some points on either
    # side of the 1e-8 * max|term| threshold, odd later powers among them
    rng = random.Random(1761 + len(text))
    scalar = Chart(variables).parse(text)
    near = [1.0, -1.0, 1 + 2.0**-30, 1 - 2.0**-29, -(1 + 2.0**-28), 1 + 3e-9, 2.0**10,
            -(2.0**10), 2.0**-10, 0.0, 2.618033988749895]
    for _ in range(12):
        axes = [rng.sample(near, 3) + [rng.uniform(-30, 30)] for _ in variables]
        assert_panel_matches_reference(scalar, axes, *_panel_inputs(rng, axes))


@pytest.mark.parametrize("variables,text,point", [
    # the largest |term| in a product group: 2*x*y
    (("x", "y"), "x^2 - 2*x*y + y^2", (1 + 2.0**-30, 1.0)),
    # in a group of axis 0 (2*x^2), with a product group x*y of 2^-200 beside it
    (("x", "y"), "x^3 - 2*x^2 + x*y + x", (1 + 2.0**-30, 2.0**-200)),
    # in a group of axis 1 (2*y^2), the constant in axis 0's
    (("x", "y"), "y^3 - 2*y^2 + y", (5.0, 1 + 2.0**-30)),
    # an odd later power at a negative node: 2*x*y^3
    (("x", "y"), "x^2 - 2*x*y^3 + y^6", (-1 - 2.0**-30, -1.0)),
    (("x",), "x^3 - 2*x^2 + x", (1 + 2.0**-30,)),
    # 2*x*y*z, a product through two later axes
    (("x", "y", "z"), "x^2 - 2*x*y*z + y^2*z^2", (1 + 2.0**-30, 1.0, 1.0)),
])
def test_cancellation_check_one_ulp_either_side_of_its_threshold(variables, text, point):
    # the float sum of q cancels to exactly 0.0 where its exact value does
    # not, so q + c sums to c, and the exact fallback gives another value:
    # |c| one ulp below 1e-8 * max|term| is not trusted, at or one ulp above it is
    q = Chart(variables).parse(text)
    terms = _reference_terms(q, point)
    assert sum(terms) == 0.0 != _reference_exact(q, point)
    bound = 1e-8 * max(abs(term) for term in terms)
    below, above = math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)
    axes = [[v, v + 0.5] for v in point]
    for c, trusted in [(below, False), (bound, True), (above, True)]:
        for sign in (1, -1):
            p = q + Fraction(sign * c)
            exact = float(_reference_exact(p, point))
            assert exact != sign * c
            assert _at_one_point(p, point) == (sign * c if trusted else exact)
            assert_panel_matches_reference(p, axes, *_panel_inputs(random.Random(1777), axes))


@pytest.mark.parametrize("variables,text,axes", [
    (("x",), "exp(-x^2)*cos(3*x) + sqrt(1 + x^2)", [[-1.0, 0.25, 2.0, 1e-3]]),
    (("x", "y"), "sin(x)*cos(y) + sqrt(1 + x^2) - 2.5*x^3", [[0.0, 0.5, -0.75], [2.0, -1.0]]),
    # x^2 overflows at 1e200: beyond float range is a DomainError naming the node
    (("x", "y"), "x^2 + y", [[1.0, 1e200], [0.5, 2.0]]),
    # a pole
    (("x", "y"), "1/(x - 1) + y", [[3.0, 1.0], [0.5, 2.0]]),
    # x*x is inf at 1e200 and 1/inf a finite 0.0: still the non-finite DomainError
    (("x", "y"), "1/(x*x) + y", [[1.0, 1e200], [0.5, 2.0]]),
    # zero to a negative power; sqrt of a negative; a power beyond float range in sin
    (("x", "y"), "x^-2 + y", [[1.0, 0.0], [0.5, 2.0]]),
    (("x", "y"), "sqrt(x - 1) * y", [[3.0, 0.5], [0.5, 2.0]]),
    (("x", "y"), "sin(x^2) + y", [[1.0, 1e160], [0.5]]),
    (("x",), "exp(x) - 1", [[1.0, 800.0]]),
])
def test_numeric_panel_program_matches_its_evaluator(variables, text, axes):
    rng = random.Random(1723)
    expr = Chart(variables, "numeric").parse(text)
    assert_panel_matches_reference(expr, axes, *_panel_inputs(rng, axes), _numeric_point)


def _subtrees(node):
    """Every subtree of ``node`` but its constants and coordinates, repeats included."""
    if node[0] in ("const", "coord"):
        return []
    return [node, *(tree for child in node[1:] if isinstance(child, tuple)
                    for tree in _subtrees(child))]


@pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 1)])
def test_numeric_panel_program_computes_each_distinct_node_once(i, j, monkeypatch):
    # the conformal factor of tests/documents/numeric-chart.yaml: its
    # derivative trees repeat subtrees, as shared objects and as equal copies
    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(scalars, "compile", capture, raising=False)
    factor = Chart(XY, "numeric").parse("exp(x*y/4) + 1/(2 + sin(x))")
    expr = factor.derive(i).derive(j)
    program = expr.compile_panel()
    statements = [line for line in sources[0].splitlines() if re.match(r" +u\d+ = ", line)]
    subtrees = _subtrees(expr.node)
    assert len(statements) == len(set(subtrees)) < len(subtrees)
    # constants are bound in the namespace, not written into the source
    assert {c for f in _functions(program) for c in f.__code__.co_consts
            if isinstance(c, float)} <= {0.0}
    rng = random.Random(1731 + 2 * i + j)
    axes = [[-1.0, 0.25, 2.0, -0.0], [0.5, -1.5, 3.0]]
    assert_panel_matches_reference(expr, axes, *_panel_inputs(rng, axes), _numeric_point)


def test_numeric_point_program_keeps_signed_zero_constants_apart():
    # x*(-0.0) - x*0.0 is -0.0 at x > 0; one constant for both would give 0.0.
    # The panel's sums start from 0.0, which hides the sign, so look at the
    # constants the program binds
    x = ("coord", 0)
    expr = scalars.NumericExpr(("x",), ("sub", ("mul", x, ("const", -0.0)),
                                        ("mul", x, ("const", 0.0))))
    program = expr.compile_panel()
    constants = [v for name, v in program[1].__globals__.items() if re.fullmatch(r"u\d+", name)]
    assert sorted(math.copysign(1, c) for c in constants) == [-1, 1] and not any(constants)
    assert _at_one_point(expr, (1.5,)) == 0.0 == expr.eval((1.5,))


def test_numeric_panel_program_of_a_long_sum():
    # about 3000 distinct terms, summed as a balanced tree the evaluator can
    # recurse through: the finiteness sum runs 32 terms to a statement
    chart = Chart(XY, "numeric")
    x, y = chart.coord(0), chart.coord(1)
    terms = [(x + k) / (y + 3) for k in range(3000)]
    while len(terms) > 1:
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) // 2 * 2:]
    axes = [[0.25, -1.0], [0.5, 1.5]]
    assert_panel_matches_reference(terms[0], axes, *_panel_inputs(random.Random(1747), axes),
                                   _numeric_point)


def test_numeric_constant_beyond_float_range_is_the_evaluators_error():
    chart = Chart(XY, "numeric")
    expr = chart.coord(0) + scalars.NumericExpr.const(XY, 10**400)
    axes = [[1.0], [2.0]]
    assert_panel_matches_reference(expr, axes, *_panel_inputs(random.Random(1753), axes),
                                   _numeric_point)


def test_grid_of_a_constant_and_of_an_empty_axis():
    ones = [[1.0, 1.0], [1.0]]
    assert _run_panel(P("5").compile_panel(), [[1.0, 2.0], [3.0]], ones, ones,
                      [[1.0, None], [1.0]]) == (10.0, 5.0)
    assert _run_panel((P("x") / P("1 + y^2")).compile_panel(), [[], [1.0]], [[], [1.0]],
                      [[], [1.0]], [[], [1.0]]) == (0.0, 0.0)
    assert _run_panel(PolyScalar((), {(): Fraction(1, 3)}).compile_panel(), [], [], [], []) == (
        1 / 3, 1 / 3)


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


# -- rational functions against sympy.cancel -----------------------------------

# reducible factors, and factors that recur across terms and quotients
ORACLE_POOL = ["x^2 - 1", "x^2 - y^2", "x - 1", "x + y", "1 + x^2", "1 + x^2 + y^2",
               "x", "y", "5/2", "1/(x^2 - 1)", "(x + y)/(x^2 - y^2)",
               "(x - 1)^2/((x^2 - 1)*(1 + x^2))", "y/((1 + x^2)^2*(x - 1))"]
# powers of a linear form, whose gcd with a derivative is a power again
ORACLE_POOL_3 = ["(1 + x + y + z)^3", "(1 + x + y + z)^2", "x + y + z", "x*y - z", "x^2 - z^2",
                 "1 + x^2 + y^2 + z^2", "z", "3/2", "1/(1 + x + y + z)", "(x - z)/(x^2 - z^2)",
                 "y/((1 + x + y + z)^2*(x*y - z))", "(2*x - y/3 + z)^3"]
# the pair whose gcd over the rationals ran without bound before integer contents
FOUND_PAIR = ("1/4*x^3*y^3*z^3 + w^3*x^2*z + 2/3*x^2*y^2*z^2 + 3*y^3*z^2 + 5/8*w^2*y^2",
              "w^2 + 3/2*x^2 + y^2 + 3/2*z^2 + 1/2")
ORACLE_POOL_4 = [*FOUND_PAIR, f"({FOUND_PAIR[0]})/({FOUND_PAIR[1]})", "(w + x + y + z)^2",
                 "w - x", "y*z + w", "1/(w + x + y + z)", "(w - x)^2/((w + x + y + z)*(y*z + w))",
                 "(1 + w - z)^3", "7/3"]


def _oracle_pair(rng, sympy, depth, chart=Chart(XY), pool=ORACLE_POOL):
    """A random exact scalar of +, -, *, /, integer powers and derive over the
    pool, and the same expression in sympy."""
    if depth == 0:
        text = rng.choice(pool)
        return chart.parse(text), sympy.sympify(text.replace("^", "**"))
    a, sa = _oracle_pair(rng, sympy, depth - 1, chart, pool)
    op = rng.choice("+-*/^d")
    if op == "d":
        i = rng.randrange(chart.dim)
        return a.derive(i), sympy.diff(sa, sympy.Symbol(chart.names[i]))
    if op == "^":
        k = rng.choice([-2, -1, 2]) if not a.is_zero() else 2
        return (a**k if k > 0 else 1 / a**-k), sa**k
    b, sb = _oracle_pair(rng, sympy, depth - 1, chart, pool)
    if op == "/" and b.is_zero():
        op = "*"
    combine = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op]
    return combine(a, b), combine(sa, sb)


# (coordinates, pool, cases, deepest expression, seed)
ORACLE_RUNS = [(XY, ORACLE_POOL, 40, 3, 707), (("x", "y", "z"), ORACLE_POOL_3, 20, 2, 708),
               (("w", "x", "y", "z"), ORACLE_POOL_4, 25, 2, 709)]


def test_rational_arithmetic_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    for names, pool, cases, depth, seed in ORACLE_RUNS:
        symbols = sympy.symbols(names)
        chart = Chart(names)
        rng = random.Random(seed)
        for _ in range(cases):
            value, expr = _oracle_pair(rng, sympy, rng.randint(1, depth), chart, pool)
            num, den = sympy.fraction(sympy.cancel(expr))
            lead = sympy.Poly(den, *symbols).LC(order="grlex")  # of the monic denominator
            num, den = sympy.expand(num / lead), sympy.expand(den / lead)
            # a polynomial value is a PolyScalar, any other a RationalScalar
            assert isinstance(value, PolyScalar if den == 1 else RationalScalar), (value, expr)
            if den == 1:
                printed = (str(value), "1")
            else:
                printed = (str(value.num), str(value.den))
                assert str(value) == f"({printed[0]})/({printed[1]})"
            for text, want in zip(printed, (num, den)):
                assert sympy.expand(sympy.sympify(text.replace("^", "**")) - want) == 0, (
                    value, expr)


def test_gcd_of_the_four_variable_pair_is_one_within_budget():
    chart = Chart(("w", "x", "y", "z"))
    a, b = (chart.parse(text) for text in FOUND_PAIR)
    start = time.perf_counter()
    assert poly_gcd(a, b) == 1
    assert poly_gcd(a * b, b.derive(1) * a) == 4 * a  # over a's leading coefficient 1/4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"


def test_gcd_of_a_power_and_its_derivative_within_budget():
    chart = Chart(("x", "y", "z"))
    f = chart.parse("(1 + x + y + z)^12")
    start = time.perf_counter()
    g = poly_gcd(f, f.derive(0))
    elapsed = time.perf_counter() - start
    assert g == chart.parse("(1 + x + y + z)^11")
    assert elapsed < 0.5, f"took {elapsed:.2f}s (budget 0.5s)"


# (coordinates, a, b, their graded-lex-monic gcd), checked against sympy.gcd
GCD_CASES = [
    (("w", "x", "y", "z"), f"({FOUND_PAIR[0]})*(w - x*y + 2)", f"({FOUND_PAIR[1]})*(w - x*y + 2)",
     "x*y - w - 2"),
    (("x", "y", "z"), "(x + y*z)^2*(1 + x - z)", "(x + y*z)*(x^2 - y)", "x + y*z"),
    (("x", "y", "z"), "(2*x*y - 3*z^2 + 1)^2*(x^3 - y*z)", "(2*x*y - 3*z^2 + 1)^3*(y^2 + z + 5)",
     "(x*y - 3/2*z^2 + 1/2)^2"),
    (("x", "y", "z"), "(x*y*z - 1/2)*(x^2 + y^2 + z^2 - 1)", "(x*y*z - 1/2)*(x + y + z)^2",
     "x*y*z - 1/2"),
    (("x", "y", "z"), "-5/9*x^3*y*z*(6*x^3*y^3*z^2 + 19/12*x*y^3*z^3 - 7*x)",
     "-5/9*x^3*y*z*(8/5*y^3*z^3 - 3/7*x*y^2*z^2 + 8/3*y^3*z)", "x^3*y*z"),
    # coprime, but at x = 2 both images share y, so the sequence decides
    (XY, "y + x - 2", "y^2 + y + x - 2", "1"),
]


@pytest.mark.parametrize("names, a, b, want", GCD_CASES)
def test_gcd_keeps_the_shared_factor(names, a, b, want):
    chart = Chart(names)
    a, b = chart.parse(a), chart.parse(b)
    assert poly_gcd(a, b) == chart.parse(want)
    assert poly_gcd(b, a) == chart.parse(want)


# -- the integer form against Fraction-coefficient arithmetic ----------------------

_COEFFICIENTS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _polys(names):
    exponents = st.tuples(*[st.integers(0, 3)] * len(names))
    return st.dictionaries(exponents, _COEFFICIENTS, max_size=6).map(
        lambda terms: PolyScalar(names, terms))


def _sum(*dicts):
    out = {}
    for terms in dicts:
        for expo, c in terms.items():
            out[expo] = out.get(expo, 0) + c
    return {e: c for e, c in out.items() if c}


def _product(a, b):
    return _sum(*({tuple(map(operator.add, e1, e2)): c1 * c2} for e1, c1 in a.items()
                  for e2, c2 in b.items()))


def _assert_canonical(p):
    """Primitive integers with a positive graded-lex leading value, the
    content carrying the rest; fraction_terms() is content times the integers."""
    assert type(p.content) is Fraction
    if not p.ints:
        assert p.content == 0 and p.fraction_terms() == {}
        return
    assert p.content != 0
    assert all(type(n) is int and n != 0 for n in p.ints.values())
    assert all(len(e) == len(p.vars) and all(type(k) is int for k in e) for e in p.ints)
    assert math.gcd(*p.ints.values()) == 1
    assert p.ints[max(p.ints, key=lambda e: (sum(e), e))] > 0
    assert p.fraction_terms() == {e: p.content * n for e, n in p.ints.items()}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([XY, ("x", "y", "z")]).flatmap(
    lambda names: st.tuples(_polys(names), _polys(names), st.integers(0, 3), _COEFFICIENTS)))
def test_every_arithmetic_result_is_canonical(case):
    a, b, k, q = case
    ta, tb = a.fraction_terms(), b.fraction_terms()
    power = {(0,) * len(a.vars): Fraction(1)}
    for _ in range(k):
        power = _product(power, ta)
    results = [(a + b, _sum(ta, tb)), (a - b, _sum(ta, {e: -v for e, v in tb.items()})),
               (-a, {e: -v for e, v in ta.items()}), (a * b, _product(ta, tb)),
               (a * q, {e: v * q for e, v in ta.items() if q}), (a**k, power),
               (a.derive(0), {e[:0] + (e[0] - 1,) + e[1:]: v * e[0]
                              for e, v in ta.items() if e[0]})]
    if not b.is_zero():
        results.append((poly_quotient(a * b, b), ta))
    for value, want in results:
        _assert_canonical(value)
        assert value.fraction_terms() == want


# divisors that vanish at poly_quotient's integer point (2, 3, 4, 5), where its
# test before dividing cannot refuse and the division itself must decide
_VANISHING = {1: ["x - 2", "x^2 - 4"], 2: ["x*y - 6", "x + y - 5", "x^2*y - 3*x - 6"],
              3: ["x*z - 8", "x + y + z - 9"], 4: ["x*w - 10", "w - y - 2", "x*y*z*w - 120"]}


def test_division_agrees_with_the_scan_reference():
    try:
        import sympy
    except ImportError:
        sympy = None
    rng, names = random.Random(20261022), ("x", "y", "z", "w")
    for case in range(240):
        chart = Chart(names[:1 + case % 4])
        a, r = random_poly(rng, chart.names), random_poly(rng, chart.names)
        b = (chart.parse(rng.choice(_VANISHING[chart.dim])) if case % 3 == 0
             else random_poly(rng, chart.names, max_deg=2))
        if b.is_zero():
            continue
        # a*b + (x - 2)*(y - 3) has a*b's value at the point, so it passes the
        # test before dividing, and b divides it only if b divides the product
        passing = a * b + chart.parse("(x - 2)*(y - 3)" if chart.dim > 1 else "x - 2")
        assert poly_quotient(a * b, b) == a
        for num in (a * b, a * b + r, passing):
            got, want = poly_quotient(num, b), oracles.scan_quotient(num, b)
            assert (got is None) == (want is None), (num, b)
            if got is None:
                continue
            _assert_canonical(got)
            assert got == want
            assert list(got.ints) == sorted(got.ints, key=lambda e: (sum(e), e), reverse=True)
        if sympy is not None and case % 2 == 0:
            symbols = sympy.symbols(chart.names)

            def expr(p):
                return sum((sympy.Rational(c.numerator, c.denominator)
                            * sympy.Mul(*(s**e for s, e in zip(symbols, expo)))
                            for expo, c in p.fraction_terms().items()), sympy.Integer(0))

            for num in (a * b + r, passing):
                quotient, rest = sympy.div(expr(num), expr(b), *symbols)
                got = poly_quotient(num, b)
                assert (got is not None) == (rest == 0), (num, b)
                if got is not None:
                    assert sympy.expand(quotient - expr(got)) == 0


# Two coordinates: the remainder sequence settles these in milliseconds, while
# three-coordinate factors of this size can take seconds (see GCD_CASES for
# three and four coordinates).
@settings(max_examples=100, deadline=2000)
@given(_polys(XY), _polys(XY), _polys(XY))
def test_gcd_divides_both_and_keeps_every_common_factor(a, b, c):
    if (a * c).is_zero() or (b * c).is_zero():
        return
    g = poly_gcd(a * c, b * c)
    _assert_canonical(g)
    assert g.content * g.ints[max(g.ints, key=lambda e: (sum(e), e))] == 1  # monic
    assert poly_quotient(a * c, g) is not None and poly_quotient(b * c, g) is not None
    assert poly_quotient(g, c) is not None


def test_divisor_groups_are_divided_in_turn():
    u, v = P("1 + x^2 + y^2"), P("2 + x^2 + y^2")
    phi = P("3*(3 + (x - 1)^2 + (y - 1)^2)/((2 + x^2 + y^2)*(1 + x^2 + y^2)^2)")
    assert phi == P("3*(3 + (x - 1)^2 + (y - 1)^2)") / (v * u * u)
    assert sorted(k for _, k in phi.factors.values()) == [1, 2]  # v and u, never (v u^2)
    assert P("(x^2 - 1)/(-(x - 1)*(x + 1))") == P("-1")
    assert P("1/((x*y)/(1 + x))") == P("1 + x") / P("x*y")
    for text in ("1/(x/0)", "1/(x/(y - y))", "1/(x/0)^2", "y/(x*(y - y))^2"):
        with pytest.raises(DomainError, match="division by the zero polynomial"):
            P(text)


def test_nested_divisors_are_parsed_once():
    """Each group of a divisor is read once, so nesting costs linear time."""
    text, want = "x", P("x")
    for _ in range(40):
        text, want = f"(1/{text} + 1)", 1 / want + 1
    start = time.perf_counter()
    assert P(f"1/{text}") == 1 / want
    assert time.perf_counter() - start < 1.0
