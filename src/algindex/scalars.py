"""Exact and numeric scalar backends over a named coordinate chart.

Two families of scalars share one arithmetic interface:

* :class:`PolyScalar` -- multivariate polynomials with exact rational
  coefficients.  All identity checking in the library runs on these (or on
  their quotients, :class:`RationalScalar`), so equality-to-zero is decidable
  and exact.
* :class:`NumericExpr` -- an evaluable expression tree (exp, sqrt, sin, cos,
  division) used only where a chart integrand is not polynomial.  Its nodes
  are plain nested tuples -- ``("const", v)``, ``("coord", i)``,
  ``("pow", child, p)``, ``(op, a, b)`` for an op of ``_BINARY`` and
  ``(fn, a)`` for a function of ``_FUNCTIONS`` -- and only the root carries
  the chart; its zero test, and so its equality, is sampled.

Scalars are immutable after construction; every operation returns a new
value.  Monomials are ordered graded-lexicographically for canonical output.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction


class AlgindexError(ValueError):
    """Base of every error the library raises for a failed computation."""


class DomainError(AlgindexError, ArithmeticError):
    """Evaluation left the declared domain (pole, sqrt of a negative, ...)."""


def as_fraction(value) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DomainError(f"division by zero in {value!r}") from None
        except ValueError:
            raise AlgindexError(f"cannot interpret {value!r} as an exact rational") from None
    if isinstance(value, float):
        # floats are binary-exact; allow them so quadrature points can be
        # pushed through exact arithmetic without rounding.
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _exact_float(exact, point) -> float:
    """The exact value ``exact(point)`` as a float; a value beyond float
    range raises :class:`DomainError`."""
    try:
        return float(exact(point))
    except OverflowError:
        raise DomainError(f"value beyond float range at {tuple(point)}") from None


def _grlex_key(expo):
    return (sum(expo), expo)


class PolyScalar:
    """A multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one entry per chart coordinate) to
    nonzero Fractions.  The zero polynomial has no terms.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        clean = {}
        for expo, coeff in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(variables):
                raise AlgindexError(
                    f"exponent {expo} does not match variables {variables}"
                )
            coeff = as_fraction(coeff)
            if coeff != 0:
                clean[expo] = clean.get(expo, Fraction(0)) + coeff
                if clean[expo] == 0:
                    del clean[expo]
        self.vars = variables
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, value):
        value = as_fraction(value)
        n = len(tuple(variables))
        if value == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * n: value})

    @classmethod
    def coordinate(cls, variables, index):
        variables = tuple(variables)
        if not 0 <= index < len(variables):
            raise IndexError(f"coordinate index {index} out of range")
        expo = tuple(1 if i == index else 0 for i in range(len(variables)))
        return cls(variables, {expo: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PolyScalar):
            if other.vars != self.vars:
                raise AlgindexError("polynomials live on different charts")
            return other
        if isinstance(other, (int, Fraction)):
            return PolyScalar.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
        return PolyScalar(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyScalar(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
        return PolyScalar(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, power):
        if not isinstance(power, int) or power < 0:
            raise AlgindexError("polynomial powers must be nonnegative integers")
        result = PolyScalar.const(self.vars, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            if q == 0:
                raise DomainError("division by zero")
            return self * (Fraction(1) / q)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ratio(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ratio(other, self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyScalar.const(self.vars, other)
        if not isinstance(other, PolyScalar):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None

    # -- calculus and evaluation -------------------------------------------

    def derive(self, index):
        """Exact partial derivative with respect to coordinate ``index``."""
        if not 0 <= index < len(self.vars):
            raise IndexError(f"coordinate index {index} out of range")
        terms = {}
        for expo, coeff in self.terms.items():
            k = expo[index]
            if k == 0:
                continue
            new = list(expo)
            new[index] = k - 1
            terms[tuple(new)] = coeff * k
        return PolyScalar(self.vars, terms)

    def eval(self, point) -> Fraction:
        """Exact evaluation; ``point`` entries may be ints/Fractions/floats."""
        if len(point) != len(self.vars):
            raise AlgindexError("point dimension does not match variable count")
        values = [as_fraction(p) for p in point]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, expo):
                if e:
                    term *= v**e
            total += term
        return total

    def eval_float(self, point) -> float:
        """Fast float evaluation; falls back to exact arithmetic on overflow."""
        return self.compile_float()(point)

    def compile_float(self):
        """A ``point -> float`` evaluator; ``eval_float`` is one call of it.

        The float coefficients are converted once and zero exponents are
        dropped.  Each call multiplies and sums the terms in dict order and
        falls back to exact evaluation on overflow or catastrophic
        cancellation, so an integrand evaluated many times gives the same
        bits as ``eval_float``.
        """
        exact, n_vars = self.eval, len(self.vars)
        try:
            terms = [
                (float(coeff), [(i, e) for i, e in enumerate(expo) if e])
                for expo, coeff in self.terms.items()
            ]
        except OverflowError:  # a coefficient beyond float range: always exact
            return lambda point: _exact_float(exact, point)

        def evaluate(point):
            if len(point) != n_vars:
                raise AlgindexError("point dimension does not match variable count")
            try:
                total = 0.0
                largest = 0.0
                values = [float(p) for p in point]
                for term, powers in terms:
                    for i, e in powers:
                        term *= values[i] ** e
                    total += term
                    if abs(term) > largest:  # a NaN term leaves largest as it is
                        largest = abs(term)
                # fall back on overflow or catastrophic cancellation
                if math.isfinite(total) and (largest == 0.0 or abs(total) >= 1e-8 * largest):
                    return total
            except OverflowError:
                pass
            return _exact_float(exact, point)

        return evaluate

    def substitute(self, replacements):
        """Substitute a scalar for each coordinate (composition)."""
        if len(replacements) != len(self.vars):
            raise AlgindexError("need one replacement per coordinate")
        total = None
        for expo, coeff in self.terms.items():
            term = coeff
            for repl, e in zip(replacements, expo):
                for _ in range(e):
                    term = repl * term
            total = term if total is None else total + term
        if total is None:
            return replacements[0] * 0 if replacements else PolyScalar.zero(self.vars)
        if isinstance(total, Fraction):
            total = replacements[0] * 0 + total
        return total

    def extend_vars(self, variables):
        """Reinterpret on a larger chart whose leading names match."""
        variables = tuple(variables)
        if variables[: len(self.vars)] != self.vars:
            raise AlgindexError("chart extension must keep leading coordinates")
        pad = (0,) * (len(variables) - len(self.vars))
        return PolyScalar(variables, {e + pad: c for e, c in self.terms.items()})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise AlgindexError(f"{self} is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def depends_on(self, index) -> bool:
        return any(e[index] for e in self.terms)

    def leading_term(self):
        """Graded-lex leading (exponent, coefficient) pair."""
        if not self.terms:
            return None
        expo = max(self.terms, key=_grlex_key)
        return expo, self.terms[expo]

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for expo in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[expo]
            factors = []
            for name, e in zip(self.vars, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                piece = str(coeff)
            elif coeff == 1:
                piece = body
            elif coeff == -1:
                piece = f"-{body}"
            else:
                piece = f"{coeff}*{body}"
            pieces.append(piece)
        out = pieces[0]
        for piece in pieces[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self):
        return f"PolyScalar({self})"


def poly_divmod(num: PolyScalar, den: PolyScalar):
    """Multivariate division by graded-lex leading terms.

    Returns (quotient, remainder) with num = quotient*den + remainder; the
    remainder is zero exactly when den divides num.
    """
    if den.is_zero():
        raise DomainError("division by the zero polynomial")
    quotient = PolyScalar.zero(num.vars)
    remainder = num
    lead_e, lead_c = den.leading_term()
    while not remainder.is_zero():
        r_e, r_c = remainder.leading_term()
        diff = tuple(a - b for a, b in zip(r_e, lead_e))
        if any(d < 0 for d in diff):
            break
        mono = PolyScalar(num.vars, {diff: r_c / lead_c})
        quotient = quotient + mono
        remainder = remainder - mono * den
    return quotient, remainder


def _degree_in(p: PolyScalar, index) -> int:
    return max((e[index] for e in p.terms), default=0)


def _leading_in(p: PolyScalar, index):
    """(leading coefficient wrt one variable, its degree)."""
    d = _degree_in(p, index)
    terms = {}
    for expo, coeff in p.terms.items():
        if expo[index] == d:
            reduced = list(expo)
            reduced[index] = 0
            terms[tuple(reduced)] = coeff
    return PolyScalar(p.vars, terms), d


def _shift_in(p: PolyScalar, index, power):
    terms = {}
    for expo, coeff in p.terms.items():
        e = list(expo)
        e[index] += power
        terms[tuple(e)] = coeff
    return PolyScalar(p.vars, terms)


def _content_in(p: PolyScalar, index):
    """gcd of the coefficient polynomials wrt one variable."""
    slices = {}
    for expo, coeff in p.terms.items():
        reduced = list(expo)
        k = reduced[index]
        reduced[index] = 0
        slices.setdefault(k, {})[tuple(reduced)] = coeff
    content = PolyScalar.zero(p.vars)
    for terms in slices.values():
        content = poly_gcd(content, PolyScalar(p.vars, terms))
        if content.is_constant() and not content.is_zero():
            return PolyScalar.const(p.vars, 1)
    return content


def _monic_grlex(p: PolyScalar):
    lead = p.leading_term()
    if lead is None or lead[1] == 1:
        return p
    return PolyScalar(p.vars, {e: c / lead[1] for e, c in p.terms.items()})


def poly_gcd(a: PolyScalar, b: PolyScalar) -> PolyScalar:
    """Multivariate gcd over the rationals (primitive pseudo-remainder
    sequence), normalized to graded-lex-monic.  Adequate for the small
    polynomials this library produces; keeps rational functions reduced."""
    if a.is_zero():
        return _monic_grlex(b)
    if b.is_zero():
        return _monic_grlex(a)
    if a.is_constant() or b.is_constant():
        return PolyScalar.const(a.vars, 1)
    main = max(
        i
        for i in range(len(a.vars))
        if _degree_in(a, i) > 0 or _degree_in(b, i) > 0
    )
    da, db = _degree_in(a, main), _degree_in(b, main)
    if da == 0:
        return poly_gcd(a, _content_in(b, main))
    if db == 0:
        return poly_gcd(_content_in(a, main), b)
    ca, cb = _content_in(a, main), _content_in(b, main)
    A, _ = poly_divmod(a, ca)
    B, _ = poly_divmod(b, cb)
    while not B.is_zero():
        R = _pseudo_rem(A, B, main)
        if not R.is_zero():
            content = _content_in(R, main)
            if not content.is_constant():
                R, _ = poly_divmod(R, content)
        A, B = B, R
    if _degree_in(A, main) == 0:
        return poly_gcd(ca, cb)
    return _monic_grlex(poly_gcd(ca, cb) * A)


def _pseudo_rem(a: PolyScalar, b: PolyScalar, main):
    lc_b, db = _leading_in(b, main)
    r = a
    while True:
        dr = _degree_in(r, main)
        if r.is_zero() or dr < db:
            return r
        lc_r, _ = _leading_in(r, main)
        r = lc_b * r - _shift_in(lc_r, main, dr - db) * b


def ratio(num: PolyScalar, den: PolyScalar):
    """num/den, cancelled by their gcd; a PolyScalar when division is exact."""
    if den.is_zero():
        raise DomainError("division by the zero polynomial")
    if num.is_zero():
        return PolyScalar.zero(num.vars)
    if den.is_constant():
        c = den.constant_value()
        return PolyScalar(num.vars, {e: k / c for e, k in num.terms.items()})
    q, r = poly_divmod(num, den)
    if r.is_zero():
        return q
    g = poly_gcd(num, den)
    if not g.is_constant():
        num, _ = poly_divmod(num, g)
        den, _ = poly_divmod(den, g)
        if den.is_constant():
            return ratio(num, den)
    return RationalScalar(num, den)


class RationalScalar:
    """An exact quotient of two polynomials on a common chart.

    Produced automatically when a polynomial division is not exact (metric
    inverses, modular cocycles).  Equality and zero-testing go through
    cross-multiplication, so no gcd computation is required for correctness;
    exact divisions are cancelled when they happen to exist.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyScalar, den: PolyScalar):
        if den.is_zero():
            raise DomainError("division by the zero polynomial")
        # canonical: graded-lex-monic denominator
        lead = den.leading_term()[1]
        if lead != 1:
            num = PolyScalar(num.vars, {e: c / lead for e, c in num.terms.items()})
            den = PolyScalar(den.vars, {e: c / lead for e, c in den.terms.items()})
        self.num = num
        self.den = den

    @property
    def vars(self):
        return self.num.vars

    def _split(self, other):
        if isinstance(other, RationalScalar):
            if other.vars != self.vars:
                raise AlgindexError("scalars live on different charts")
            return other.num, other.den
        if isinstance(other, PolyScalar):
            if other.vars != self.vars:
                raise AlgindexError("scalars live on different charts")
            return other, PolyScalar.const(self.vars, 1)
        if isinstance(other, (int, Fraction)):
            return (
                PolyScalar.const(self.vars, other),
                PolyScalar.const(self.vars, 1),
            )
        return None

    def __add__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, d = parts
        return ratio(self.num * d + n * self.den, self.den * d)

    __radd__ = __add__

    def __neg__(self):
        return RationalScalar(-self.num, self.den)

    def __sub__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, d = parts
        return ratio(self.num * d - n * self.den, self.den * d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, d = parts
        return ratio(self.num * n, self.den * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, d = parts
        if n.is_zero():
            raise DomainError("division by zero")
        return ratio(self.num * d, self.den * n)

    def __rtruediv__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, d = parts
        return ratio(n * self.den, d * self.num)

    def __pow__(self, power):
        if not isinstance(power, int):
            raise AlgindexError("powers must be integers")
        if power < 0:
            return RationalScalar(self.den, self.num) ** (-power)
        return ratio(self.num**power, self.den**power)

    def __eq__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, d = parts
        return (self.num * d - n * self.den).is_zero()

    __hash__ = None

    def derive(self, index):
        # (p/q)' = (p'q - pq')/q^2
        return ratio(
            self.num.derive(index) * self.den - self.num * self.den.derive(index),
            self.den * self.den,
        )

    def eval(self, point) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise DomainError(f"pole of {self} at {tuple(point)}")
        return self.num.eval(point) / d

    def eval_float(self, point) -> float:
        """Float evaluation with an exact fallback for huge intermediates
        (unreduced quotients overflow floats long before their ratio does)."""
        return self.compile_float()(point)

    def compile_float(self):
        """A ``point -> float`` evaluator over the compiled numerator and
        denominator, with the exact fallback of ``eval_float``, which is one
        call of it; a pole raises :class:`DomainError`."""
        num, den, exact = self.num.compile_float(), self.den.compile_float(), self.eval

        def evaluate(point):
            try:
                n = num(point)
                d = den(point)
                if d != 0.0 and math.isfinite(n) and math.isfinite(d):
                    out = n / d
                    if math.isfinite(out):
                        return out
            except ArithmeticError:  # num or den beyond float range, as floats or exactly
                pass
            return _exact_float(exact, point)

        return evaluate

    def substitute(self, replacements):
        return self.num.substitute(replacements) / self.den.substitute(replacements)

    def extend_vars(self, variables):
        return ratio(self.num.extend_vars(variables), self.den.extend_vars(variables))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        if self.num.is_zero():
            return True
        if self.num.is_constant() and self.den.is_constant():
            return True
        q, r = poly_divmod(self.num, self.den)
        return r.is_zero() and q.is_constant()

    def constant_value(self) -> Fraction:
        if self.num.is_zero():
            return Fraction(0)
        if self.num.is_constant() and self.den.is_constant():
            return self.num.constant_value() / self.den.constant_value()
        q, r = poly_divmod(self.num, self.den)
        if not r.is_zero():
            raise AlgindexError(f"{self} is not constant")
        return q.constant_value()

    def total_degree(self) -> int:
        return max(self.num.total_degree(), self.den.total_degree())

    def depends_on(self, index) -> bool:
        return self.num.depends_on(index) or self.den.depends_on(index)

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalScalar({self})"


# ---------------------------------------------------------------------------
# numeric expression trees
# ---------------------------------------------------------------------------

# kind -> (printed symbol, float operator); the function kinds are _FUNCTIONS
_BINARY = {"add": ("+", operator.add), "sub": ("-", operator.sub),
           "mul": ("*", operator.mul), "div": ("/", operator.truediv)}
_FUNCTIONS = ("exp", "sqrt", "sin", "cos")

# the sampled zero test: points drawn from a fixed seed in [-0.9, 0.9]^n
_ZERO_SEED = 20210
_ZERO_SAMPLES = 20
_ZERO_TOL = 1e-10


def _eval(node, point) -> float:
    """The float value of a node; raises DomainError off the domain (and
    OverflowError beyond float range, which ``NumericExpr.eval`` converts)."""
    kind = node[0]
    if kind == "const":
        return float(node[1])
    if kind == "coord":
        return point[node[1]]
    if kind == "pow":
        base = _eval(node[1], point)
        if node[2] < 0 and base == 0.0:
            raise DomainError("zero raised to a negative power")
        return base ** node[2]
    a = _eval(node[1], point)
    if kind in _BINARY:
        b = _eval(node[2], point)
        if kind == "div" and b == 0.0:
            raise DomainError(f"division by zero at {point}")
        out = _BINARY[kind][1](a, b)
    else:
        if kind == "sqrt" and a < 0.0:
            raise DomainError(f"sqrt of negative value at {point}")
        out = getattr(math, kind)(a)
    if not math.isfinite(out):
        raise DomainError(f"non-finite value at {point}")
    return out


class NumericExpr:
    """An evaluable expression tree over chart coordinates.

    Supports +, -, *, /, integer powers, exp, sqrt, sin, cos.  ``node`` is a
    plain tuple in the format of the module docstring (a ``const`` holds a
    Fraction or a float); only this root carries the chart's ``vars``.
    Evaluation returns a finite float or raises :class:`DomainError`;
    ``derive`` does symbolic differentiation on the tree.
    """

    __slots__ = ("vars", "node")

    def __init__(self, variables, node):
        self.vars = tuple(variables)
        self.node = node

    @classmethod
    def const(cls, variables, value):
        if isinstance(value, float):
            return cls(variables, ("const", value))
        return cls(variables, ("const", as_fraction(value)))

    @classmethod
    def coordinate(cls, variables, index):
        variables = tuple(variables)
        if not 0 <= index < len(variables):
            raise IndexError(f"coordinate index {index} out of range")
        return cls(variables, ("coord", index))

    @classmethod
    def zero(cls, variables):
        return cls.const(variables, 0)

    def _wrap(self, node):
        return NumericExpr(self.vars, node)

    def _coerce(self, other):
        if isinstance(other, NumericExpr):
            if other.vars != self.vars:
                raise AlgindexError("expressions live on different charts")
            return other
        if isinstance(other, (int, Fraction, float)):
            return NumericExpr.const(self.vars, other)
        if isinstance(other, PolyScalar):
            return from_poly(other)
        return None

    def _binary(self, op, other, reflected=False):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = (other, self) if reflected else (self, other)
        ca = a.node[1] if a.node[0] == "const" else None
        cb = b.node[1] if b.node[0] == "const" else None
        exact = isinstance(ca, Fraction) and isinstance(cb, Fraction)
        if exact and not (op == "div" and cb == 0):
            return NumericExpr.const(self.vars, _BINARY[op][1](ca, cb))
        # light simplification keeps derivative trees readable
        if op == "add":
            if ca == 0:
                return b
            if cb == 0:
                return a
        if op == "sub" and cb == 0:
            return a
        if op == "mul":
            if ca == 0 or cb == 0:
                return NumericExpr.zero(self.vars)
            if ca == 1:
                return b
            if cb == 1:
                return a
        if op == "div" and cb == 1:
            return a
        return self._wrap((op, a.node, b.node))

    def __add__(self, other):
        return self._binary("add", other)

    def __radd__(self, other):
        return self._binary("add", other, reflected=True)

    def __sub__(self, other):
        return self._binary("sub", other)

    def __rsub__(self, other):
        return self._binary("sub", other, reflected=True)

    def __mul__(self, other):
        return self._binary("mul", other)

    def __rmul__(self, other):
        return self._binary("mul", other, reflected=True)

    def __truediv__(self, other):
        return self._binary("div", other)

    def __rtruediv__(self, other):
        return self._binary("div", other, reflected=True)

    def __neg__(self):
        return NumericExpr.const(self.vars, -1) * self

    def __pow__(self, power):
        if not isinstance(power, int):
            raise AlgindexError("expression powers must be integers")
        if power == 0:
            return NumericExpr.const(self.vars, 1)
        return self._wrap(("pow", self.node, power))

    def exp(self):
        return self._wrap(("exp", self.node))

    def sqrt(self):
        return self._wrap(("sqrt", self.node))

    def sin(self):
        return self._wrap(("sin", self.node))

    def cos(self):
        return self._wrap(("cos", self.node))

    def eval(self, point) -> float:
        if len(point) != len(self.vars):
            raise AlgindexError("point dimension does not match variable count")
        try:
            return _eval(self.node, tuple(float(p) for p in point))
        except OverflowError:
            raise DomainError(f"value beyond float range at {tuple(point)}") from None

    eval_float = eval

    def compile_float(self):
        """``point -> float``: the evaluator itself, already float throughout."""
        return self.eval

    def derive(self, index):
        node = self.node
        kind = node[0]
        if kind == "const":
            return NumericExpr.zero(self.vars)
        if kind == "coord":
            return NumericExpr.const(self.vars, 1 if node[1] == index else 0)
        a = self._wrap(node[1])
        if kind == "pow":
            p = node[2]
            return NumericExpr.const(self.vars, p) * a ** (p - 1) * a.derive(index)
        if kind in ("add", "sub"):
            return _BINARY[kind][1](a.derive(index), self._wrap(node[2]).derive(index))
        if kind == "mul":
            b = self._wrap(node[2])
            return a.derive(index) * b + a * b.derive(index)
        if kind == "div":
            b = self._wrap(node[2])
            return (a.derive(index) * b - a * b.derive(index)) / (b * b)
        if kind == "exp":
            return self * a.derive(index)
        if kind == "sqrt":
            half = NumericExpr.const(self.vars, Fraction(1, 2))
            return half / self * a.derive(index)
        if kind == "sin":
            return a.cos() * a.derive(index)
        return -(a.sin()) * a.derive(index)  # cos

    def substitute(self, replacements):
        def walk(node):
            kind = node[0]
            if kind == "const":
                return replacements[0] * 0 + node[1] if replacements else self._wrap(node)
            if kind == "coord":
                return replacements[node[1]]
            if kind == "pow":
                return walk(node[1]) ** node[2]
            if kind in _BINARY:
                return _BINARY[kind][1](walk(node[1]), walk(node[2]))
            return getattr(walk(node[1]), kind)()

        return walk(self.node)

    def is_zero(self) -> bool:
        """Structural zero after folding, else sampled near the origin.

        Numeric zero-testing is heuristic by nature; exact backends should be
        used wherever an identity needs to be certified.  A sample point off
        the domain or beyond float range is skipped.
        """
        if self.node == ("const", 0):
            return True
        rng = random.Random(_ZERO_SEED)
        hits = 0
        for _ in range(_ZERO_SAMPLES):
            point = [rng.uniform(-0.9, 0.9) for _ in self.vars]
            try:
                if abs(self.eval(point)) > _ZERO_TOL:
                    return False
                hits += 1
            except DomainError:
                continue
        return hits > 0 or not self.vars

    def is_constant(self) -> bool:
        return self.node[0] == "const"

    def constant_value(self):
        if self.node[0] != "const":
            raise AlgindexError("expression is not a literal constant")
        return self.node[1]

    def depends_on(self, index) -> bool:
        def walk(node):
            if node[0] == "const":
                return False
            if node[0] == "coord":
                return node[1] == index
            return any(walk(child) for child in node[1:] if isinstance(child, tuple))

        return walk(self.node)

    def extend_vars(self, variables):
        variables = tuple(variables)
        if variables[: len(self.vars)] != self.vars:
            raise AlgindexError("chart extension must keep leading coordinates")
        return NumericExpr(variables, self.node)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.node == ("const", as_fraction(other))
        if isinstance(other, NumericExpr):
            return (self - other).is_zero()
        return NotImplemented

    __hash__ = None

    def __str__(self):
        def walk(node):
            kind = node[0]
            if kind == "const":
                return str(node[1])
            if kind == "coord":
                return self.vars[node[1]]
            if kind == "pow":
                return f"({walk(node[1])})^{node[2]}"
            if kind in _BINARY:
                return f"({walk(node[1])} {_BINARY[kind][0]} {walk(node[2])})"
            return f"{kind}({walk(node[1])})"

        return walk(self.node)

    def __repr__(self):
        return f"NumericExpr({self})"


def from_poly(p: PolyScalar) -> NumericExpr:
    """Rebuild a polynomial as an expression tree on the same chart."""
    total = NumericExpr.zero(p.vars)
    for expo in sorted(p.terms, key=_grlex_key):
        term = NumericExpr.const(p.vars, p.terms[expo])
        for i, e in enumerate(expo):
            if e:
                term = term * NumericExpr.coordinate(p.vars, i) ** e
        total = total + term
    return total


# ---------------------------------------------------------------------------
# charts and the shared infix syntax
# ---------------------------------------------------------------------------


class Chart:
    """A named coordinate chart plus the scalar backend attached to it."""

    __slots__ = ("names", "backend")

    def __init__(self, names, backend="poly"):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise AlgindexError("duplicate coordinate names")
        if backend not in ("poly", "numeric"):
            raise AlgindexError(f"unknown backend {backend!r}")
        self.names = names
        self.backend = backend

    @property
    def dim(self):
        return len(self.names)

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)

    def const(self, value):
        if self.backend == "poly":
            return PolyScalar.const(self.names, value)
        return NumericExpr.const(self.names, value)

    def coord(self, index):
        if self.backend == "poly":
            return PolyScalar.coordinate(self.names, index)
        return NumericExpr.coordinate(self.names, index)

    def parse(self, text):
        return parse_scalar(text, self)

    def coerce(self, value):
        """Accept scalars, exact numbers, or source strings."""
        if isinstance(value, (PolyScalar, RationalScalar, NumericExpr)):
            if value.vars != self.names:
                raise AlgindexError("scalar lives on a different chart")
            return value
        if isinstance(value, (int, Fraction)):
            return self.const(value)
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, float) and self.backend == "numeric":
            return self.const(value)
        raise TypeError(f"cannot coerce {value!r} onto chart {self.names}")

    def extended(self, extra_names):
        return Chart(self.names + tuple(extra_names), self.backend)

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.names == other.names
            and self.backend == other.backend
        )

    __hash__ = None

    def __repr__(self):
        return f"Chart({self.names}, backend={self.backend!r})"


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch.isdigit() or ch == ".":
            j = self.pos
            while j < len(self.text) and (self.text[j].isdigit() or self.text[j] == "."):
                j += 1
            return self.text[self.pos : j]
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return self.text[self.pos : j]
        return ch

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos += len(tok)
        return tok


def parse_scalar(text, chart: Chart):
    """Parse conventional infix syntax ("3/2*x^2*y - 1") onto a chart.

    The poly backend accepts +, -, *, / and ^ with integer literals; the
    numeric backend additionally accepts float literals and exp/sqrt/sin/cos.
    """
    tokens = _Tokens(str(text))

    def fail(message):
        raise AlgindexError(f"scalar syntax error at position {tokens.pos}: {message}")

    def parse_sum():
        value = parse_product()
        while True:
            tok = tokens.peek()
            if tok == "+":
                tokens.take()
                value = value + parse_product()
            elif tok == "-":
                tokens.take()
                value = value - parse_product()
            else:
                return value

    def parse_product():
        value = parse_factor()
        while True:
            tok = tokens.peek()
            if tok == "*":
                tokens.take()
                value = value * parse_factor()
            elif tok == "/":
                tokens.take()
                value = value / parse_factor()
            else:
                return value

    def parse_factor():
        tok = tokens.peek()
        if tok == "-":
            tokens.take()
            return -parse_factor()
        if tok == "+":
            tokens.take()
            return parse_factor()
        return parse_power()

    def parse_power():
        base = parse_atom()
        if tokens.peek() == "^":
            tokens.take()
            sign = 1
            if tokens.peek() == "-":
                tokens.take()
                sign = -1
            tok = tokens.take()
            if tok is None or not tok.isdigit():
                fail("expected integer exponent after '^'")
            return base ** (sign * int(tok))
        return base

    def parse_atom():
        tok = tokens.take()
        if tok is None:
            fail("unexpected end of input")
        if tok == "(":
            value = parse_sum()
            if tokens.take() != ")":
                fail("expected ')'")
            return value
        if tok[0].isdigit() or tok[0] == ".":
            if "." in tok:
                if chart.backend != "numeric":
                    fail("float literals need the numeric backend")
                return chart.const(float(tok))
            return chart.const(int(tok))
        if tok in _FUNCTIONS:
            if chart.backend != "numeric":
                fail(f"{tok}() needs the numeric backend")
            if tokens.take() != "(":
                fail(f"expected '(' after {tok}")
            value = parse_sum()
            if tokens.take() != ")":
                fail("expected ')'")
            return getattr(value, tok)()
        if tok in chart.names:
            return chart.coord(chart.names.index(tok))
        fail(f"unknown name {tok!r}")

    value = parse_sum()
    if tokens.peek() is not None:
        fail(f"trailing input {tokens.peek()!r}")
    return value


def scalar_to_string(value) -> str:
    """Canonical infix serialization used by the job-document format."""
    return str(value)
