"""Exact and numeric scalar backends over a named coordinate chart.

Two families of scalars share one arithmetic interface:

* :class:`PolyScalar` -- multivariate polynomials with exact rational
  coefficients, each stored as one rational content times a primitive
  integer polynomial, so arithmetic runs on ints.  All identity checking in
  the library runs on these (or on their quotients, :class:`RationalScalar`),
  so equality-to-zero is decidable and exact.  A quotient keeps its
  denominator as a product of the factors that entered through division
  and cancels by trial division (:func:`poly_quotient`: a test at one integer
  point, then leading terms taken from a heap); :func:`poly_gcd` runs only
  when a quotient leaves arithmetic (printing, ``compile_panel``,
  ``num``/``den``), once per distinct factor, to find a divisor that a
  reducible factor shares with the numerator.  It keeps its name because
  the benchmark's span recorder wraps it by name.
* :class:`NumericExpr` -- an evaluable expression tree (exp, sqrt, sin, cos,
  division) used only where a chart integrand is not polynomial.  Its nodes
  are plain nested tuples -- ``("const", v)``, ``("coord", i)``,
  ``("pow", child, p)``, ``(op, a, b)`` for an op of ``_BINARY`` and
  ``(fn, a)`` for a function of ``_FUNCTIONS`` -- and only the root carries
  the chart; its zero test, and so its equality, is sampled.

Scalars are immutable after construction, so values share term dicts: an
operation may return an operand (x + 0) or reuse its dict (-x, 2 * x).
Polynomial arithmetic, division and ``PolyScalar.const`` build canonical
integer terms themselves and skip the checks of the constructor from
Fraction terms.
Monomials are printed graded-lex descending.

``compile_panel`` generates and compiles one Python program per integrand,
the panel program ``(rows, panel)`` (:func:`_program`), the only compiled
evaluator.  ``rows[i]`` builds axis i's row from one span's nodes, their
multipliers (a Jacobian) and weights, once per span of an integral;
``panel`` walks the product of one row per axis and returns the panel's
Kronrod and Gauss sums, each value times its multipliers and weights.

For an exact scalar, a row holds the powers of its node, each by the same
``**`` call a per-term loop would make, and each term's product through
its first axis; the panel multiplies it through each later axis once per
node of that axis.  A term is its float coefficient times its powers in
coordinate order, multiplied left to right, and the terms are added in
print order.  So the float bits depend only on the value and the point.  A
coordinate or power beyond float range enters as inf, so only the sums that
use it fail.  A polynomial is its float sum where that sum is finite and
lost at most eight digits to cancellation, else its exact value, decided by
one bound per group of terms (exact, as rounding is monotone).  A quotient
follows one rule: each part is its float sum where that part's own check
passes, else its exact value; the value is their ratio where the
denominator is nonzero and the ratio finite; otherwise, or where a part's
exact value is beyond float range, it is the exact quotient, and at a pole
that raises :class:`DomainError`.  Coefficients are bound as floats in the
program's namespace, never written into its source.

For a :class:`NumericExpr`, the same panel walk runs straight-line code
(:func:`_straight_line`): one statement per distinct node, hash-consed when
the program is emitted, each the float operation ``_eval`` performs, so
every value keeps its bits.  Where ``_eval`` would raise (an
``ArithmeticError`` or ``ValueError``, or a binary or function result that
is not finite), the point is evaluated by ``eval``, which raises its own
error.  ``eval`` is the point evaluator of every backend.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from fractions import Fraction


class AlgindexError(ValueError):
    """Base of every error the library raises for a failed computation."""


class DomainError(AlgindexError, ArithmeticError):
    """Evaluation left the declared domain (pole, sqrt of a negative, ...)."""


# linalg takes AlgindexError from this module, so it is imported once that exists
from . import linalg  # noqa: E402


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
        if not math.isfinite(value):
            raise DomainError(f"{value} is not a finite rational")
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


def _lead(ints):
    """The graded-lex leading exponent of a nonempty dict of terms."""
    return max(ints, key=_grlex_key)


_ZERO, _ONE = Fraction(0), Fraction(1)


class PolyScalar:
    """A multivariate polynomial with exact rational coefficients, stored as
    one rational content times a primitive integer polynomial (Geddes, Czapor
    & Labahn, *Algorithms for Computer Algebra*, 1992, ch. 2).

    ``ints`` maps exponent tuples (one entry per chart coordinate) to nonzero
    ints whose gcd is 1 and whose graded-lex leading value is positive;
    ``content`` is the Fraction that carries the rest, sign included.  The
    form is canonical: equal polynomials have equal ``content`` and ``ints``.
    The zero polynomial has no ints and content 0.  Arithmetic runs on the
    ints and builds one Fraction per result.  :meth:`fraction_terms` builds
    the Fraction coefficients ``content * n`` in stored order on each call.
    """

    __slots__ = ("vars", "ints", "content")

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
                clean[expo] = clean.get(expo, _ZERO) + coeff
                if clean[expo] == 0:
                    del clean[expo]
        den = math.lcm(*(c.denominator for c in clean.values()))
        p = _make(variables, {e: c.numerator * (den // c.denominator) for e, c in clean.items()},
                  1, den)
        self.vars, self.ints, self.content = variables, p.ints, p.content

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return _poly(tuple(variables), {}, _ZERO)

    @classmethod
    def const(cls, variables, value):
        value, variables = as_fraction(value), tuple(variables)
        return _poly(variables, {(0,) * len(variables): 1} if value else {}, value)

    @classmethod
    def coordinate(cls, variables, index):
        variables = tuple(variables)
        if not 0 <= index < len(variables):
            raise IndexError(f"coordinate index {index} out of range")
        expo = tuple(1 if i == index else 0 for i in range(len(variables)))
        return _poly(variables, {expo: 1}, _ONE)

    def fraction_terms(self):
        """{exponent: Fraction coefficient} in stored order, a new dict each call."""
        c = self.content
        return {e: c * n for e, n in self.ints.items()}

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
        if not other.ints:
            return self
        if not self.ints:
            return other
        # c1*A + c2*B = g/den * (m1*A + m2*B), the m the rest of each content
        c1, c2 = self.content, other.content
        g, den = math.gcd(c1.numerator, c2.numerator), math.lcm(c1.denominator, c2.denominator)
        m1 = c1.numerator // g * (den // c1.denominator)
        m2 = c2.numerator // g * (den // c2.denominator)
        ints = dict(self.ints) if m1 == 1 else {e: m1 * n for e, n in self.ints.items()}
        for expo, n in other.ints.items():
            n *= m2
            if expo in ints:
                n += ints[expo]
                if not n:
                    del ints[expo]
                    continue
            ints[expo] = n
        return _make(self.vars, ints, g, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, self.ints, -self.content)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product; by Gauss's lemma the product of the integer parts is
        primitive, and its leading value is the product of theirs."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return self if not a else other
        content = self.content * other.content
        if len(b) == 1 and not any(next(iter(b))):
            return _poly(self.vars, a, content)
        if len(a) == 1 and not any(next(iter(a))):
            return _poly(self.vars, b, content)
        size = len(a) * len(b)
        if size > linalg.MAX_ENTRIES:
            linalg.check_size(size, f"a product of a {len(a)}-term and a {len(b)}-term polynomial")
        ints = {}
        for e1, n1 in a.items():
            for e2, n2 in b.items():
                expo = tuple(map(operator.add, e1, e2))
                ints[expo] = ints[expo] + n1 * n2 if expo in ints else n1 * n2
        return _poly(self.vars, {e: n for e, n in ints.items() if n}, content)

    __rmul__ = __mul__

    def __pow__(self, power):
        if not isinstance(power, int) or power < 0:
            raise AlgindexError("polynomial powers must be nonnegative integers")
        result = PolyScalar.const(self.vars, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            if q == 0:
                raise DomainError("division by zero")
            return self * (1 / q)
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
        return (self.vars == other.vars and self.content == other.content
                and self.ints == other.ints)

    __hash__ = None

    # -- calculus and evaluation -------------------------------------------

    def derive(self, index):
        """Exact partial derivative with respect to coordinate ``index``."""
        if not 0 <= index < len(self.vars):
            raise IndexError(f"coordinate index {index} out of range")
        ints = {}
        for expo, n in self.ints.items():
            k = expo[index]
            if k == 0:
                continue
            new = list(expo)
            new[index] = k - 1
            ints[tuple(new)] = n * k
        return _make(self.vars, ints, self.content.numerator, self.content.denominator)

    def eval(self, point) -> Fraction:
        """Exact evaluation; ``point`` entries may be ints/Fractions/floats."""
        if len(point) != len(self.vars):
            raise AlgindexError("point dimension does not match variable count")
        # over the common denominator prod q_i^(deg_i) of the point's p_i/q_i
        values = [as_fraction(p) for p in point]
        degrees = [max((e[i] for e in self.ints), default=0) for i in range(len(values))]
        total = 0
        for expo, n in self.ints.items():
            for v, e, d in zip(values, expo, degrees):
                if d:
                    n *= v.numerator**e * v.denominator ** (d - e)
            total += n
        den = math.prod(v.denominator**d for v, d in zip(values, degrees))
        return Fraction(total * self.content.numerator, den * self.content.denominator)

    def compile_panel(self):
        """The panel program ``(rows, panel)`` (see :func:`_program`)."""
        return _float_program(self)

    def substitute(self, replacements):
        """Substitute a scalar for each coordinate (composition)."""
        if len(replacements) != len(self.vars):
            raise AlgindexError("need one replacement per coordinate")
        total = replacements[0] * 0 if replacements else PolyScalar.zero(self.vars)
        for expo, n in self.ints.items():
            term = n
            for repl, e in zip(replacements, expo):
                for _ in range(e):
                    term = repl * term
            total = total + term
        return total * self.content

    def extend_vars(self, variables, offset=0):
        """Reinterpret on a larger chart that holds this chart's coordinates
        at positions offset..: each exponent tuple is padded, no arithmetic."""
        before, after = _padding(self.vars, variables, offset)
        return _poly(tuple(variables), {before + e + after: n for e, n in self.ints.items()},
                     self.content)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return not self.ints or (len(self.ints) == 1 and not any(next(iter(self.ints))))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise AlgindexError(f"{self} is not constant")
        return self.content

    def depends_on(self, index) -> bool:
        return any(e[index] for e in self.ints)

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.ints:
            return "0"
        pieces = []
        for expo in sorted(self.ints, key=_grlex_key, reverse=True):
            coeff = self.content * self.ints[expo]
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


def _poly(variables, ints, content) -> PolyScalar:
    """The polynomial ``content * ints``, both already canonical, so
    ``PolyScalar.__init__``'s checks are skipped."""
    p = object.__new__(PolyScalar)
    p.vars, p.ints, p.content = variables, ints, content
    return p


def _make(variables, ints, num=1, den=1) -> PolyScalar:
    """The polynomial num/den * ints for a dict of nonzero ints under int
    exponent tuples of the chart's length: their gcd and the sign of the
    leading value move into the one Fraction it builds."""
    if not ints:
        return _poly(variables, ints, _ZERO)
    g = math.gcd(*ints.values())
    if ints[_lead(ints)] < 0:
        g = -g
    if g != 1:
        ints = {e: n // g for e, n in ints.items()}
    return _poly(variables, ints, Fraction(num * g, den))


def _scaled(p: PolyScalar, c: Fraction) -> PolyScalar:
    """p * c for a nonzero c."""
    return _poly(p.vars, p.ints, p.content * c)


def _monic_grlex(p: PolyScalar):
    if not p.ints:
        return p
    return _poly(p.vars, p.ints, Fraction(1, p.ints[_lead(p.ints)]))


def _heap_key(expo):  # least for the graded-lex greatest exponent
    return -sum(expo), tuple(map(operator.neg, expo)), expo


def _value_at(ints, point) -> int:
    return sum(n * math.prod(map(pow, point, expo)) for expo, n in ints.items())


def poly_quotient(num: PolyScalar, den: PolyScalar):
    """num / den when den divides num, else None.

    den's integer part is primitive, so by Gauss's lemma an exact quotient q
    is integral and num(a) = den(a) q(a) at a = (2, 3, ...): a den(a) != 0
    that does not divide num(a) refuses at once.  Else the integer parts are
    divided by graded-lex leading terms, popped from a heap of the remainder's
    exponents (Johnson, SIGSAM Bull. 8 (1974); Monagan & Pearce, CASC 2007),
    until one that den's does not divide.  The quotient is primitive with a
    positive leading value, its terms stored graded-lex descending, as found.
    """
    if den.is_zero():
        raise DomainError("division by the zero polynomial")
    point = tuple(range(2, len(num.vars) + 2))
    if (at := _value_at(den.ints, point)) and _value_at(num.ints, point) % at:
        return None
    lead_e = _lead(den.ints)
    lead_n = den.ints[lead_e]
    remainder, quotient = dict(num.ints), {}
    heap = sorted(map(_heap_key, remainder))  # a sorted list is a heap
    while heap:
        if (expo := heapq.heappop(heap)[2]) not in remainder:
            continue
        shift = tuple(map(operator.sub, expo, lead_e))
        q, r = divmod(remainder[expo], lead_n)
        if r or any(d < 0 for d in shift):
            return None
        quotient[shift] = q
        for e, c in den.ints.items():
            term = tuple(map(operator.add, shift, e))
            value = remainder.get(term, 0) - q * c
            if value:
                if term not in remainder:
                    heapq.heappush(heap, _heap_key(term))
                remainder[term] = value
            else:
                del remainder[term]
    return _poly(num.vars, quotient, num.content / den.content)


def _degree_in(p: PolyScalar, index) -> int:
    return max((e[index] for e in p.ints), default=0)


def _slices(p: PolyScalar, index):
    """{k: the integer terms of the coefficient of x_index^k in p}."""
    slices = {}
    for expo, n in p.ints.items():
        slices.setdefault(expo[index], {})[expo[:index] + (0,) + expo[index + 1:]] = n
    return slices


def _leading_in(p: PolyScalar, index):
    """The coefficient of the highest power of x_index in p."""
    ints = _slices(p, index)[_degree_in(p, index)]
    return _make(p.vars, ints, p.content.numerator, p.content.denominator)


def _content_in(p: PolyScalar, index):
    """gcd of the coefficient polynomials wrt one variable, 1 when that is constant."""
    content = PolyScalar.zero(p.vars)
    # the sparsest first: a constant gcd is found soonest
    for ints in sorted(_slices(p, index).values(), key=len):
        content = poly_gcd(content, _make(p.vars, ints))
        if content.is_constant():
            return PolyScalar.const(p.vars, 1)
    return content


def _image(p: PolyScalar, index, point):
    """The integer part of p with every coordinate but x_index set to the
    int of ``point`` at its place."""
    ints = {}
    for expo, n in p.ints.items():
        for i, (v, e) in enumerate(zip(point, expo)):
            if i != index:
                n *= v**e
        key = tuple(e if i == index else 0 for i, e in enumerate(expo))
        ints[key] = ints.get(key, 0) + n
    return _make(p.vars, {e: n for e, n in ints.items() if n})


def _coprime_by_images(a: PolyScalar, b: PolyScalar) -> bool:
    """Whether univariate images prove gcd(a, b) = 1 (Brown, JACM 18 (1971)).

    For a coordinate x both depend on, set the others to integers c that
    keep both degrees in x.  The gcd g of a and b keeps its degree in x too
    (its leading coefficient in x divides a's), and g(x, c) divides the
    gcd of the images; so a constant image gcd proves deg_x g = 0.  Proven
    for every such x, g is constant.  False means only "not proven": one
    point is tried, and an unlucky one leaves the question to the sequence."""
    point = range(2, len(a.vars) + 2)
    for index in range(len(a.vars)):
        if a.depends_on(index) and b.depends_on(index):
            fa, fb = _image(a, index, point), _image(b, index, point)
            if (_degree_in(fa, index) != _degree_in(a, index)
                    or _degree_in(fb, index) != _degree_in(b, index)
                    or not poly_gcd(fa, fb).is_constant()):
                return False
    return True


def poly_gcd(a: PolyScalar, b: PolyScalar) -> PolyScalar:
    """Multivariate gcd over the rationals, normalized to graded-lex-monic.

    Coprime inputs, the common case, are proven so by univariate images
    (:func:`_coprime_by_images`).  Otherwise the content of each input in
    its main variable (the gcd of its coefficients there, recursively) is
    split off, and the primitive parts go through the subresultant
    pseudo-remainder sequence (Collins, JACM 14 (1967); Brown, JACM 18
    (1971)): each pseudo-remainder is divided exactly by a factor known from
    the previous leading coefficients, which bounds coefficient growth
    without a gcd per step.  The last nonzero remainder made primitive in
    the main variable, times the gcd of the contents, is the gcd.  Constants
    do not change a gcd over the rationals, and the integer coefficients of
    the stored form make every division exact over the integers.

    Arithmetic never calls it: a :class:`RationalScalar` runs it once per
    distinct denominator factor when it leaves arithmetic, against that one
    factor only."""
    if a.is_zero():
        return _monic_grlex(b)
    if b.is_zero():
        return _monic_grlex(a)
    live = [i for i in range(len(a.vars)) if a.depends_on(i) or b.depends_on(i)]
    # images are univariate, so a univariate pair goes straight to the sequence
    if a.is_constant() or b.is_constant() or len(live) > 1 and _coprime_by_images(a, b):
        return PolyScalar.const(a.vars, 1)
    main = live[-1]
    if not a.depends_on(main):
        return poly_gcd(a, _content_in(b, main))
    if not b.depends_on(main):
        return poly_gcd(_content_in(a, main), b)
    ca, cb = _content_in(a, main), _content_in(b, main)
    content = poly_gcd(ca, cb)
    A, B = poly_quotient(a, ca), poly_quotient(b, cb)
    if _degree_in(A, main) < _degree_in(B, main):
        A, B = B, A
    g = h = PolyScalar.const(a.vars, 1)
    while True:
        delta = _degree_in(A, main) - _degree_in(B, main)
        R = _pseudo_rem(A, B, main)
        if R.is_zero():
            break
        if not R.depends_on(main):
            return content
        A, B = B, poly_quotient(R, g * h**delta)
        g = _leading_in(A, main)
        h = h if delta == 0 else poly_quotient(g**delta, h ** (delta - 1))
    return _monic_grlex(content * poly_quotient(B, _content_in(B, main)))


def _pseudo_rem(a: PolyScalar, b: PolyScalar, main):
    """lc(b)^(deg a - deg b + 1) * a reduced modulo b in x_main, lc(b) the
    leading coefficient of b in x_main."""
    db, lc_b, x = _degree_in(b, main), _leading_in(b, main), PolyScalar.coordinate(a.vars, main)
    r, k = a, _degree_in(a, main) - db + 1
    while not r.is_zero() and (dr := _degree_in(r, main)) >= db:
        r, k = lc_b * r - _leading_in(r, main) * x ** (dr - db) * b, k - 1
    return r * lc_b**k


# -- factor multisets: {key: (monic nonconstant factor, multiplicity)} ----------


def _factor(f, k=1):
    """The multiset of k copies of the monic polynomial f, keyed by its
    integer part (a monic f's content is 1 over its leading value)."""
    return {frozenset(f.ints.items()): (f, k)}


def _merged(a, b, rule):
    """Multiplicities combined by ``rule`` (add for products, max for the lcm)."""
    out = dict(a)
    for key, (f, k) in b.items():
        out[key] = (f, rule(out[key][1], k)) if key in out else (f, k)
    return out


def _without(a, b):
    """The factors of ``a`` that ``b`` lacks: multiplicities subtracted, down to 0."""
    out = {}
    for key, (f, k) in a.items():
        k -= b[key][1] if key in b else 0
        if k > 0:
            out[key] = (f, k)
    return out


def _times(p: PolyScalar, factors) -> PolyScalar:
    """p * prod f^k, multiplied out in the order of the multiset."""
    if p.is_zero():
        return p
    for f, k in factors.values():
        p = p * f**k
    return p


def _quotient(num: PolyScalar, factors):
    """num / prod f^k with every factor that divides num divided out.

    Each factor is trial-divided (:func:`poly_quotient`) as often as its
    multiplicity allows.  When every factor divides out the result is the
    polynomial quotient.
    """
    if num.is_zero():
        return PolyScalar.zero(num.vars)
    kept = {}
    for key, (f, k) in factors.items():
        while k:
            q = poly_quotient(num, f)
            if q is None:
                break
            num, k = q, k - 1
        if k:
            kept[key] = (f, k)
    return RationalScalar(num, kept) if kept else num


def _divide(n1: PolyScalar, f1, n2: PolyScalar, f2):
    """(n1 / prod f1) / (n2 / prod f2), for a nonzero n2.

    Factors the two share cancel by multiplicity, without expanding them;
    the rest of f2 multiplies n1 out, and n2 enters as one monic factor.
    """
    num = _times(n1, _without(f2, f1))
    factors = _without(f1, f2)
    if n2.is_constant():
        num = _scaled(num, 1 / n2.content)
    else:
        monic = _monic_grlex(n2)
        num = _scaled(num, monic.content / n2.content)
        factors = _merged(factors, _factor(monic), operator.add)
    return _quotient(num, factors)


def ratio(num: PolyScalar, den: PolyScalar):
    """num/den: a PolyScalar when den divides num, else a RationalScalar
    with den as its one factor."""
    if den.is_zero():
        raise DomainError("division by the zero polynomial")
    return _divide(num, {}, den, {})


class RationalScalar:
    """An exact quotient num / prod f^k of polynomials on a common chart.

    Produced when a polynomial division is not exact (metric inverses,
    modular cocycles).  The numerator ``_num`` is expanded; the denominator
    is the multiset ``factors``, ``{key: (f, k)}``, of the monic polynomials
    that entered through division (a RationalScalar divisor's numerator
    enters as one factor).  Products and quotients add multiplicities, sums
    take the lcm of the two multisets, and ``derive`` raises the
    multiplicity of each factor it differentiates.  After every operation
    the numerator is trial-divided by each factor, so a value whose factors
    all divide out is a :class:`PolyScalar`, and a RationalScalar is never
    constant.  Equality and zero tests cross-multiply.

    Trial division misses a divisor that a reducible factor (``x^2 - 1``)
    shares with the numerator.  So when a value leaves arithmetic --
    printing, ``compile_panel``, ``num``, ``den``, ``substitute``,
    ``depends_on`` -- it is reduced once, by one :func:`poly_gcd` of the
    numerator with each distinct factor, never with the whole denominator.
    ``num`` and ``den`` are then the reduced numerator and the expanded,
    graded-lex-monic denominator.
    """

    __slots__ = ("_num", "factors", "_lowest")

    def __init__(self, num: PolyScalar, factors):
        self._num = num
        self.factors = factors
        self._lowest = None

    @property
    def vars(self):
        return self._num.vars

    def _lowest_terms(self):
        """(numerator, factors) with each factor reduced by its gcd with the numerator."""
        if self._lowest is None:
            num, factors = self._num, {}
            for f, k in self.factors.values():
                while k:
                    g = poly_gcd(num, f)
                    if g.is_constant():
                        break
                    num = poly_quotient(num, g)
                    factors = _merged(factors, _factor(poly_quotient(f, g)), operator.add)
                    k -= 1
                if k:
                    factors = _merged(factors, _factor(f, k), operator.add)
            # the unreduced value shares its own factors, so the cache is one tuple
            self._lowest = (num, self.factors if num is self._num else factors)
        return self._lowest

    @property
    def num(self) -> PolyScalar:
        return self._lowest_terms()[0]

    @property
    def den(self) -> PolyScalar:
        return _times(PolyScalar.const(self.vars, 1), self._lowest_terms()[1])

    def _split(self, other):
        """(numerator, factors) of another exact scalar on this chart."""
        if isinstance(other, (int, Fraction)):
            return PolyScalar.const(self.vars, other), {}
        if not isinstance(other, (RationalScalar, PolyScalar)):
            return None
        if other.vars != self.vars:
            raise AlgindexError("scalars live on different charts")
        return (other, {}) if isinstance(other, PolyScalar) else (other._num, other.factors)

    def _scale(self, c: Fraction):
        if not c:
            return PolyScalar.zero(self.vars)
        return RationalScalar(_scaled(self._num, c), self.factors)

    def _add(self, n: PolyScalar, factors):
        if not factors and n.is_zero():
            return self  # no trial division: what is left of it never divides later
        lcm = _merged(self.factors, factors, max)
        num = _times(self._num, _without(lcm, self.factors)) + _times(n, _without(lcm, factors))
        return _quotient(num, lcm)

    def __add__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        return self._add(*parts)

    __radd__ = __add__

    def __neg__(self):
        return self._scale(Fraction(-1))

    def __sub__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, factors = parts
        return self._add(-n, factors)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, factors = parts
        if not factors and n.is_constant():
            return self._scale(n.constant_value())
        return _quotient(self._num * n, _merged(self.factors, factors, operator.add))

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, factors = parts
        if n.is_zero():
            raise DomainError("division by zero")
        if not factors and n.is_constant():
            return self._scale(1 / n.constant_value())
        return _divide(self._num, self.factors, n, factors)

    def __rtruediv__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        return _divide(*parts, self._num, self.factors)

    def __pow__(self, power):
        if not isinstance(power, int):
            raise AlgindexError("powers must be integers")
        if power < 0:
            return (1 / self) ** (-power)
        if power == 0:
            return PolyScalar.const(self.vars, 1)
        factors = {key: (f, k * power) for key, (f, k) in self.factors.items()}
        return _quotient(self._num**power, factors)

    def __eq__(self, other):
        parts = self._split(other)
        if parts is None:
            return NotImplemented
        n, factors = parts
        lcm = _merged(self.factors, factors, max)
        return (_times(self._num, _without(lcm, self.factors))
                == _times(n, _without(lcm, factors)))

    __hash__ = None

    def derive(self, index):
        # d(N / prod f^k) = (N' P - N sum_i k_i f_i' P / f_i) / (P prod f^k), where P is
        # the product of the factors f_i that depend on the coordinate
        moving = {key: (f, k, f.derive(index)) for key, (f, k) in self.factors.items()}
        moving = {key: entry for key, entry in moving.items() if not entry[2].is_zero()}
        num = self._num.derive(index)
        for f, _, _ in moving.values():
            num = num * f
        for key, (_, k, df) in moving.items():
            term = self._num * df * k
            for other, (g, _, _) in moving.items():
                if other != key:
                    term = term * g
            num = num - term
        raised = {key: (f, k + 1) for key, (f, k, _) in moving.items()}
        return _quotient(num, {**self.factors, **raised})

    def eval(self, point) -> Fraction:
        den = Fraction(1)
        for f, k in self.factors.values():
            den *= f.eval(point) ** k
        if den:
            return self._num.eval(point) / den
        den = self.den.eval(point)  # the pole may be removable
        if den == 0:
            raise DomainError(f"pole of {self} at {tuple(point)}")
        return self.num.eval(point) / den

    def compile_panel(self):
        """A panel program of the reduced numerator over the expanded
        denominator; a pole raises :class:`DomainError`."""
        return _float_program(self.num, self.den, self.eval)

    def substitute(self, replacements):
        num, factors = self._lowest_terms()
        value = num.substitute(replacements)
        for f, k in factors.values():
            g = f.substitute(replacements)
            for _ in range(k):
                value = value / g
        return value

    def extend_vars(self, variables, offset=0):
        factors = {}
        for f, k in self.factors.values():
            factors.update(_factor(f.extend_vars(variables, offset), k))
        return RationalScalar(self._num.extend_vars(variables, offset), factors)

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def is_constant(self) -> bool:
        return False  # a constant value would have divided out

    def constant_value(self) -> Fraction:
        raise AlgindexError(f"{self} is not constant")

    def depends_on(self, index) -> bool:
        num, factors = self._lowest_terms()
        return num.depends_on(index) or any(f.depends_on(index) for f, _ in factors.values())

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalScalar({self})"


# ---------------------------------------------------------------------------
# the panel program
# ---------------------------------------------------------------------------


def _sum_block(j, p: PolyScalar, namespace):
    """``(j, terms, trust, bounds)`` of the float sum ``t{j}`` of ``p``: the
    terms ``(c{j}_{k}, [(i, e), ...])`` in print order, coefficients bound
    in ``namespace`` (OverflowError beyond float range), the check ``trust``
    and the row fields it reads, name -> (axis, source).  A sum of one sign
    (one term, or coefficients of one sign on even exponents) tests only
    finiteness, ``t - t == 0.0``; else ``s{j} = |t|`` must reach 1e-8 times
    each group's largest |term|.  A group's terms start on axis i as ``p = c
    * x_i ** e`` and share their later powers ``y``: row i keeps
    ``lim{j}_{i} = 1e-8 * max|p|`` if ``y`` is 1 (the constant joins axis
    0's), else ``u{j}_{n} = max|p|`` for ``1e-8 * (u * |y|)``, odd powers as
    ``ax{a}_{e}``.  As rounding is monotone and symmetric in sign, these are
    exactly each group's rounded 1e-8 * max|term| where ``t`` is finite.
    """
    order = sorted(p.ints, key=_grlex_key, reverse=True)
    one_sign = len(order) < 2 or (len({p.ints[expo] > 0 for expo in order}) == 1
                                  and all(e % 2 == 0 for expo in order for e in expo))
    terms, coefficients, groups = [], p.fraction_terms(), {}
    for k, expo in enumerate(order):
        # the float of the exact coefficient, never float(content) * n
        namespace[f"c{j}_{k}"] = float(coefficients[expo])
        terms.append((f"c{j}_{k}", [(i, e) for i, e in enumerate(expo) if e]))
        (i, e), *later = terms[-1][1] or [(0, 0)]
        groups.setdefault((i, tuple(later)), []).append(f"p{j}_{k}_{i}, " if e else f"c{j}_{k}, ")
    checks, bounds = [f"t{j} - t{j} == 0.0"], {}
    for n, ((i, later), members) in enumerate([] if one_sign else groups.items()):
        name = f"u{j}_{n}" if later else f"lim{j}_{i}"
        bounds[name] = i, f"{'' if later else '1e-8 * '}max(map(abs, ({''.join(members)})))"
        bounds.update({f"ax{a}_{e}": (a, f"abs(x{a}_{e})") for a, e in later if e % 2})
        factors = "".join(f" * {'a' if e % 2 else ''}x{a}_{e}" for a, e in later)
        checks.append(f"s{j} >= 1e-8 * ({name}{factors})" if later else f"s{j} >= {name}")
    return j, terms, " and ".join(checks), bounds


def _powers(v, exps):
    """``float(v) ** e`` for each exponent; a value beyond float range is
    inf, so each sum with a term that uses it is not finite and fails its
    check, and the sums that do not use it keep theirs."""
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    out = []
    for e in exps:
        try:
            out.append(x ** e)
        except OverflowError:
            out.append(math.inf)
    return out


def _padding(names, variables, offset):
    """The zero exponents before and after ``names`` at offset.. of ``variables``."""
    after = len(variables) - offset - len(names)
    if offset < 0 or after < 0:
        raise AlgindexError("chart extension must hold every coordinate")
    return (0,) * offset, (0,) * after


def _point(n_vars):
    """The source of the point ``(v0, v1, ...)`` inside the panel program."""
    return "(" + "".join(f"v{i}, " for i in range(n_vars)) + ")"


def _program(n_vars, blocks, tail, value, namespace):
    """The panel program ``(rows, panel)``, compiled once.

    ``rows[i](axis)`` maps each node ``(v, m, k, g)`` of ``axis`` -- the
    node, its multiplier, its Kronrod and Gauss weights (None at a
    Kronrod-only node) -- to ``(v, x ** e, ..., p, ..., b, ..., m, k, g)``:
    the powers of v that later loops multiply by (:func:`_powers`), ``c * x
    ** e`` for each term whose first coordinate is axis i and the blocks'
    ``bounds`` b on axis i.  ``panel(rows)`` walks ``product(*rows)``: the
    loop over axis i multiplies each started term's product through axis i;
    the innermost loop adds the finished terms into ``t{j}`` in print order,
    32 to a statement, sets ``s{j} = |t{j}|`` if it has bounds, runs
    ``tail`` and takes ``value`` at the point.  It returns ``(kron, gauss)``:
    from 0.0, in product order, ``kron += k0 * k1 * y`` for ``y = value * m0
    * m1``, and ``gauss`` likewise at the points where no ``g`` is None.
    Reference counting frees both functions.
    """
    prefix, started, carried = {}, [{} for _ in range(n_vars)], [set() for _ in range(n_vars)]
    for j, terms, _, bounds in blocks:
        for k, (c, powers) in enumerate(terms):
            prefix[j, k] = c
            if powers:
                (i, e), *later = powers
                prefix[j, k] = f"p{j}_{k}_{i}"
                started[i][prefix[j, k]] = f"{c} * x{i}_{e}", e
                for axis, e in later:
                    carried[axis].add(e)
        for name, (i, source) in bounds.items():
            started[i][name] = source, None
    # the names each node of axis i carries between v and m, in row and loop
    fields = [[*(f"x{i}_{e}" for e in sorted(carried[i])), *started[i]] for i in range(n_vars)]
    lines = []
    for i in range(n_vars):
        exps = sorted(carried[i] | {e for _, e in started[i].values() if e})
        lines += [f"def row{i}(axis):", "    out = []", "    for v, m, k, g in axis:"]
        if exps:
            lines.append(f"        {''.join(f'x{i}_{e}, ' for e in exps)}= powers(v, {tuple(exps)})")
        lines += [f"        {name} = {source}" for name, (source, _) in started[i].items()]
        lines += [f"        out.append(({', '.join(['v', *fields[i], 'm', 'k', 'g'])}))",
                  "    return out"]
    lines += ["def panel(rows):", "    kron = gauss = 0.0"]
    indent = "    "
    for i in range(n_vars):
        targets = [f"v{i}", *fields[i], f"m{i}", f"k{i}", f"g{i}"]
        lines.append(f"{indent}for {', '.join(targets)} in rows[{i}]:")
        indent += "    "
        for j, terms, _, _ in blocks:
            for k, (_, powers) in enumerate(terms):
                for e in (e for axis, e in powers[1:] if axis == i):
                    prefix[j, k] = f"{prefix[j, k]} * x{i}_{e}"
                    if i < n_vars - 1:  # the last axis finishes each term inside its sum
                        lines.append(f"{indent}p{j}_{k}_{i} = {prefix[j, k]}")
                        prefix[j, k] = f"p{j}_{k}_{i}"
    body = []
    for j, terms, _, bounds in blocks:
        finished = [prefix[j, k] for k in range(len(terms))]
        body.append(f"t{j} = 0.0")
        body += [" + ".join([f"t{j} = t{j}", *finished[c:c + 32]])
                 for c in range(0, len(terms), 32)]
        if bounds:
            body.append(f"s{j} = t{j} if t{j} >= 0.0 else -t{j}")
    axes = range(n_vars)
    gauss = " and ".join(f"g{i} is not None" for i in reversed(axes)) or "True"
    lines += [f"{indent}{line}" for line in body + tail]
    lines += [f"{indent}y = ({value}){''.join(f' * m{i}' for i in axes)}",
              f"{indent}kron += {''.join(f'k{i} * ' for i in axes)}y",
              f"{indent}if {gauss}:",
              f"{indent}    gauss += {''.join(f'g{i} * ' for i in axes)}y",
              "    return kron, gauss", ""]
    namespace["powers"] = _powers
    exec(compile("\n".join(lines), "<panel program>", "exec"), namespace)
    # popped, so the namespace does not hold the functions that hold it
    return tuple(namespace.pop(f"row{i}") for i in axes), namespace.pop("panel")


def _float_program(num: PolyScalar, den: PolyScalar | None = None, exact=None):
    """The panel program of ``num``, or of ``num / den`` with exact value
    ``exact(point)``, by the rule of the module docstring; a polynomial with
    a coefficient beyond float range is always its exact value.  The source
    spells only generated names, integers and the constants 0.0 and 1e-8.
    """
    point = _point(len(num.vars))
    namespace = {"exact_float": _exact_float, "nan": math.nan, "exact": exact}
    blocks, values = [], []
    for j, p in enumerate([num] if den is None else [num, den]):
        namespace[f"exact{j}"] = p.eval
        values.append(f"exact_float(exact{j}, {point})")
        try:
            if p.is_constant():  # no sum and no check: 0.0 + c is c for a finite c
                namespace[f"c{j}_0"], values[j] = float(p.content), f"c{j}_0"
                continue
            blocks.append(_sum_block(j, p, namespace))
        except OverflowError:  # a coefficient beyond float range: always exact
            continue
        values[j] = f"t{j} if {blocks[-1][2]} else {values[j]}"
    if den is None:
        return _program(len(num.vars), blocks, [], values[0], namespace)
    # a zero denominator raises ZeroDivisionError, a part beyond float range DomainError
    tail = ["try:", f"    r = ({values[0]}) / ({values[1]})", "except ArithmeticError:",
            "    r = nan"]
    return _program(len(num.vars), blocks, tail,
                    f"r if r - r == 0.0 else exact_float(exact, {point})", namespace)


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


def _straight_line(n_vars, root, namespace):
    """The panel program's lines that set ``r`` to the value of the tree
    ``root`` at the point ``(v0, v1, ...)``, or to nan where the evaluator
    must run instead.

    There is one generated statement per distinct node, hash-consed at emit
    time on (kind, child names, parameter), so a subtree shared by value is
    computed once per point; a constant is bound once as a float in
    ``namespace``, keyed by its bits.  Each statement is the float operation
    ``_eval`` performs on the same operands, so every value has its bits.
    ``r`` is nan where ``_eval`` would raise: on ``ArithmeticError`` or
    ``ValueError`` (a zero divisor, a zero base to a negative power, a value
    beyond float range, sqrt of a negative, sin of inf), and where the sum
    ``s`` of the binary and function results is not finite (``s - s ==
    0.0`` is false), which it is whenever one of them is.  A tree with a
    constant beyond float range is always nan.
    """
    lines, checked = [], []
    names, consed = {}, {}  # id(node) -> name; (kind, child names, parameter) -> name

    def walk(node):
        if id(node) in names:
            return names[id(node)]
        kind = node[0]
        if kind == "coord":
            name = f"x{node[1]}"
        else:
            if kind == "const":
                value = float(node[1])
                key = (kind, value.hex())
            elif kind == "pow":
                key = (kind, walk(node[1]), node[2])
            else:
                key = (kind, *map(walk, node[1:]))
            name = consed.get(key)
            if name is None:
                name = consed[key] = f"u{len(consed)}"
                if kind == "const":
                    namespace[name] = value
                elif kind == "pow":
                    lines.append(f"{name} = {key[1]} ** {node[2]}")
                else:
                    checked.append(name)
                    if kind in _BINARY:
                        lines.append(f"{name} = {key[1]} {_BINARY[kind][0]} {key[2]}")
                    else:
                        lines.append(f"{name} = {kind}({key[1]})")
        names[id(node)] = name
        return name

    try:
        result = walk(root)
    except OverflowError:  # a constant beyond float range
        return ["r = nan"]
    body = [f"x{i} = float(v{i})" for i in range(n_vars)] + lines
    if checked:  # 32 terms to a statement, as in the polynomial sums
        body += ["s = 0.0", *(" + ".join(["s = s", *checked[c:c + 32]])
                              for c in range(0, len(checked), 32))]
        body.append(f"r = {result} if s - s == 0.0 else nan")
    else:
        body.append(f"r = {result}")
    return ["try:", *(f"    {line}" for line in body),
            "except (ArithmeticError, ValueError):", "    r = nan"]


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

    def compile_panel(self):
        """A panel program whose value at each point is this evaluator's,
        computed by :func:`_straight_line` where it is finite, else by ``eval``."""
        namespace = {"reference": self.eval, "nan": math.nan,
                     **{fn: getattr(math, fn) for fn in _FUNCTIONS}}
        tail = _straight_line(len(self.vars), self.node, namespace)
        value = f"r if r - r == 0.0 else reference({_point(len(self.vars))})"
        return _program(len(self.vars), [], tail, value, namespace)

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

    def extend_vars(self, variables, offset=0):
        """This tree on a larger chart, each coordinate index moved up by
        ``offset``; a subtree shared in this tree is shared in the new one."""
        _padding(self.vars, variables, offset)
        shifted = {}

        def walk(node):
            if not isinstance(node, tuple):  # a constant's value, an exponent
                return node
            if id(node) not in shifted:
                shifted[id(node)] = (("coord", node[1] + offset) if node[0] == "coord"
                                     else (node[0], *map(walk, node[1:])))
            return shifted[id(node)]

        return NumericExpr(variables, walk(self.node) if offset else self.node)

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

    def parse_sum(value=None):
        if value is None:
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

    def parse_product(value=None):
        if value is None:
            value = parse_factor()
        while True:
            tok = tokens.peek()
            if tok == "*":
                tokens.take()
                value = value * parse_factor()
            elif tok == "/" and chart.backend == "poly":
                tokens.take()
                divisor, groups = parse_divisor()
                if divisor.is_zero():
                    groups = [(divisor, 1)]  # fail as division by the whole divisor
                for group, power in groups:
                    for _ in range(power):
                        value = value / group
            elif tok == "/":
                tokens.take()
                value = value / parse_factor()
            else:
                return value

    def parse_divisor():
        """A poly-backend divisor as (value, [(group, power), ...]).

        A parenthesized product of factors is split into its factors, and a
        power of it into their powers, so that the caller divides by each in
        turn rather than by their product; any other divisor (a sum, a
        quotient, a name, a negative power) is one group. Each token is read
        once: a group found not to be a product resumes as a sum from the
        product of the factors read so far.
        """
        if tokens.peek() != "(":
            value = parse_factor()
            return value, [(value, 1)]
        tokens.take()
        value, groups = parse_divisor()
        while tokens.peek() == "*":
            tokens.take()
            factor, more = parse_divisor()
            value, groups = value * factor, groups + more
        if tokens.peek() != ")":
            value = parse_sum(parse_product(value))
            groups = [(value, 1)]
        if tokens.take() != ")":
            fail("expected ')'")
        if tokens.peek() == "^":
            power = parse_exponent()
            value = value ** power
            groups = [(g, p * power) for g, p in groups] if power >= 0 else [(value, 1)]
        return value, groups

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
            return base ** parse_exponent()
        return base

    def parse_exponent():
        tokens.take()  # '^'
        sign = 1
        if tokens.peek() == "-":
            tokens.take()
            sign = -1
        tok = tokens.take()
        if tok is None or not tok.isdecimal():
            fail("expected integer exponent after '^'")
        return sign * int(tok)

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
            # decimal digits with at most one '.'; str.isdigit also accepts '²'
            if not tok.replace(".", "", 1).isdecimal():
                fail(f"malformed number {tok!r}")
            if "." in tok:
                if chart.backend != "numeric":
                    fail("float literals need the numeric backend")
                if math.isinf(float(tok)):
                    fail("float literal beyond float range")
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

