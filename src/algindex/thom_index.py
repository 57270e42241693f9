"""Densities, twisted integration, the symplectic form on the dual pull-back,
the formal Thom-class calculus and the topological index evaluators.

The symplectic form is the Lie-Poisson one, -d of the Liouville form, for
every Lie algebroid: its structure functions may vary over the base.

Compact supports are modeled formally: the fiber generator Th is an
algebraic symbol of degree r with Th ^ Th = 0 and the integration rule
"integral of Th over the fiber = 1".  Characteristic forms arrive 2*pi-free
(see chern_weil); the single normalization 1/(2*pi)^k is applied here, at
integration time, to the value and its error estimate alike, and the
(sqrt(-1))^k part of the index prefactor is reported as metadata instead of
being folded into a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import quadrature
from .algebroid import AlgebroidPresentation, PresentationError, pullback
from .chern_weil import (
    GConnection,
    Metric,
    char_class,
    curvature,
    levi_civita,
    pfaffian_form,
)
from .forms import AlgForm, d_g
from .scalars import (
    AlgindexError,
    DomainError,
    NumericExpr,
    PolyScalar,
    RationalScalar,
    as_fraction,
)


class NonInvariantDensityError(AlgindexError):
    """The chosen density violates the integration lemma's hypothesis."""


class UnresolvedEulerDivisionError(AlgindexError):
    """No closed-form roots identity resolves the requested Euler division."""


@dataclass
class Density:
    """A transversal density: coefficient of (e_1^..^e_r) (x) (dx^1^..^dx^n).

    ``quadratures`` holds each quadrature integral ``integrate`` has computed
    against this density, as (key, raw value, error estimate), so an equal
    integral is computed once (see :func:`_quadrature_key`).
    """

    algebroid: AlgebroidPresentation
    coefficient: object = 1

    def __post_init__(self):
        self.coefficient = self.algebroid.scalar(self.coefficient)
        if self.coefficient.is_zero():
            raise AlgindexError("density must be nonvanishing")
        self.quadratures = []


def modular_cocycle(A: AlgebroidPresentation, density: Density) -> AlgForm:
    """The degree-1 obstruction to invariance of a density.

    theta(e_a) = rho(e_a)(f)/f + tr(ad e_a) + div rho(e_a); it vanishes
    exactly when the density is invariant, and reduces to the trace of the
    adjoint for a Lie algebra with unit density.
    """
    if density.algebroid is not A:
        raise AlgindexError("density lives on a different algebroid")
    f = density.coefficient
    coeffs = {}
    for a in range(A.rank):
        value = A.anchor_apply(a, f) / f
        for b in range(A.rank):
            value = value + A.bracket(a, b)[b]
        for i in range(A.base_dim):
            value = value + A.anchor[a][i].derive(i)
        if not value.is_zero():
            coeffs[(a,)] = value
    return AlgForm(A, coeffs)


# ---------------------------------------------------------------------------
# integration domains and the twisted integral
# ---------------------------------------------------------------------------


@dataclass
class PointDomain:
    """Base dimension zero: the integral is the pairing itself."""


@dataclass
class BoxDomain:
    bounds: list  # [(lo, hi)] per chart coordinate, exact rationals

    def __post_init__(self):
        self.bounds = [(as_fraction(lo), as_fraction(hi)) for lo, hi in self.bounds]


@dataclass
class PlaneDomain:
    """The full plane (or line), mapped to a bounded box by x = tan(s).

    The substituted integrand F(tan s)*prod(1 + tan^2 s) is evaluated on the
    open box (-pi/2, pi/2)^n; Gauss nodes never touch the endpoints.
    """


@dataclass
class IntegrationResult:
    """``raw`` and ``raw_error`` are the integral and its quadrature error
    estimate; ``value`` and ``error`` are both divided by (2 pi)^k."""

    raw: object  # Fraction (exact) or float
    exact: bool
    raw_error: float = 0.0
    normalization_degree: int = 0

    @property
    def value(self):
        k = self.normalization_degree
        if isinstance(self.raw, Fraction):
            if self.raw == 0:
                return Fraction(0)
            if k == 0:
                return self.raw
            return float(self.raw) / (2.0 * math.pi) ** k
        return self.raw / (2.0 * math.pi) ** k

    @property
    def error(self) -> float:
        return self.raw_error / (2.0 * math.pi) ** self.normalization_degree

    @property
    def value_is_exact(self):
        return self.exact and (
            self.normalization_degree == 0
            or (isinstance(self.raw, Fraction) and self.raw == 0)
        )

    def __str__(self):
        tag = "exact" if self.value_is_exact else f"approx (error estimate {self.error:.3e})"
        return f"{self.value} [{tag}]"


def _poly_box_integral(p: PolyScalar, bounds) -> Fraction:
    total = Fraction(0)
    for expo, coeff in p.fraction_terms().items():
        term = coeff
        for (lo, hi), e in zip(bounds, expo):
            term *= (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
        total += term
    return total


def _float_span(name, span):
    """A box span as floats for quadrature; a bound beyond float range is a
    :class:`DomainError` that names it."""
    floats = []
    for side, bound in zip(("lower", "upper"), span):
        try:
            floats.append(float(bound))
        except OverflowError:
            raise DomainError(f"the {side} box bound of {name} is beyond float range") from None
    return tuple(floats)


def _quadrature_key(pairing, domain, tol, budget):
    """What fixes the bits of a quadrature of ``pairing``, compared exactly:
    the settings, the box bounds, and the integrand as its panel program
    reads it -- a polynomial's terms, a quotient's reduced numerator and
    denominator, a numeric tree's structure.  ``NumericExpr.__eq__`` is never
    used: it samples, and x and x + x^300 agree at every sample."""
    if isinstance(pairing, NumericExpr):
        integrand = pairing.node
    elif isinstance(pairing, RationalScalar):
        integrand = (pairing.num.fraction_terms(), pairing.den.fraction_terms())
    else:
        integrand = pairing.fraction_terms()
    bounds = tuple(domain.bounds) if isinstance(domain, BoxDomain) else None
    # the cheap fields first: a tuple compares item by item and stops at a difference
    return tol, budget, bounds, integrand


def integrate(
    A: AlgebroidPresentation,
    form: AlgForm,
    density: Density,
    domain=None,
    normalization_degree: int = 0,
    tol: float = 1e-9,
    budget: int = 4000,
) -> IntegrationResult:
    """integral over the base of <form, density>, divided by (2 pi)^k.

    The density must be invariant (zero modular cocycle); polynomial
    integrands over boxes and points are exact, everything else goes through
    the deterministic adaptive quadrature, which stops at base dimension 2.
    A quadrature integral is computed once per density: an equal integrand
    over an equal domain at an equal ``tol`` and ``budget`` takes the raw
    value and error estimate of the first, with the caller's
    ``normalization_degree``.  Equality is exact on the exact backend and
    structural on ``numeric``.  A failed quadrature is not kept; it fails
    again in the same way.
    """
    if any(len(indices) != A.rank for indices in form.coeffs):
        raise AlgindexError("only top-degree forms can be integrated")
    obstruction = modular_cocycle(A, density)
    if not obstruction.is_zero():
        raise NonInvariantDensityError(
            f"density is not invariant; modular cocycle = {obstruction}"
        )
    top = tuple(range(A.rank))
    coefficient = form.coeffs.get(top)
    pairing = A.chart.zero() if coefficient is None else coefficient * density.coefficient
    domain = domain if domain is not None else PointDomain()

    if A.base_dim == 0 or isinstance(domain, PointDomain):
        if A.base_dim != 0:
            raise AlgindexError("point domains need a zero-dimensional base")
        value = pairing.constant_value()
        return IntegrationResult(value, True, 0.0, normalization_degree)

    if pairing.is_zero():
        return IntegrationResult(Fraction(0), True, 0.0, normalization_degree)
    if isinstance(domain, BoxDomain):
        if len(domain.bounds) != A.base_dim:
            raise AlgindexError("box bounds must match the base dimension")
        if isinstance(pairing, PolyScalar):
            return IntegrationResult(
                _poly_box_integral(pairing, domain.bounds),
                True,
                0.0,
                normalization_degree,
            )
    elif not isinstance(domain, PlaneDomain):
        raise TypeError(f"unknown domain {domain!r}")
    # refused before anything is compiled
    if A.base_dim > 2:
        raise AlgindexError("numeric quadrature supports base dimension <= 2")
    key = _quadrature_key(pairing, domain, tol, budget)
    for known, raw, raw_error in density.quadratures:
        if known == key:
            return IntegrationResult(raw, False, raw_error, normalization_degree)
    rows, panel = pairing.compile_panel()
    if isinstance(domain, BoxDomain):
        spans = [_float_span(name, span) for name, span in zip(A.chart.names, domain.bounds)]

        def prepare(i, span):
            return rows[i]([(s, 1.0, kron, gauss) for s, kron, gauss in quadrature.rule(*span)])
    else:
        spans = [(-math.pi / 2, math.pi / 2)] * A.base_dim

        def prepare(i, span):
            # x = tan(s), its multiplier the Jacobian 1 + x^2
            return rows[i]([(x, 1.0 + x * x, kron, gauss)
                            for s, kron, gauss in quadrature.rule(*span) for x in (math.tan(s),)])

    def f(box, prepared):
        # each axis's row is prepared once per (axis index, span) of this integral
        return panel([prepared.get(key) or prepared.setdefault(key, prepare(*key))
                      for key in enumerate(box)])

    # f returns one panel's Kronrod and Gauss sums, one call per panel; both
    # entry points call quadrature._adaptive and stay only because the
    # benchmark's span recorder wraps them by name
    entry = quadrature.integrate_1d if A.base_dim == 1 else quadrature.integrate_2d
    res = entry(f, *spans, tol=tol, budget=budget)
    density.quadratures.append((key, res.value, res.error))
    return IntegrationResult(res.value, False, res.error, normalization_degree)


# ---------------------------------------------------------------------------
# the canonical symplectic form on the dual pull-back
# ---------------------------------------------------------------------------


def symplectic_form(pb: AlgebroidPresentation) -> AlgForm:
    """Theta on the pull-back over the dual bundle, closed and nondegenerate.

    Theta = sum_a h^a ^ v^a + sum_(a<b) sum_c C^c_ab u_c h^a ^ h^b: the
    canonical-splitting pairing plus the Lie-Poisson correction, linear in
    the fiber coordinates u_c, with C^c_ab read off the pull-back's own
    bracket of horizontal lifts.  It is -d lambda for the Liouville form
    lambda = sum_c u_c h^c of the linear Poisson structure on A*, so
    d Theta = -sum_c u_c d(d h^c) vanishes whenever the bracket satisfies
    Jacobi; the structure functions need not be constant.

    d Theta = 0 is checked here, once, for every algebroid: it is the
    Jacobiator of the frame, with its rho(e)(C) terms, on document input.
    It does not check that the anchor is a bracket morphism; that is
    ``validate``'s job.
    """
    data = pb.pullback_data
    if data is None:
        raise PresentationError("symplectic form needs a pull-back presentation")
    A = data.parent
    if data.fiber_dim != A.rank:
        raise PresentationError("the symplectic form lives on the dual pull-back")
    r = A.rank
    coeffs = {(a, data.vertical[a]): 1 for a in range(r)}
    u = [pb.chart.coord(i) for i in data.fiber_coords]
    for a in range(r):
        for b in range(a + 1, r):
            bracket = pb.bracket(a, b)
            coeffs[(a, b)] = sum((u[c] * bracket[c] for c in range(r)), pb.chart.zero())
    theta = AlgForm(pb, coeffs)
    if not d_g(theta).is_zero():
        raise PresentationError("no Lie-Poisson correction closes Theta")
    return theta


def symplectic_top_power(pb, theta=None) -> AlgForm:
    """Theta^r; nonzero exactly when Theta is nondegenerate."""
    data = pb.pullback_data
    theta = theta if theta is not None else symplectic_form(pb)
    power = AlgForm.constant(pb, 1)
    for _ in range(data.parent.rank):
        power = power.wedge(theta)
    return power


# ---------------------------------------------------------------------------
# the formal Thom calculus
# ---------------------------------------------------------------------------


class ThomExtendedForm:
    """free + (thom ^ Th) on a pull-back presentation.

    ``free`` and ``thom`` are two (generally inhomogeneous) forms on the
    pull-back.  Th is the formal rank-r compactly supported fiber generator:
    vertical monomials in the Th factor are annihilated (they exceed the
    vertical top) and Th ^ Th = 0.
    """

    def __init__(self, pullback_presentation, free=None, thom=None):
        data = pullback_presentation.pullback_data
        if data is None:
            raise PresentationError("Thom calculus needs a pull-back presentation")
        self.pullback = pullback_presentation
        self.free = free if free is not None else AlgForm.zero(pullback_presentation)
        thom = thom if thom is not None else AlgForm.zero(pullback_presentation)
        vertical = set(data.vertical)
        self.thom = AlgForm(pullback_presentation, {
            T: value for T, value in thom.coeffs.items() if not set(T) & vertical
        })

    @property
    def fiber_rank(self):
        return self.pullback.pullback_data.fiber_dim

    def wedge(self, other) -> "ThomExtendedForm":
        if isinstance(other, AlgForm):
            other = ThomExtendedForm(self.pullback, other)
        if not isinstance(other, ThomExtendedForm) or other.pullback is not self.pullback:
            raise AlgindexError("operands live on different pull-backs")
        r = self.fiber_rank
        free = self.free.wedge(other.free)
        thom = self.free.wedge(other.thom)
        # thom ^ Th ^ free' = (-1)^(r * deg free') (thom ^ free') ^ Th
        for degree in other.free.degrees():
            extra = self.thom.wedge(other.free.degree_part(degree))
            thom = thom + (extra.scale(-1) if (r * degree) % 2 else extra)
        return ThomExtendedForm(self.pullback, free, thom)

    def is_zero(self):
        return self.free.is_zero() and self.thom.is_zero()

    def __str__(self):
        return f"({self.free}) + ({self.thom}) ^ Th"

    def __repr__(self):
        return f"ThomExtendedForm({self})"


def thom_class(pb: AlgebroidPresentation, orientation=1) -> ThomExtendedForm:
    """The formal class 1*Th of the trivialized oriented bundle."""
    if orientation not in (1, -1):
        raise AlgindexError("the Thom class needs an orientation (+1 or -1)")
    return ThomExtendedForm(pb, thom=AlgForm.constant(pb, orientation))


def pi_star(form, pb: AlgebroidPresentation):
    """Pull a form on the parent back along the bundle projection; the
    parent's frame and coordinates lead the pull-back's."""
    if pb.pullback_data is None:
        raise PresentationError("pi_star needs a pull-back presentation")
    return AlgForm(pb, {T: value.extend_vars(pb.chart.names) for T, value in form.coeffs.items()})


def thom_map(form, pb: AlgebroidPresentation) -> ThomExtendedForm:
    """alpha -> (pi* alpha) ^ Th, the Thom isomorphism on representatives."""
    return ThomExtendedForm(pb, thom=pi_star(form, pb))


def fiber_integrate(t: ThomExtendedForm):
    """Integrate over the fiber: alpha ^ Th -> alpha, Th-free terms -> 0.

    Th-free terms carrying a vertical top component are not representable in
    the formal calculus (no compact support) and are rejected.  The Th part
    must be basic (pulled back from the parent); fiber-coordinate dependence
    there would need an honest bump profile, which the calculus does not
    model.
    """
    pb = t.pullback
    data = pb.pullback_data
    A = data.parent
    vertical = set(data.vertical)
    for T in t.free.coeffs:
        if vertical <= set(T):
            raise AlgindexError(
                "free part has a vertical top component; not fiber-integrable "
                "in the formal calculus"
            )
    restriction = [A.chart.coord(i) for i in range(A.base_dim)] + [
        A.chart.zero() for _ in range(data.fiber_dim)
    ]
    coeffs = {}
    for T, value in t.thom.coeffs.items():
        for u in data.fiber_coords:
            if value.depends_on(u):
                raise AlgindexError(
                    "Th coefficient depends on fiber coordinates; "
                    "not fiber-integrable in the formal calculus"
                )
        coeffs[T] = value.substitute(restriction)
    return AlgForm(A, coeffs)


# ---------------------------------------------------------------------------
# Euler class and the index evaluators
# ---------------------------------------------------------------------------


def _fraction_sqrt(q: Fraction):
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _sqrt_det(metric: Metric):
    """Exact sqrt of det(g): conformal metrics of even rank, or constant
    metrics with perfect-square determinant."""
    A = metric.algebroid
    conformal = metric.is_conformal()
    if conformal is not None and A.rank % 2 == 0:
        return conformal ** (A.rank // 2)
    det = metric.determinant()
    if det.is_constant():
        root = _fraction_sqrt(det.constant_value())
        if root is not None:
            return A.chart.const(root)
    raise AlgindexError(
        "cannot take an exact square root of det(metric); use a conformal "
        "metric or a constant metric with perfect-square determinant"
    )


def euler_class(A: AlgebroidPresentation, metric: Metric) -> AlgForm:
    """Pf(R(levi_civita)) in the metric-orthonormal normalization.

    Odd rank gives the zero form (Pfaffian convention, makes the Euler index
    total); the result is a closed form of degree = rank.  It is computed once
    per metric and kept on it (``Metric.euler_form``).
    """
    if A is metric.algebroid and metric.euler_form is not None:
        return metric.euler_form
    if A.rank % 2:
        return AlgForm.zero(A)
    conn = levi_civita(A, metric)  # raises unless A is metric.algebroid
    R = curvature(conn)
    pf = pfaffian_form(R, metric)
    root = _sqrt_det(metric)
    metric.euler_form = pf.scale(1 / root)
    return metric.euler_form


@dataclass
class IndexResult:
    integral: IntegrationResult
    i_power: int = 0
    note: str = ""

    @property
    def value(self):
        return self.integral.value

    @property
    def exact(self):
        return self.integral.value_is_exact

    @property
    def error(self):
        return self.integral.error

    def __str__(self):
        extra = f" * (sqrt(-1))^{self.i_power}" if self.i_power % 4 else ""
        note = f"  ({self.note})" if self.note else ""
        return f"{self.integral}{extra}{note}"


_GENERA = {"signature": "l_genus", "dirac": "a_hat"}


def index_general(
    operator: str, A, metric: Metric, density: Density, domain=None, *,
    nu: AlgForm | None = None, E: GConnection | None = None, tol=1e-9, budget=4000,
) -> IndexResult:
    """The topological index of ``operator``, through the known roots-identity
    reductions only; the division by the Euler class is never performed on
    forms directly.

    ``euler`` integrates <e(metric), density> and takes neither ``nu`` nor
    ``E``; an odd rank gives an exact 0.  ``signature`` and ``dirac``
    integrate the top-degree part of nu ^ genus(metric) [^ ch(E)] with the
    L-genus and the A-hat genus; Dirac needs ``E``, ``nu`` must be closed,
    and a nu of degree 2j contributes (sqrt(-1))^j to ``i_power`` (the zero
    form has degree 0; a nu of mixed degree is refused).
    """
    k = A.rank // 2
    i_power = 0
    if operator == "euler":
        for name, given in (("nu", nu), ("coefficient-bundle connection E", E)):
            if given is not None:
                raise AlgindexError(f"the Euler index takes no {name}")
        top = euler_class(A, metric)
        if A.rank % 2:
            zero = IntegrationResult(Fraction(0), True)
            return IndexResult(zero, note="odd rank: Euler form vanishes")
    else:
        if operator not in _GENERA:
            raise UnresolvedEulerDivisionError(
                f"a roots identity reducing ch(symbol)/e for operator {operator!r} "
                f"would be needed; the Euler division is only resolved for "
                f"euler, {', '.join(_GENERA)}"
            )
        if operator == "dirac" and E is None:
            raise AlgindexError("the Dirac reduction needs coefficient-bundle data")
        if nu is not None and not d_g(nu).is_zero():
            raise AlgindexError("nu must be a closed algebroid form")
        integrand = char_class(levi_civita(A, metric), _GENERA[operator], A.rank)
        if E is not None:
            integrand = integrand.wedge(char_class(E, "ch", A.rank))
        if nu is not None:
            integrand = nu.wedge(integrand)
            i_power = nu.degree // 2
        top = integrand.degree_part(A.rank)
        if top.is_zero():
            zero = IntegrationResult(Fraction(0), True, 0.0, k)
            return IndexResult(zero, i_power, "degree mismatch: no top-degree component")
    result = integrate(A, top, density, domain, normalization_degree=k, tol=tol, budget=budget)
    return IndexResult(result, i_power)


# ---------------------------------------------------------------------------
# Thom / integration compatibility
# ---------------------------------------------------------------------------


@dataclass
class ThomCheck:
    base: IntegrationResult
    mapped: IntegrationResult
    theta_nondegenerate: bool
    roundtrip_identity: bool
    # not a field: symplectic_form raises unless d Theta = 0
    theta_closed = True

    @property
    def compatible(self):
        lhs, rhs = self.base.value, self.mapped.value
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            return lhs == rhs
        return abs(float(lhs) - float(rhs)) <= 1e-9 + self.base.error + self.mapped.error

    def __str__(self):
        status = "equal" if self.compatible else "MISMATCH"
        return (
            f"base integral {self.base} vs thom-mapped integral {self.mapped}: "
            f"{status}; Theta closed: {self.theta_closed}, nondegenerate: "
            f"{self.theta_nondegenerate}, fiber_integrate o thom_map = id: "
            f"{self.roundtrip_identity}"
        )


def thom_compatibility(
    A: AlgebroidPresentation, form: AlgForm, density: Density, domain=None,
    tol=1e-9, budget=4000,
) -> ThomCheck:
    """Both sides of the Thom/integration compatibility: the direct pairing,
    and the pull-back, Thom map and fiber integration against
    Theta^r (x) pi* density.

    The fiber-integrated form is compared with ``form`` (the round-trip
    identity).  When they are equal its integral is ``base`` itself, so the
    integral is computed once; only a failed round trip integrates the mapped
    form on its own.
    """
    base = integrate(A, form, density, domain, tol=tol, budget=budget)
    pb = pullback(A, A.rank)
    theta = symplectic_form(pb)
    theta_nondegenerate = not symplectic_top_power(pb, theta).is_zero()
    mapped = thom_map(form, pb)
    reduced = fiber_integrate(mapped)
    roundtrip = reduced == form
    mapped_integral = base if roundtrip else integrate(
        A, reduced.degree_part(A.rank), density, domain, tol=tol, budget=budget,
    )
    return ThomCheck(
        base=base,
        mapped=mapped_integral,
        theta_nondegenerate=theta_nondegenerate,
        roundtrip_identity=roundtrip,
    )
