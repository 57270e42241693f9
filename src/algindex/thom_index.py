"""Densities, twisted integration, the symplectic form on the dual pull-back,
the formal Thom-class calculus and the topological index evaluators.

Compact supports are modeled formally: the fiber generator Th is an
algebraic symbol of degree r with Th ^ Th = 0 and the integration rule
"integral of Th over the fiber = 1".  Characteristic forms arrive 2*pi-free
(see chern_weil); the single normalization 1/(2*pi)^k is applied here, at
integration time, and the (sqrt(-1))^k part of the index prefactor is
reported as metadata instead of being folded into a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, quadrature
from .algebroid import (
    AlgebroidPresentation,
    AlgebroidMorphism,
    PresentationError,
    pullback,
)
from .chern_weil import (
    GConnection,
    Metric,
    char_class,
    curvature,
    levi_civita,
    pfaffian_form,
)
from .forms import AlgForm, MixedForm, d_g, pullback_mixed
from .scalars import AlgindexError, PolyScalar, as_fraction


class NonInvariantDensityError(AlgindexError):
    """The chosen density violates the integration lemma's hypothesis."""


class UnresolvedEulerDivisionError(AlgindexError):
    """No closed-form roots identity resolves the requested Euler division."""


@dataclass
class Density:
    """A transversal density: coefficient of (e_1^..^e_r) (x) (dx^1^..^dx^n)."""

    algebroid: AlgebroidPresentation
    coefficient: object = 1

    def __post_init__(self):
        self.coefficient = self.algebroid.scalar(self.coefficient)
        if self.coefficient.is_zero():
            raise AlgindexError("density must be nonvanishing")


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
            coeffs[(a,)] = (value,)
    return AlgForm(A, 1 if A.rank else 0, coeffs)


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
    raw: object  # Fraction (exact) or float
    exact: bool
    error: float = 0.0
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
    def value_is_exact(self):
        return self.exact and (
            self.normalization_degree == 0
            or (isinstance(self.raw, Fraction) and self.raw == 0)
        )

    def __str__(self):
        tag = "exact" if self.value_is_exact else f"approx (err<={self.error:.3e})"
        return f"{self.value} [{tag}]"


def _poly_box_integral(p: PolyScalar, bounds) -> Fraction:
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        term = coeff
        for (lo, hi), e in zip(bounds, expo):
            term *= (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
        total += term
    return total


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
    """
    if form.degree != A.rank:
        raise AlgindexError("only top-degree forms can be integrated")
    if form.bundle_rank != 1:
        raise AlgindexError("integration needs a scalar-valued form")
    obstruction = modular_cocycle(A, density)
    if not obstruction.is_zero():
        raise NonInvariantDensityError(
            f"density is not invariant; modular cocycle = {obstruction}"
        )
    top = tuple(range(A.rank))
    coefficient = form.coeffs.get(top)
    pairing = (
        A.chart.zero() if coefficient is None else coefficient[0] * density.coefficient
    )
    domain = domain if domain is not None else PointDomain()

    if A.base_dim == 0 or isinstance(domain, PointDomain):
        if A.base_dim != 0:
            raise AlgindexError("point domains need a zero-dimensional base")
        value = pairing.constant_value()
        return IntegrationResult(value, True, 0.0, normalization_degree)

    if pairing.is_zero():
        return IntegrationResult(Fraction(0), True, 0.0, normalization_degree)
    integrand = pairing.compile_float()  # one float evaluator for every quadrature path

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
        spans = domain.bounds

        def f(*xs):
            return integrand(xs)

    elif isinstance(domain, PlaneDomain):
        spans = [(-math.pi / 2, math.pi / 2)] * A.base_dim

        def f(*ss):
            xs = tuple(map(math.tan, ss))
            value = integrand(xs)
            for x in xs:  # the Jacobians 1 + tan^2, in axis order
                value *= 1.0 + x * x
            return value

    else:
        raise TypeError(f"unknown domain {domain!r}")
    if A.base_dim > 2:
        raise AlgindexError("numeric quadrature supports base dimension <= 2")
    # both entry points call quadrature._adaptive; they stay only because
    # the benchmark's span recorder wraps them by name
    entry = quadrature.integrate_1d if A.base_dim == 1 else quadrature.integrate_2d
    res = entry(f, *spans, tol=tol, budget=budget)
    return IntegrationResult(res.value, False, res.error, normalization_degree)


# ---------------------------------------------------------------------------
# the canonical symplectic form on the dual pull-back
# ---------------------------------------------------------------------------


def symplectic_form(pb: AlgebroidPresentation) -> AlgForm:
    """Theta on the pull-back over the dual bundle, closed and nondegenerate.

    The canonical-splitting pairing gives sum_a h^a ^ v^a; when structure
    functions are nonzero the Lie-Poisson corrections (linear in the fiber
    coordinates, horizontal-horizontal) are solved for exactly so that
    d Theta = 0.
    """
    data = pb.pullback_data
    if data is None:
        raise PresentationError("symplectic form needs a pull-back presentation")
    A = data.parent
    if data.fiber_dim != A.rank:
        raise PresentationError("the symplectic form lives on the dual pull-back")
    r = A.rank
    theta0 = AlgForm(
        pb,
        2,
        {(a, data.vertical[a]): (1,) for a in range(r)},
    )
    d_theta0 = d_g(theta0)
    if d_theta0.is_zero():
        return theta0
    for coeffs in A.structure.values():
        for c in coeffs:
            if not c.is_constant():
                raise PresentationError(
                    "Lie-Poisson corrections are implemented for constant "
                    "structure functions only"
                )
    candidates = []
    images = []
    for a in range(r):
        for b in range(a + 1, r):
            for c in range(r):
                u_c = pb.chart.coord(data.fiber_coords[c])
                candidate = AlgForm(pb, 2, {(a, b): (u_c,)})
                candidates.append(candidate)
                images.append(d_g(candidate))
    from .forms import _match_coefficients

    matrix, rhs = _match_coefficients(images, -d_theta0)
    solution = linalg.solve(matrix, rhs)
    if solution is None:
        raise PresentationError("no Lie-Poisson correction closes Theta")
    theta = theta0
    for coeff, candidate in zip(solution, candidates):
        if coeff:
            theta = theta + candidate.scale(coeff)
    assert d_g(theta).is_zero()
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

    Th is the formal rank-r compactly supported fiber generator: vertical
    monomials in the Th factor are annihilated (they exceed the vertical
    top) and Th ^ Th = 0.
    """

    def __init__(self, pullback_presentation, free=None, thom=None, orientation=1):
        data = pullback_presentation.pullback_data
        if data is None:
            raise PresentationError("Thom calculus needs a pull-back presentation")
        if orientation not in (1, -1):
            raise AlgindexError("orientation must be +1 or -1")
        self.pullback = pullback_presentation
        self.orientation = orientation
        self.free = free if free is not None else MixedForm(pullback_presentation, {})
        thom = thom if thom is not None else MixedForm(pullback_presentation, {})
        self.thom = self._drop_vertical(thom)

    def _drop_vertical(self, mixed: MixedForm) -> MixedForm:
        vertical = set(self.pullback.pullback_data.vertical)
        out = {}
        for degree, part in mixed.components.items():
            kept = {
                T: values
                for T, values in part.coeffs.items()
                if not (set(T) & vertical)
            }
            if kept:
                out[degree] = AlgForm(self.pullback, degree, kept)
        return MixedForm(self.pullback, out)

    @property
    def fiber_rank(self):
        return self.pullback.pullback_data.fiber_dim

    def __add__(self, other):
        self._check(other)
        return ThomExtendedForm(
            self.pullback, self.free + other.free, self.thom + other.thom,
            self.orientation,
        )

    def _check(self, other):
        if not isinstance(other, ThomExtendedForm) or other.pullback is not self.pullback:
            raise AlgindexError("operands live on different pull-backs")
        if other.orientation != self.orientation:
            raise AlgindexError("orientation mismatch")

    def wedge(self, other) -> "ThomExtendedForm":
        if isinstance(other, (AlgForm, MixedForm)):
            other = ThomExtendedForm(
                self.pullback,
                free=other if isinstance(other, MixedForm) else MixedForm.from_form(other),
                orientation=self.orientation,
            )
        self._check(other)
        r = self.fiber_rank
        free = self.free.wedge(other.free)
        thom = self.free.wedge(other.thom)
        # thom ^ Th ^ free' = (-1)^(r * deg free') (thom ^ free') ^ Th
        for degree, part in other.free.components.items():
            sign = -1 if (r * degree) % 2 else 1
            extra = self.thom.wedge(part)
            thom = thom + (extra.scale(sign) if sign < 0 else extra)
        return ThomExtendedForm(self.pullback, free, thom, self.orientation)

    def scale(self, scalar):
        return ThomExtendedForm(
            self.pullback, self.free.scale(scalar), self.thom.scale(scalar),
            self.orientation,
        )

    def is_zero(self):
        return self.free.is_zero() and self.thom.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ThomExtendedForm):
            return NotImplemented
        return (
            self.pullback is other.pullback
            and self.orientation == other.orientation
            and (self.free - other.free).is_zero()
            and (self.thom - other.thom).is_zero()
        )

    __hash__ = None

    def __str__(self):
        return f"({self.free}) + ({self.thom}) ^ Th"

    def __repr__(self):
        return f"ThomExtendedForm({self})"


def thom_class(pb: AlgebroidPresentation, orientation=1) -> ThomExtendedForm:
    """The formal class 1*Th of the trivialized oriented bundle."""
    if orientation not in (1, -1):
        raise AlgindexError("the Thom class needs an orientation (+1 or -1)")
    unit = MixedForm.constant(pb, orientation)
    return ThomExtendedForm(pb, thom=unit, orientation=1)


def pi_star(form, pb: AlgebroidPresentation):
    """Pull a form on the parent back along the bundle projection."""
    data = pb.pullback_data
    if data is None:
        raise PresentationError("pi_star needs a pull-back presentation")
    A = data.parent

    def lift_one(part: AlgForm) -> AlgForm:
        coeffs = {}
        for T, values in part.coeffs.items():
            lifted = tuple(v.extend_vars(pb.chart.names) for v in values)
            coeffs[tuple(data.horizontal[i] for i in T)] = lifted
        return AlgForm(pb, part.degree, coeffs, part.bundle_rank)

    if isinstance(form, MixedForm):
        out = MixedForm(pb, {})
        for part in form.components.values():
            out = out + lift_one(part)
        return out
    return lift_one(form)


def thom_map(form, pb: AlgebroidPresentation) -> ThomExtendedForm:
    """alpha -> (pi* alpha) ^ Th, the Thom isomorphism on representatives."""
    lifted = pi_star(form, pb)
    if isinstance(lifted, AlgForm):
        lifted = MixedForm.from_form(lifted)
    return ThomExtendedForm(pb, thom=lifted)


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
    for part in t.free.components.values():
        for T in part.coeffs:
            if vertical <= set(T):
                raise AlgindexError(
                    "free part has a vertical top component; not fiber-integrable "
                    "in the formal calculus"
                )
    restriction = [A.chart.coord(i) for i in range(A.base_dim)] + [
        A.chart.zero() for _ in range(data.fiber_dim)
    ]
    out = MixedForm(A, {})
    horizontal_index = {h: i for i, h in enumerate(data.horizontal)}
    for degree, part in t.thom.components.items():
        coeffs = {}
        for T, values in part.coeffs.items():
            if set(T) & vertical:
                continue  # annihilated against Th already, defensive
            value = values[0]
            for u in data.fiber_coords:
                if value.depends_on(u):
                    raise AlgindexError(
                        "Th coefficient depends on fiber coordinates; "
                        "not fiber-integrable in the formal calculus"
                    )
            coeffs[tuple(horizontal_index[i] for i in T)] = (
                value.substitute(restriction),
            )
        if coeffs:
            out = out + AlgForm(A, degree, coeffs)
    return out


def lift_morphism_to_pullbacks(
    morphism: AlgebroidMorphism, pb_src: AlgebroidPresentation, pb_tgt: AlgebroidPresentation
) -> AlgebroidMorphism:
    """Lift a base morphism to the pull-backs of a shared trivial bundle."""
    src_data, tgt_data = pb_src.pullback_data, pb_tgt.pullback_data
    if src_data is None or tgt_data is None:
        raise PresentationError("both presentations must be pull-backs")
    if src_data.parent is not morphism.source or tgt_data.parent is not morphism.target:
        raise PresentationError("morphism does not connect the parents")
    if src_data.fiber_dim != tgt_data.fiber_dim:
        raise PresentationError("fiber dimensions differ")
    chart = pb_src.chart
    base = [
        morphism.base_map[i].extend_vars(chart.names)
        for i in range(morphism.target.base_dim)
    ] + [chart.coord(src_data.fiber_coords[j]) for j in range(src_data.fiber_dim)]
    bundle = []
    for a in range(morphism.source.rank):
        row = [chart.zero()] * pb_tgt.rank
        for b in range(morphism.target.rank):
            row[tgt_data.horizontal[b]] = morphism.bundle_map[a][b].extend_vars(
                chart.names
            )
        bundle.append(row)
    for j in range(src_data.fiber_dim):
        row = [chart.zero()] * pb_tgt.rank
        row[tgt_data.vertical[j]] = chart.one()
        bundle.append(row)
    return AlgebroidMorphism(
        pb_src, pb_tgt, base, bundle, name=f"{morphism.name}^!"
    )


def pullback_extended(
    lifted: AlgebroidMorphism, t: ThomExtendedForm, pb_src: AlgebroidPresentation
) -> ThomExtendedForm:
    """Naturality: pull a Thom-extended form back along a lifted morphism."""
    free = pullback_mixed(lifted, t.free)
    thom = pullback_mixed(lifted, t.thom)
    return ThomExtendedForm(pb_src, free, thom, t.orientation)


def restrict_extended(morphism: AlgebroidMorphism, t: ThomExtendedForm):
    """(free, thom) parts pulled back along an arbitrary morphism into the
    pull-back; the Th symbol itself is left to the caller's interpretation
    (fiber generator for fiber inclusions, Euler form for the zero section).
    """
    return pullback_mixed(morphism, t.free), pullback_mixed(morphism, t.thom)


def zero_section_restrict(t: ThomExtendedForm, euler_form: AlgForm) -> MixedForm:
    """Restrict along the zero section, substituting the Euler form for Th."""
    from .algebroid import zero_section_morphism

    zs = zero_section_morphism(t.pullback)
    free, thom = restrict_extended(zs, t)
    return free + thom.wedge(MixedForm.from_form(euler_form))


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

    Odd rank gives the zero form (Pfaffian convention, makes index_euler
    total); the result is a closed form of degree = rank.  It is computed
    once per metric and kept on it (``Metric.euler_form``).
    """
    if A is metric.algebroid and metric.euler_form is not None:
        return metric.euler_form
    if A.rank % 2:
        return AlgForm.zero(A, A.rank)
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


def _exact_zero(A, k, note):
    return IndexResult(
        IntegrationResult(Fraction(0), True, 0.0, k), 0, note
    )


def index_euler(
    A, metric: Metric, density: Density, domain=None, tol=1e-9, budget=4000
) -> IndexResult:
    """Topological side of the Euler-operator index: integral of <e, density>."""
    e = euler_class(A, metric)
    k = A.rank // 2
    if A.rank % 2:
        return _exact_zero(A, 0, "odd rank: Euler form vanishes")
    result = integrate(
        A, e, density, domain, normalization_degree=k, tol=tol, budget=budget
    )
    return IndexResult(result, 0)


def _genus_integrand(nu, genus_form: MixedForm, extra: MixedForm | None = None):
    integrand = genus_form if extra is None else genus_form.wedge(extra)
    if nu is not None:
        nu_mixed = MixedForm.from_form(nu) if isinstance(nu, AlgForm) else nu
        integrand = nu_mixed.wedge(integrand)
    return integrand


def _evaluate_index(A, integrand: MixedForm, nu, density, domain, tol, budget):
    r = A.rank
    top = integrand.degree_part(r)
    k = r // 2
    nu_degree = 0
    if nu is not None:
        nu_degree = nu.degree if isinstance(nu, AlgForm) else max(nu.degrees(), default=0)
    i_power = nu_degree // 2
    if top.is_zero():
        result = _exact_zero(A, k, "degree mismatch: no top-degree component")
        result.i_power = i_power
        return result
    result = integrate(
        A, top, density, domain, normalization_degree=k, tol=tol, budget=budget
    )
    return IndexResult(result, i_power)


def index_signature(
    A, metric: Metric, nu, density: Density, domain=None, E: GConnection | None = None,
    tol=1e-9, budget=4000,
) -> IndexResult:
    """Signature index: integral of nu ^ L(g) (optionally ^ ch(E))."""
    if nu is not None and not d_g(nu).is_zero():
        raise AlgindexError("nu must be a closed algebroid form")
    L = char_class(levi_civita(A, metric), "l_genus", A.rank)
    extra = char_class(E, "ch", A.rank) if E is not None else None
    integrand = _genus_integrand(nu, L, extra)
    return _evaluate_index(A, integrand, nu, density, domain, tol, budget)


def index_dirac(
    A, metric: Metric, E: GConnection, nu, density: Density, domain=None,
    tol=1e-9, budget=4000,
) -> IndexResult:
    """Twisted Dirac index: integral of nu ^ A-hat(g) ^ ch(E)."""
    if nu is not None and not d_g(nu).is_zero():
        raise AlgindexError("nu must be a closed algebroid form")
    a_hat = char_class(levi_civita(A, metric), "a_hat", A.rank)
    ch_e = char_class(E, "ch", A.rank)
    integrand = _genus_integrand(nu, a_hat, ch_e)
    return _evaluate_index(A, integrand, nu, density, domain, tol, budget)


_KNOWN_OPERATORS = ("euler", "signature", "dirac")


def index_general(
    A, metric: Metric, E: GConnection | None, nu, density: Density, operator: str,
    domain=None, tol=1e-9, budget=4000,
) -> IndexResult:
    """The general topological index, through the known roots-identity
    reductions only; the division by the Euler class is never performed on
    forms directly."""
    if operator == "euler":
        return index_euler(A, metric, density, domain, tol, budget)
    if operator == "signature":
        return index_signature(A, metric, nu, density, domain, E, tol, budget)
    if operator == "dirac":
        if E is None:
            raise AlgindexError("the Dirac reduction needs coefficient-bundle data")
        return index_dirac(A, metric, E, nu, density, domain, tol, budget)
    raise UnresolvedEulerDivisionError(
        f"a roots identity reducing ch(symbol)/e for operator {operator!r} "
        f"would be needed; the Euler division is only resolved for "
        f"{', '.join(_KNOWN_OPERATORS)}"
    )


# ---------------------------------------------------------------------------
# Thom / integration compatibility
# ---------------------------------------------------------------------------


@dataclass
class ThomCheck:
    base: IntegrationResult
    mapped: IntegrationResult
    theta_closed: bool
    theta_nondegenerate: bool
    roundtrip_identity: bool

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

    The fiber-integrated top form is compared with ``form`` (the round-trip
    identity).  When they are equal its integral is ``base`` itself, so the
    integral is computed once; only a failed round trip integrates the mapped
    form on its own.
    """
    base = integrate(A, form, density, domain, tol=tol, budget=budget)
    pb = pullback(A, A.rank)
    theta = symplectic_form(pb)
    theta_closed = d_g(theta).is_zero()
    theta_nondegenerate = not symplectic_top_power(pb, theta).is_zero()
    mapped = thom_map(form, pb)
    reduced = fiber_integrate(mapped)
    roundtrip = reduced.degree_part(form.degree) == form and all(
        reduced.degree_part(d).is_zero() for d in reduced.degrees() if d != form.degree
    )
    mapped_integral = base if roundtrip else integrate(
        A, reduced.degree_part(A.rank), density, domain, tol=tol, budget=budget,
    )
    return ThomCheck(
        base=base,
        mapped=mapped_integral,
        theta_closed=theta_closed,
        theta_nondegenerate=theta_nondegenerate,
        roundtrip_identity=roundtrip,
    )
