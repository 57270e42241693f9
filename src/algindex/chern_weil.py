"""Curvature, Levi-Civita connections and characteristic-class series.

Characteristic forms are exact polynomials in the power sums tr(R^j) of
the curvature matrix (never numerical eigenvalues) and are stored WITHOUT
2*pi factors; the single normalization happens at integration time.  Every
multiplicative genus (chern, todd, l_genus, a_hat) is its root series Q(x)
(:func:`_root_series`, the one place a genus is written), taken as
exp(sum_j b_j tr(R^j)) with b = log Q and expanded by a single recurrence
(:func:`_genus_parts`); L and A-hat, whose roots come in pairs +-i x, take
b_2k = (-1)^k [x^2k] log Q / 2.  ``ch`` is the additive tr exp(R) and the
Pfaffian is expanded by rows.  A formal Chern-roots engine
(`roots_identity`) checks the identities behind the Euler and signature
index formulas on the same Todd and L series and reports the normalization
factor they actually require.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import linalg
from .algebroid import AlgebroidPresentation
from .forms import AlgForm, GConnection, _scalar_det, d_g
from .scalars import AlgindexError, Chart, PolyScalar


class FormMatrix:
    """A square matrix of even-degree forms on a common algebroid."""

    def __init__(self, algebroid, entries):
        self.algebroid = algebroid
        self.entries = entries
        self.size = len(entries)
        for row in entries:
            if len(row) != self.size:
                raise AlgindexError("form matrix must be square")
            for form in row:
                if form.algebroid is not algebroid:
                    raise AlgindexError("entries live on different algebroids")
                if any(d % 2 for d in form.degrees()):
                    raise AlgindexError("form matrix entries must have even degree")

    def matmul(self, other: "FormMatrix") -> "FormMatrix":
        return FormMatrix(self.algebroid, _wedge_sum(self.entries, other.entries))

    def trace(self) -> AlgForm:
        acc = self.entries[0][0]
        for i in range(1, self.size):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self):
        return all(f.is_zero() for row in self.entries for f in row)

    def __repr__(self):
        return f"FormMatrix({self.size}x{self.size} on {self.algebroid.name})"


def _wedge_sum(P, Q):
    """The matrix product of two square matrices of forms, sum_k P_ik ^ Q_kj,
    summed in the order of k."""
    n = len(Q)
    return [[sum((row[k].wedge(Q[k][j]) for k in range(1, n)), row[0].wedge(Q[0][j]))
             for j in range(n)] for row in P]


class Metric:
    """A symmetric scalar matrix on the frame, assumed positive definite.

    A metric is immutable after construction.  ``euler_form`` holds its Euler
    form once ``thom_index.euler_class`` has computed it, so later
    computations on the same metric reuse it.
    """

    def __init__(self, algebroid, entries):
        self.algebroid = algebroid
        self.euler_form = None
        self.entries = [[algebroid.scalar(v) for v in row] for row in entries]
        r = algebroid.rank
        if len(self.entries) != r or any(len(row) != r for row in self.entries):
            raise AlgindexError("metric must be rank x rank")
        for i in range(r):
            for j in range(i + 1, r):
                if not (self.entries[i][j] - self.entries[j][i]).is_zero():
                    raise AlgindexError(f"metric not symmetric at {(i, j)}")

    @classmethod
    def identity(cls, algebroid):
        one, zero = algebroid.chart.one(), algebroid.chart.zero()
        r = algebroid.rank
        return cls(algebroid, [[one if i == j else zero for j in range(r)] for i in range(r)])

    @classmethod
    def conformal(cls, algebroid, factor):
        factor = algebroid.scalar(factor)
        zero = algebroid.chart.zero()
        r = algebroid.rank
        return cls(
            algebroid,
            [[factor if i == j else zero for j in range(r)] for i in range(r)],
        )

    def is_conformal(self):
        r = self.algebroid.rank
        f = self.entries[0][0] if r else None  # rank 0 has no diagonal to read
        for i in range(r):
            for j in range(r):
                expected = f if i == j else self.algebroid.chart.zero()
                if not (self.entries[i][j] - expected).is_zero():
                    return None
        return f

    def determinant(self):
        return _scalar_det(self.entries, self.algebroid.chart)

    def inverse(self):
        """Exact inverse via the adjugate; fails if the determinant is zero."""
        chart = self.algebroid.chart
        det = self.determinant()
        if det.is_zero():
            raise AlgindexError("metric is symbolically singular")
        r = self.algebroid.rank
        out = []
        for i in range(r):
            row = []
            for j in range(r):
                minor = [
                    [self.entries[a][b] for b in range(r) if b != i]
                    for a in range(r)
                    if a != j
                ]
                cof = _scalar_det(minor, chart)
                if (i + j) % 2:
                    cof = -cof
                row.append(cof / det)
            out.append(row)
        return out

    def check_positive_definite(self, sample_points=None):
        """Leading minors, exact: of a constant metric, or at sample points.

        A non-constant metric is checked at ``sample_points``, by default
        the fixed grid of :func:`_positivity_grid`, so the check is heuristic:
        it can accept a metric that fails between the points.  The verdict at
        each point is exact.  A point where an entry cannot be evaluated (a
        pole, or a numeric value beyond float range) is skipped; a metric with
        every point skipped is rejected.
        """
        if all(v.is_constant() for row in self.entries for v in row):
            return _leading_minors_positive(
                [[v.constant_value() for v in row] for row in self.entries]
            )
        checked = False
        for point in sample_points or _positivity_grid(self.algebroid.base_dim):
            try:
                values = [[v.eval(point) for v in row] for row in self.entries]
            except ArithmeticError:  # DomainError, OverflowError
                continue
            if not _leading_minors_positive(values):
                return False
            checked = True
        return checked


def _leading_minors_positive(values):
    return all(
        linalg.det([row[:k] for row in values[:k]]) > 0 for k in range(1, len(values) + 1)
    )


def _positivity_grid(n):
    """The sample points of the positivity check on an n-dimensional base.

    b = (1/7, 2/7, ..., n/7) scaled by 1, 1/7 and 7 under four sign patterns
    (all +, all -, and the two alternating ones), b itself first, then the
    origin: at most 13 points, which give every coordinate both signs and
    every pair of neighbouring coordinates both relative signs.
    """
    b = [Fraction(k, 7) for k in range(1, n + 1)]
    patterns = [[1] * n, [-1] * n, [(-1) ** k for k in range(n)],
                [(-1) ** (k + 1) for k in range(n)]]
    points = [
        tuple(scale * sign * v for sign, v in zip(signs, b))
        for scale in (1, Fraction(1, 7), 7)
        for signs in patterns
    ]
    return list(dict.fromkeys(points + [(Fraction(0),) * n]))


# ---------------------------------------------------------------------------
# curvature and the Levi-Civita connection
# ---------------------------------------------------------------------------


def curvature(conn: GConnection) -> FormMatrix:
    """R = d Gamma + Gamma ^ Gamma, the square of d + Gamma^ (Cartan's second
    structure equation; Kobayashi and Nomizu, Foundations of Differential
    Geometry I, ch. III), for the connection 1-forms Gamma of ``one_forms``:
    R_ab = rho(e_a) Gamma_b - rho(e_b) Gamma_a + [Gamma_a, Gamma_b] - C^c_ab Gamma_c."""
    gamma = conn.one_forms()
    return FormMatrix(conn.algebroid, [[d_g(w) + s for w, s in zip(*rows)]
                                       for rows in zip(gamma, _wedge_sum(gamma, gamma))])


def validate_representation(rep: GConnection):
    """Flatness check: the curvature of the declared connection vanishes."""
    return curvature(rep).is_zero()


def levi_civita(A: AlgebroidPresentation, metric: Metric) -> GConnection:
    """The unique metric, torsion-free connection on the algebroid itself."""
    if metric.algebroid is not A:
        raise AlgindexError("metric lives on a different algebroid")
    r = A.rank
    g = metric.entries
    ginv = metric.inverse()

    def inner_bracket(a, b, c):
        # <[e_a, e_b], e_c>
        out = A.chart.zero()
        for d, coeff in enumerate(A.bracket(a, b)):
            if not coeff.is_zero():
                out = out + coeff * g[d][c]
        return out

    # rho(e_a) once per entry object (g keeps each alive), not per (b, c): g[c][b] may differ
    distinct = {id(f): f for row in g for f in row}.values()
    rho = {(a, id(f)): A.anchor_apply(a, f) for a in range(r) for f in distinct}

    # 2<nabla_a e_b, e_c> by the Koszul formula
    koszul = {}
    for a in range(r):
        for b in range(r):
            for c in range(r):
                koszul[a, b, c] = (
                    rho[a, id(g[b][c])]
                    + rho[b, id(g[a][c])]
                    - rho[c, id(g[a][b])]
                    + inner_bracket(a, b, c)
                    - inner_bracket(a, c, b)
                    - inner_bracket(b, c, a)
                )
    mats = []
    for a in range(r):
        mat = [[A.chart.zero()] * r for _ in range(r)]
        for b in range(r):
            for c in range(r):
                value = A.chart.zero()
                for d in range(r):
                    value = value + ginv[c][d] * koszul[(a, b, d)]
                mat[c][b] = value / 2
        mats.append(mat)
    return GConnection(A, r, mats)


# ---------------------------------------------------------------------------
# exact univariate series (Fraction coefficient lists)
# ---------------------------------------------------------------------------


def _s_mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def _s_div(a, b, n):
    if b[0] == 0:
        raise ZeroDivisionError("series division needs a unit constant term")
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        acc = a[k] if k < len(a) else Fraction(0)
        for j in range(k):
            idx = k - j
            if idx < len(b) and b[idx]:
                acc -= out[j] * b[idx]
        out[k] = acc / b[0]
    return out


def _s_log(a, n):
    """log of a series with constant term 1."""
    if a[0] != 1:
        raise AlgindexError("series log needs constant term 1")
    da = [a[k] * k for k in range(1, len(a))]
    q = _s_div(da, a, max(n - 1, 0))
    out = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        out[k] = q[k - 1] / k
    return out


def _flip(series):
    """s(-x) from s(x): the odd coefficients change sign."""
    return [-c if k % 2 else c for k, c in enumerate(series)]


def _even(series):
    return [Fraction(0) if k % 2 else c for k, c in enumerate(series)]


def _root_series(genus, n):
    """Q(x) to x^n, the series of one Chern root that fixes a multiplicative
    genus as prod_i Q(x_i): each is a quotient of two exact series."""
    e = [Fraction(1, factorial(k)) for k in range(n + 2)]  # e^x; e[1:] is (e^x - 1)/x
    one = Fraction(1)
    if genus == "chern":  # 1 + x
        num, den = [one, one], [one]
    elif genus == "todd":  # x/(1 - e^-x)
        num, den = [one], _flip(e[1:])
    elif genus == "l_genus":  # x/tanh x = cosh x / (sinh x / x)
        num, den = _even(e), _even(e[1:])
    elif genus == "a_hat":  # (x/2)/sinh(x/2)
        num, den = [one], _even([c / 2**k for k, c in enumerate(e[1:])])
    else:
        raise AlgindexError(f"unknown genus {genus!r}")
    return _s_div(num, den, n)


# ---------------------------------------------------------------------------
# characteristic classes of a curvature matrix
# ---------------------------------------------------------------------------

def _power_traces(R: FormMatrix, count):
    traces = {}
    power = R
    for j in range(1, count + 1):
        if j > 1:
            power = power.matmul(R)
        if power.is_zero():
            break
        traces[j] = power.trace()
    return traces


def _log_coefficients(genus, n):
    """[b_0, ..., b_n] with genus(R) = exp(sum_j b_j tr(R^j)), b_0 = 0: the
    coefficients of log Q.  L and A-hat are even and run over one root x_j
    of each pair +-i x_j of an antisymmetric R, whose power sums are
    sum_j x_j^2k = (-1)^k tr(R^2k) / 2; their odd coefficients vanish."""
    b = _s_log(_root_series(genus, n), n)
    if genus in ("l_genus", "a_hat"):
        b = [c * Fraction((-1) ** (j // 2), 2) for j, c in enumerate(b)]
    return b


def _genus_parts(R: FormMatrix, genus, k):
    """[G_0, ..., G_k]: G_j is the part of the multiplicative genus with j
    curvature factors, by j G_j = sum_(i<=j) i b_i tr(R^i) ^ G_(j-i) with the
    b_i of :func:`_log_coefficients` (Newton's identities for ``chern``).

    The grading counts curvature factors, not form degree, so it also holds
    for matrices of degree-0 entries.  Curvature entries are even forms,
    which commute.
    """
    A = R.algebroid
    b = _log_coefficients(genus, k)
    traces = _power_traces(R, k)
    parts = [AlgForm.constant(A, 1)]
    for j in range(1, k + 1):
        acc = AlgForm.zero(A)
        for i, trace in traces.items():
            if i <= j and b[i]:
                acc = acc + parts[j - i].wedge(trace).scale(i * b[i])
        parts.append(acc.scale(Fraction(1, j)))
    return parts


def chern_class(R: FormMatrix, k: int) -> AlgForm:
    """c_k: the sum of principal k x k wedge-minors, by Newton's identities."""
    return _genus_parts(R, "chern", k)[k]


def pontryagin_class(R: FormMatrix, k: int) -> AlgForm:
    """Degree-4k component of det(1 + R) for an antisymmetrizable R."""
    return chern_class(R, 2 * k)


def pfaffian_form(R: FormMatrix, metric: Metric | None = None) -> AlgForm:
    """Pfaffian of the metric-lowered curvature; zero on odd rank."""
    A = R.algebroid
    m = R.size
    if m % 2:
        return AlgForm.zero(A)
    if metric is None:  # the identity metric lowers nothing
        lowered = R.entries
    elif metric.algebroid is not A:
        raise AlgindexError("metric lives on a different algebroid")
    elif len(metric.entries) != m:
        raise AlgindexError("the metric's rank is not the curvature's size")
    else:
        lowered = _wedge_sum([[AlgForm.constant(A, v) for v in row] for row in metric.entries],
                             R.entries)
    for i in range(m):
        for j in range(i, m):
            if not (lowered[i][j] + lowered[j][i]).is_zero():
                raise AlgindexError(
                    "lowered curvature is not antisymmetric; Pfaffian needs a metric connection"
                )
    return _pfaffian(lowered, A)


def _pfaffian(entries, algebroid):
    m = len(entries)
    if m == 0:
        return AlgForm.constant(algebroid, 1)
    acc = None
    for j in range(1, m):
        entry = entries[0][j]
        if entry.is_zero():
            continue
        keep = [i for i in range(1, m) if i != j]
        sub = [[entries[a][b] for b in keep] for a in keep]
        term = entry.wedge(_pfaffian(sub, algebroid))
        if j % 2 == 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc if acc is not None else AlgForm.zero(algebroid)


def char_class(source, genus: str, truncation_degree=None,
               metric: Metric | None = None) -> AlgForm:
    """Characteristic form of a connection or of an explicit curvature matrix.

    ``genus`` is one of chern / ch / todd / l_genus / a_hat / pfaffian.  The
    result is one inhomogeneous :class:`AlgForm`, truncated at
    ``truncation_degree`` (top degree when beyond the rank); ``degree_part``
    reads its components.  ``ch`` is additive, rank + sum_j
    tr(R^j)/j!; the Pfaffian lowers R with ``metric``; every other genus is
    multiplicative and sums the parts of :func:`_genus_parts`.
    """
    if isinstance(source, GConnection):
        R = curvature(source)
        rank_e = source.bundle_rank
    else:
        R = source
        rank_e = R.size
    A = R.algebroid
    trunc = A.rank if truncation_degree is None else min(truncation_degree, A.rank)
    max_j = trunc // 2

    if genus == "pfaffian":
        return pfaffian_form(R, metric).truncate(trunc)
    if genus == "ch":
        total = AlgForm.constant(A, rank_e)
        for j, t in _power_traces(R, max_j).items():
            total = total + t.scale(Fraction(1, factorial(j)))
        return total.truncate(trunc)
    total = AlgForm.zero(A)
    for part in _genus_parts(R, genus, max_j):
        total = total + part
    return total.truncate(trunc)


# ---------------------------------------------------------------------------
# formal Chern-roots oracle for the index-reduction identities
# ---------------------------------------------------------------------------


@dataclass
class RootsIdentityResult:
    identity: str
    half_rank: int
    truncation: int
    # measured factor on each form-degree-2d component of the stated RHS
    factors: dict
    residual_zero: bool
    residual: object
    model: str

    def __str__(self):
        status = "residual 0" if self.residual_zero else f"RESIDUAL {self.residual}"
        facts = ", ".join(f"deg {2 * d}: {f}" for d, f in sorted(self.factors.items()))
        return (
            f"roots_identity[{self.identity}, p={self.half_rank}, "
            f"trunc={self.truncation}]: {status}; normalization {{{facts}}} ({self.model})"
        )


def _poly_truncate(p: PolyScalar, degree):
    return PolyScalar(
        p.vars, {e: c for e, c in p.fraction_terms().items() if sum(e) <= degree}
    )


def _series_at_variable(series, chart, index, degree):
    terms = {}
    for k, coeff in enumerate(series[: degree + 1]):
        if coeff:
            expo = tuple(k if i == index else 0 for i in range(chart.dim))
            terms[expo] = coeff
    return PolyScalar(chart.names, terms)


def roots_identity(identity: str, half_rank: int, truncation: int) -> RootsIdentityResult:
    """Expand an index-reduction identity in formal Chern roots.

    The complexified bundle of rank 2p has roots +-x_1..+-x_p; both sides are
    expanded exactly and LHS - factor*RHS must vanish identically.  The
    factor actually required on each graded component is measured and
    reported, never assumed.  ``truncation`` counts form degree (a root has
    form degree 2).
    """
    p = int(half_rank)
    x_deg = int(truncation) // 2
    chart = Chart(tuple(f"x{j + 1}" for j in range(p)))
    n = x_deg + 1

    e_pos = [Fraction(1, factorial(k)) for k in range(n + 1)]
    e_neg = _flip(e_pos)
    if identity == "gauss_bonnet":  # (1 - e^x)(1 - e^-x) = 2 - e^x - e^-x against Euler
        ch_pair = [2 * (k == 0) - a - b for k, (a, b) in enumerate(zip(e_pos, e_neg))]
        rhs_root = [Fraction(0), Fraction(1)]
        model = "(-1)^p"
    elif identity == "signature":  # e^x - e^-x against the L-genus
        ch_pair = [a - b for a, b in zip(e_pos, e_neg)]
        rhs_root = _root_series("l_genus", x_deg)
        model = "2^(p - k) on the form-degree-2k component of the L-genus"
    else:
        raise AlgindexError(f"unknown identity {identity!r}")

    # the Todd factors Q(x) Q(-x) of the pair of roots +-x
    todd = _root_series("todd", n)
    pair = _s_mul(_s_mul(ch_pair, todd, n), _flip(todd), n)
    if pair[0] != 0:
        raise AssertionError("pair series should vanish at order zero")

    lhs = rhs = PolyScalar.const(chart.names, 1)
    for j in range(p):  # pair[1:] divides the Euler root out
        lhs = _poly_truncate(lhs * _series_at_variable(pair[1:], chart, j, x_deg), x_deg)
        rhs = _poly_truncate(rhs * _series_at_variable(rhs_root, chart, j, x_deg), x_deg)

    factors = {}
    residual = lhs
    for d in range(x_deg + 1):
        rhs_d = PolyScalar(
            chart.names, {e: c for e, c in rhs.fraction_terms().items() if sum(e) == d}
        )
        if rhs_d.is_zero():
            continue
        expo, coeff = next(iter(rhs_d.fraction_terms().items()))
        ratio = lhs.fraction_terms().get(expo, Fraction(0)) / coeff
        if ratio:
            factors[d] = ratio
            residual = residual - rhs_d * ratio
    return RootsIdentityResult(
        identity=identity,
        half_rank=p,
        truncation=truncation,
        factors=factors,
        residual_zero=residual.is_zero(),
        residual=residual,
        model=model,
    )
