"""Scalar algebroid forms, the Koszul differential and wedge algebra.

One graded type holds forms of every degree: one scalar coefficient sits on
each strictly increasing frame-index tuple of any length, and a term's
degree is the length of its tuple.  The value on an arbitrary tuple is
recovered with the sorting sign.  The differential

    d w(X_0..X_k) = sum_i (-1)^i  rho(X_i) w(.. X_i omitted ..)
                  + sum_{i<j} (-1)^{i+j} w([X_i,X_j], .. X_i, X_j omitted ..)

is a derivation, so :func:`d_g` walks the form's nonzero terms only, with
d f = sum_a rho(e_a)(f) e^a and de^c = -sum_{a<b} C^c_ab e^a ^ e^b; on the
tangent algebroid it is the de Rham differential, over a point it is the
Chevalley-Eilenberg differential.  d o d = 0 on the coordinates and the
dual frame is what makes a presentation a Lie algebroid, and that is how
``algebroid`` validates one.  Pull-back acts degree by degree.

A form with values in a trivialized rank-m bundle is a list of m forms; a
connection acts on it as d + Gamma^ (:func:`d_nabla`), whose square is R^
for the curvature R = d Gamma + Gamma ^ Gamma of ``chern_weil.curvature``
(Cartan's second structure equation; Kobayashi and Nomizu, Foundations of
Differential Geometry I, ch. III).
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

from . import linalg
from .scalars import AlgindexError, PolyScalar


def _sort_sign(indices):
    """(sign, sorted tuple) of an index tuple, or (0, None) on repeats."""
    key = tuple(sorted(indices))
    if len(set(key)) != len(key):
        return 0, None
    sign = 1
    for a, b in combinations(indices, 2):
        if a > b:
            sign = -sign
    return sign, key


class AlgForm:
    """A scalar algebroid form, homogeneous or not: the degree of a term is
    the length of its frame-index tuple."""

    def __init__(self, algebroid, coeffs=None):
        self.algebroid = algebroid
        self.coeffs = {}
        for indices, value in (coeffs or {}).items():
            indices = tuple(int(i) for i in indices)
            if list(indices) != sorted(set(indices)):
                raise AlgindexError(f"index tuple {indices} must be strictly increasing")
            if any(not 0 <= i < algebroid.rank for i in indices):
                raise AlgindexError(f"index tuple {indices} out of range")
            value = algebroid.scalar(value)
            if not value.is_zero():
                self.coeffs[indices] = value

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, algebroid):
        return cls(algebroid)

    @classmethod
    def constant(cls, algebroid, value):
        return cls(algebroid, {(): value})

    @classmethod
    def dual_basis(cls, algebroid, indices):
        """The basis form e^{i1} ^ ... ^ e^{ik} (0-based increasing indices)."""
        return cls(algebroid, {tuple(indices): 1})

    # -- grading -------------------------------------------------------------

    def degrees(self):
        """The degrees of the nonzero terms, ascending."""
        return sorted({len(indices) for indices in self.coeffs})

    @property
    def degree(self) -> int:
        """The degree of a homogeneous form; 0 for the zero form."""
        degrees = self.degrees()
        if len(degrees) > 1:
            raise AlgindexError(f"a form of degrees {degrees} has no single degree")
        return degrees[0] if degrees else 0

    def _select(self, keep):
        return AlgForm(self.algebroid, {k: v for k, v in self.coeffs.items() if keep(len(k))})

    def degree_part(self, degree) -> "AlgForm":
        return self._select(lambda d: d == degree)

    def truncate(self, max_degree) -> "AlgForm":
        return self._select(lambda d: d <= max_degree)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, AlgForm):
            return NotImplemented
        if self.algebroid is not other.algebroid:
            raise AlgindexError("forms live on different algebroids")
        out = dict(self.coeffs)
        for k, value in other.coeffs.items():
            out[k] = out[k] + value if k in out else value
        return _nonzero(self.algebroid, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = self.algebroid.scalar(scalar)
        return _nonzero(self.algebroid, {k: scalar * v for k, v in self.coeffs.items()})

    def value_on(self, indices):
        """Value on a frame tuple in any order; repeats give zero."""
        sign, key = _sort_sign(indices)
        if sign == 0 or key not in self.coeffs:
            return self.algebroid.chart.zero()
        value = self.coeffs[key]
        return value if sign == 1 else -value

    def wedge(self, other: "AlgForm") -> "AlgForm":
        if self.algebroid is not other.algebroid:
            raise AlgindexError("forms live on different algebroids")
        if self is other and all(len(k) % 2 for k in self.coeffs):
            return AlgForm(self.algebroid)  # w ^ w = 0 when every term of w has odd degree
        out = {}
        for left, lv in self.coeffs.items():
            for right, rv in other.coeffs.items():
                sign, key = _sort_sign(left + right)
                if sign == 0:
                    continue
                value = lv * rv if sign > 0 else -(lv * rv)
                out[key] = out[key] + value if key in out else value
        return _nonzero(self.algebroid, out)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, AlgForm):
            return NotImplemented
        if self.algebroid is not other.algebroid:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def is_constant(self) -> bool:
        return all(v.is_constant() for v in self.coeffs.values())

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for indices in sorted(self.coeffs, key=lambda k: (len(k), k)):
            basis = "^".join(f"e{i + 1}" for i in indices) or "1"
            body = str(self.coeffs[indices])
            pieces.append(f"({body})*{basis}" if basis != "1" else body)
        return " + ".join(pieces)

    def __repr__(self):
        return f"AlgForm({self})"


def _nonzero(algebroid, coeffs) -> AlgForm:
    """The form of the nonzero ``coeffs``, whose keys are sorted index tuples
    in range and whose values are chart scalars, so the checks of
    ``AlgForm.__init__`` are skipped."""
    form = AlgForm(algebroid)
    form.coeffs = {key: value for key, value in coeffs.items() if not value.is_zero()}
    return form


def wedge(a: AlgForm, b: AlgForm) -> AlgForm:
    return a.wedge(b)


def basis_forms(algebroid, degree):
    """All basis forms e^T of a degree."""
    return [AlgForm(algebroid, {T: algebroid.chart.one()})
            for T in combinations(range(algebroid.rank), degree)]


# ---------------------------------------------------------------------------
# connections and the differential
# ---------------------------------------------------------------------------


class GConnection:
    """Connection coefficient matrices Gamma_a on a trivialized rank-m bundle,
    declaring nabla_{e_a} s = rho(e_a)s + Gamma_a s.

    A bundle-valued form is the list of its m component forms, on which the
    connection acts as :func:`d_nabla`.  A flat connection (zero curvature,
    see chern_weil.validate_representation) is a representation, the
    precondition for d_nabla o d_nabla = 0.
    """

    def __init__(self, algebroid, bundle_rank, matrices):
        self.algebroid = algebroid
        self.bundle_rank = int(bundle_rank)
        self.matrices = [
            [[algebroid.scalar(v) for v in row] for row in mat] for mat in matrices
        ]
        if len(self.matrices) != algebroid.rank:
            raise AlgindexError("need one coefficient matrix per frame element")
        for mat in self.matrices:
            if len(mat) != self.bundle_rank or any(
                len(row) != self.bundle_rank for row in mat
            ):
                raise AlgindexError("coefficient matrices must be bundle_rank square")

    @classmethod
    def zero(cls, algebroid, bundle_rank):
        z = algebroid.chart.zero()
        mats = [
            [[z] * bundle_rank for _ in range(bundle_rank)]
            for _ in range(algebroid.rank)
        ]
        return cls(algebroid, bundle_rank, mats)

    def one_forms(self):
        """The m x m matrix of connection 1-forms Gamma_jl = sum_a Gamma_a[j][l] e^a."""
        m = self.bundle_rank
        return [[_nonzero(self.algebroid, {(a,): mat[j][l] for a, mat in enumerate(self.matrices)})
                 for l in range(m)] for j in range(m)]


def d_g(form: AlgForm) -> AlgForm:
    """The Koszul differential of a scalar form over its nonzero terms: d(w e^T) =
    sum_a rho(e_a)(w) e^a ^ e^T + w sum_j (-1)^j e^T<j ^ de^T_j ^ e^T>j; moving
    a new e^a past the p indices below it to its sorted place gives (-1)^p."""
    A = form.algebroid
    out = {}

    def add(key, value):
        out[key] = out[key] + value if key in out else value

    for T, w in form.coeffs.items():
        if not w.is_constant():
            for a in range(A.rank):
                if a not in T:
                    p, value = bisect(T, a), A.anchor_apply(a, w)
                    add(T[:p] + (a,) + T[p:], -value if p % 2 else value)
        for j, t in enumerate(T):
            rest = T[:j] + T[j + 1:]
            for a, b, c, minus_c in A.structure_into[t]:  # de^t = -sum C^t_ab e^a ^ e^b
                if a not in rest and b not in rest:
                    p, q = bisect(rest, a), bisect(rest, b)
                    add(rest[:p] + (a,) + rest[p:q] + (b,) + rest[q:],
                        w * (c if (j + p + q) % 2 else minus_c))
    return _nonzero(A, out)


def d_nabla(forms, conn: GConnection):
    """d + Gamma^ on a form with values in the connection's bundle, given as
    the list of its components: [d_g(w_j) + sum_l Gamma_jl ^ w_l]."""
    A = conn.algebroid
    if len(forms) != conn.bundle_rank:
        raise AlgindexError("bundle ranks of form and representation differ")
    if any(w.algebroid is not A for w in forms):
        raise AlgindexError("form and representation live on different algebroids")
    return [sum((g.wedge(w) for g, w in zip(row, forms)), d_g(forms[j]))
            for j, row in enumerate(conn.one_forms())]


# ---------------------------------------------------------------------------
# pull-back of forms along morphisms
# ---------------------------------------------------------------------------


def _scalar_det(rows, chart):
    """Determinant of a small matrix of chart scalars (Leibniz expansion)."""
    total = chart.zero()
    for perm in permutations(range(len(rows))):
        sign, _ = _sort_sign(perm)
        term = chart.one()
        for row, j in zip(rows, perm):
            term = term * row[j]
        total = total + term if sign > 0 else total - term
    return total


def pullback_form(morphism, form: AlgForm) -> AlgForm:
    """(f, phi)* of a form, degree by degree; commutes with the differential."""
    if form.algebroid is not morphism.target:
        raise AlgindexError("form does not live on the morphism target")
    src = morphism.source
    phi = morphism.bundle_map
    out = {}
    for k in form.degrees():
        terms = [(beta, coeff) for beta, coeff in form.coeffs.items() if len(beta) == k]
        for alpha in combinations(range(src.rank), k):
            value = src.chart.zero()
            for beta, coeff in terms:
                rows = [[phi[a][b] for b in beta] for a in alpha]
                minor = _scalar_det(rows, src.chart)
                if not minor.is_zero():
                    value = value + morphism.compose_scalar(coeff) * minor
            if not value.is_zero():
                out[alpha] = value
    return AlgForm(src, out)


# ---------------------------------------------------------------------------
# cohomology in the constant-coefficient case
# ---------------------------------------------------------------------------


def _constant_checks(algebroid, rep):
    if algebroid.base_dim != 0:
        raise AlgindexError("constant-coefficient cohomology needs base_dim = 0")
    for (_, _), coeffs in algebroid.structure.items():
        for c in coeffs:
            if not c.is_constant():
                raise AlgindexError("non-constant structure functions")
    for mat in rep.matrices:
        for row in mat:
            for v in row:
                if not v.is_constant():
                    raise AlgindexError("non-constant representation matrices")


_WEIGHT_SUMS = 1 << 18  # the weights a weight table may hold; past them its torus is dropped


def _exact_constants(algebroid, rep):
    """Brackets and representation rows as exact nonzero (index, value)
    lists, then the :func:`_weight_table` of the torus weights of the basis
    and the bundle vectors.  A torus element e_a has [e_a, e_b] in Q e_b for
    all b, rho(e_a) diagonal and an eigenvalue not 0; weights are packed into
    ints in a base above twice any sum of |coordinates|, keeping equality."""
    def nonzero(row):
        return [(j, linalg.exact(v.constant_value())) for j, v in enumerate(row) if not v.is_zero()]
    brackets = {key: nonzero(coeffs) for key, coeffs in algebroid.structure.items()}
    weights = [[nonzero(row) for row in w] for w in rep.matrices]
    r, m, torus = algebroid.rank, rep.bundle_rank, []
    for a in range(r):  # ad[b]: [e_a, e_b]
        ad = {x + y - a: [(g, v if a == x else -v) for g, v in entries]
              for (x, y), entries in brackets.items() if a in (x, y)}
        lam = [ad[b][0][1] if ad.get(b) else 0 for b in range(r)]
        mu = [sum(v for _, v in row) for row in weights[a]]
        if (all([g for g, _ in e] in ([], [b]) for b, e in ad.items()) and any(lam + mu)
                and all(j == l for l, row in enumerate(weights[a]) for j, _ in row)):
            torus.append(lam + mu)
    scale = lcm(*(v.denominator for vector in torus for v in vector))
    base = 1 + 2 * scale * max((sum(map(abs, vector)) for vector in torus), default=0)
    packed = [sum(int(vector[i] * scale) * base ** t for t, vector in enumerate(torus))
              for i in range(r + m)]
    return (brackets, weights) + _weight_table(packed[:r], packed[r:])


def _weight_table(lam, mu):
    """(lam, mu, table): table[b][c], c <= r - b, counts the pairs (U, j), U a
    c-subset of b..r-1, by the weight w that makes w + weight(U) = weight(j),
    so table[0][k].get(0, 0) is the weight-zero dimension.  Past _WEIGHT_SUMS
    weights the torus is dropped: lam and mu become 0."""
    row = [{w: mu.count(w) for w in mu}]
    table, size = [row], 0
    for weight in reversed(lam):
        row = row[:1] + [dict(cell) for cell in row[1:]] + [{}]
        for c in range(len(row) - 1, 0, -1):  # row[c - 1] is not yet updated
            for w, n in row[c - 1].items():
                row[c][w - weight] = row[c].get(w - weight, 0) + n
        if (size := size + sum(map(len, row))) > _WEIGHT_SUMS and any(lam + mu):
            return _weight_table([0] * len(lam), [0] * len(mu))
        table.append(row)
    return lam, mu, table[::-1]


def _weight_zero(constants, degree):
    """The weight-zero cochains of a degree as (T, [j, ...]), T in combinations
    order; T grows only while the table says it can still reach weight zero."""
    lam, mu, table = constants[2:]
    level = [((), 0)] if 0 in table[0][degree] else []
    for c in range(degree, 0, -1):
        level = [(T + (a,), w + lam[a]) for T, w in level
                 for a in range(T[-1] + 1 if T else 0, len(lam) - c + 1)
                 if w + lam[a] in table[a + 1][c - 1]]
    return [(T, [j for j, v in enumerate(mu) if v == w]) for T, w in level]


def _differential_matrix(constants, rows, columns):
    """The exact rows ``{column: value}``, one by one, of d from the
    :func:`_weight_zero` cochains ``columns`` of a degree to ``rows`` of the next.

    From the structure constants c and representation matrices w (integral
    ones as ints), the row of (S, l) gets (-1)^i w_{S_i}[l][j] where T is S
    without S_i, and, for l = j, (-1)^(i+j) c^g_{S_i S_j} times the sorting
    sign of (g, S without S_i and S_j) where that sorts to T; never a zero.
    """
    brackets, weights = constants[:2]
    column = {(T, j): n for n, (T, j) in enumerate((T, j) for T, js in columns for j in js)}
    for S, ls in rows:
        block = [{} for _ in ls]
        for i, alpha in enumerate(S):
            for row, l in zip(block, ls):
                for j, v in weights[alpha][l]:
                    if (n := column.get((S[:i] + S[i + 1:], j))) is not None:
                        linalg.add_entry(row, n, v if i % 2 == 0 else -v)
        for i, j in combinations(range(len(S)), 2):
            rest = S[:i] + S[i + 1:j] + S[j + 1:]
            for gamma, c in brackets.get((S[i], S[j]), ()):
                sign, T = _sort_sign((gamma,) + rest)  # T is None where sign is 0
                for row, l in zip(block, ls):
                    if (n := column.get((T, l))) is not None:
                        linalg.add_entry(row, n, c if sign * (-1) ** (i + j) > 0 else -c)
        yield from block


def cohomology_const(algebroid, rep=None, max_degree=None):
    """Betti numbers of the constant-coefficient complex, exact ranks.

    Built on the joint weight-zero cochains alone: by Cartan's formula L_h =
    d i_h + i_h d, a weight space where a torus element h acts by a nonzero
    scalar is acyclic, and torus elements commute ([e_a, e_a'] = x e_a' =
    -x' e_a forces x = x' = 0).  Each matrix is refused by the size it will
    have before any basis is enumerated; each basis is built once."""
    rep = rep or GConnection.zero(algebroid, 1)
    _constant_checks(algebroid, rep)
    r = algebroid.rank
    max_degree = r if max_degree is None else min(max_degree, r)
    constants = _exact_constants(algebroid, rep)
    dims = [counts.get(0, 0) for counts in constants[-1][0]] + [0]
    for k in range(max_degree + 1):
        linalg.check_size(dims[k + 1] * dims[k], f"the degree-{k} differential matrix")
    bases = [_weight_zero(constants, k) for k in range(min(max_degree + 2, r + 1))]
    ranks = [linalg.rank(list(_differential_matrix(constants, bases[k + 1], bases[k])))
             if k < r else 0 for k in range(max_degree + 1)]
    return linalg.betti_numbers(dims[:max_degree + 1], ranks)


def is_cocycle(form: AlgForm) -> bool:
    return d_g(form).is_zero()


def coboundary_witness(form: AlgForm, ansatz_degree=None):
    """Search for beta with d beta = form.

    In the constant case this solves the exact linear system and the answer
    is definitive.  Over a chart it searches polynomial coefficients up to
    ``ansatz_degree`` and returning None then only means "not found within
    the ansatz", never "not exact".  The zero form is d of the zero form; a
    form of mixed degree raises :class:`AlgindexError`.
    """
    A = form.algebroid
    if form.is_zero():
        return AlgForm.zero(A)
    if form.degree == 0:
        return None
    k = form.degree - 1
    if A.base_dim == 0 and form.is_constant():
        candidates = basis_forms(A, k)
    else:
        if ansatz_degree is None:
            raise AlgindexError("chart-case coboundary search needs an ansatz degree")
        monomials = _monomials_up_to(A.chart, ansatz_degree)
        candidates = [base.scale(mono) for base in basis_forms(A, k) for mono in monomials]

    def _flat(w):
        # one linear equation per (tuple, monomial)
        return {(T, expo): c for T, v in w.coeffs.items() for expo, c in _poly_terms(v)}

    images = [_flat(d_g(c)) for c in candidates]
    target = _flat(form)
    keys = sorted(set(target).union(*images))
    matrix = [[image.get(key, Fraction(0)) for image in images] for key in keys]
    solution = linalg.solve(matrix, [target.get(key, Fraction(0)) for key in keys])
    if solution is None:
        return None
    witness = AlgForm.zero(A)
    for coeff, candidate in zip(solution, candidates):
        if coeff:
            witness = witness + candidate.scale(coeff)
    return witness


def _monomials_up_to(chart, degree):
    out = []
    for expo in product(range(degree + 1), repeat=chart.dim):
        if sum(expo) <= degree:
            mono = chart.one()
            for i, e in enumerate(expo):
                for _ in range(e):
                    mono = mono * chart.coord(i)
            out.append(mono)
    return out


def _poly_terms(scalar):
    if isinstance(scalar, PolyScalar):
        return list(scalar.fraction_terms().items())
    if scalar.is_constant():
        value = scalar.constant_value()
        expo = (0,) * len(scalar.vars)
        return [(expo, value)] if value else []
    raise AlgindexError("exact coefficient matching needs polynomial scalars")
