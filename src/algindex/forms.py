"""E-valued algebroid forms, the Koszul differential and wedge algebra.

One graded type holds forms of every degree: coefficients sit on strictly
increasing frame-index tuples of any length, and a term's degree is the
length of its tuple.  The value on an arbitrary tuple is recovered with the
sorting sign.  The differential

    d w(X_0..X_k) = sum_i (-1)^i  nabla_{X_i} w(.. X_i omitted ..)
                  + sum_{i<j} (-1)^{i+j} w([X_i,X_j], .. X_i, X_j omitted ..)

acts degree by degree and is the unique sign arrangement with d o d = 0
(enforced by the test suite); on the tangent algebroid with the trivial
connection it is the de Rham differential, over a point it is the
Chevalley-Eilenberg differential.  Pull-back also acts degree by degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from . import linalg
from .algebroid import AlgebroidPresentation, AlgebroidMorphism
from .scalars import AlgindexError


def _sort_sign(indices):
    """(sign, sorted tuple) of an index tuple, or (0, None) on repeats."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        return 0, None
    sign = 1
    for i in range(len(indices)):
        for j in range(i + 1, len(indices)):
            if indices[i] > indices[j]:
                sign = -sign
    return sign, tuple(sorted(indices))


class AlgForm:
    """A bundle-valued algebroid form, homogeneous or not: the degree of a
    term is the length of its frame-index tuple."""

    def __init__(self, algebroid: AlgebroidPresentation, coeffs=None, *, bundle_rank=1):
        self.algebroid = algebroid
        self.bundle_rank = int(bundle_rank)
        self.coeffs = {}
        for indices, values in (coeffs or {}).items():
            indices = tuple(int(i) for i in indices)
            if list(indices) != sorted(set(indices)):
                raise AlgindexError(f"index tuple {indices} must be strictly increasing")
            if any(not 0 <= i < algebroid.rank for i in indices):
                raise AlgindexError(f"index tuple {indices} out of range")
            if not isinstance(values, (tuple, list)):
                values = (values,)
            if len(values) != self.bundle_rank:
                raise AlgindexError("coefficient vector has wrong bundle rank")
            values = tuple(algebroid.scalar(v) for v in values)
            if any(not v.is_zero() for v in values):
                self.coeffs[indices] = values

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, algebroid, *, bundle_rank=1):
        return cls(algebroid, bundle_rank=bundle_rank)

    @classmethod
    def constant(cls, algebroid, value, bundle_rank=1):
        if bundle_rank == 1 and not isinstance(value, (tuple, list)):
            value = (value,)
        return cls(algebroid, {(): tuple(value)}, bundle_rank=bundle_rank)

    @classmethod
    def dual_basis(cls, algebroid, indices):
        """The basis form e^{i1} ^ ... ^ e^{ik} (0-based increasing indices)."""
        return cls(algebroid, {tuple(indices): (1,)})

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
        return AlgForm(
            self.algebroid,
            {k: v for k, v in self.coeffs.items() if keep(len(k))},
            bundle_rank=self.bundle_rank,
        )

    def degree_part(self, degree) -> "AlgForm":
        return self._select(lambda d: d == degree)

    def truncate(self, max_degree) -> "AlgForm":
        return self._select(lambda d: d <= max_degree)

    # -- algebra -------------------------------------------------------------

    def _compatible(self, other):
        if self.algebroid is not other.algebroid:
            raise AlgindexError("forms live on different algebroids")
        if self.bundle_rank != other.bundle_rank:
            raise AlgindexError("forms have different bundle ranks")

    def __add__(self, other):
        if not isinstance(other, AlgForm):
            return NotImplemented
        self._compatible(other)
        out = {k: list(v) for k, v in self.coeffs.items()}
        for k, values in other.coeffs.items():
            if k in out:
                out[k] = [a + b for a, b in zip(out[k], values)]
            else:
                out[k] = list(values)
        return AlgForm(self.algebroid, out, bundle_rank=self.bundle_rank)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = self.algebroid.scalar(scalar)
        out = {
            k: tuple(scalar * v for v in values) for k, values in self.coeffs.items()
        }
        return AlgForm(self.algebroid, out, bundle_rank=self.bundle_rank)

    def value_on(self, indices):
        """Value on a frame tuple in any order; repeats give zero."""
        sign, key = _sort_sign(indices)
        zero = self.algebroid.chart.zero()
        if sign == 0 or key not in self.coeffs:
            return tuple(zero for _ in range(self.bundle_rank))
        values = self.coeffs[key]
        if sign == 1:
            return values
        return tuple(-v for v in values)

    def wedge(self, other: "AlgForm") -> "AlgForm":
        if self.algebroid is not other.algebroid:
            raise AlgindexError("forms live on different algebroids")
        if self.bundle_rank != 1 and other.bundle_rank != 1:
            raise AlgindexError("wedge needs at least one scalar-valued factor")
        out = {}
        for left, lv in self.coeffs.items():
            for right, rv in other.coeffs.items():
                sign, key = _sort_sign(left + right)
                if sign == 0:
                    continue
                if self.bundle_rank == 1:
                    values = [lv[0] * v for v in rv]
                else:
                    values = [v * rv[0] for v in lv]
                if sign < 0:
                    values = [-v for v in values]
                if key in out:
                    out[key] = [a + b for a, b in zip(out[key], values)]
                else:
                    out[key] = values
        return AlgForm(
            self.algebroid, out, bundle_rank=max(self.bundle_rank, other.bundle_rank)
        )

    def is_zero(self) -> bool:
        return all(v.is_zero() for values in self.coeffs.values() for v in values)

    def __eq__(self, other):
        if not isinstance(other, AlgForm):
            return NotImplemented
        if self.algebroid is not other.algebroid or self.bundle_rank != other.bundle_rank:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def is_constant(self) -> bool:
        return all(v.is_constant() for values in self.coeffs.values() for v in values)

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for indices in sorted(self.coeffs, key=lambda k: (len(k), k)):
            values = self.coeffs[indices]
            basis = "^".join(f"e{i + 1}" for i in indices) or "1"
            body = (
                str(values[0])
                if self.bundle_rank == 1
                else "(" + ", ".join(str(v) for v in values) + ")"
            )
            pieces.append(f"({body})*{basis}" if basis != "1" else body)
        return " + ".join(pieces)

    def __repr__(self):
        return f"AlgForm({self})"


def wedge(a: AlgForm, b: AlgForm) -> AlgForm:
    return a.wedge(b)


def basis_forms(algebroid, degree, bundle_rank=1):
    """All basis forms of a degree (times bundle basis vectors)."""
    out = []
    for indices in combinations(range(algebroid.rank), degree):
        for j in range(bundle_rank):
            values = tuple(
                algebroid.chart.one() if i == j else algebroid.chart.zero()
                for i in range(bundle_rank)
            )
            out.append(AlgForm(algebroid, {indices: values}, bundle_rank=bundle_rank))
    return out


# ---------------------------------------------------------------------------
# connections and the differential
# ---------------------------------------------------------------------------


class GConnection:
    """Connection coefficient matrices Gamma_a on a rank-m bundle, declaring
    nabla_{e_a} s = rho(e_a)s + Gamma_a s.

    A flat connection (zero curvature, see chern_weil.validate_representation)
    is a representation, the precondition for d o d = 0 on bundle-valued forms.
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

    def apply(self, frame_index, values):
        """nabla_{e_a} on a coefficient vector of sections."""
        A = self.algebroid
        mat = self.matrices[frame_index]
        out = []
        for j in range(self.bundle_rank):
            term = A.anchor_apply(frame_index, values[j])
            for l in range(self.bundle_rank):
                if not mat[j][l].is_zero():
                    term = term + mat[j][l] * values[l]
            out.append(term)
        return tuple(out)


def d_g(form: AlgForm, rep: GConnection | None = None) -> AlgForm:
    """The Koszul differential of a form with respect to a connection, taken
    degree by degree."""
    A = form.algebroid
    if rep is None:
        rep = GConnection.zero(A, form.bundle_rank)
    if rep.algebroid is not A:
        raise AlgindexError("form and representation live on different algebroids")
    if rep.bundle_rank != form.bundle_rank:
        raise AlgindexError("bundle ranks of form and representation differ")
    zero = A.chart.zero()
    out = {}
    for k in form.degrees():
        for T in combinations(range(A.rank), k + 1):
            total = [zero] * form.bundle_rank
            for i, alpha in enumerate(T):
                rest = T[:i] + T[i + 1 :]
                nabla = rep.apply(alpha, form.value_on(rest))
                if i % 2 == 0:
                    total = [t + v for t, v in zip(total, nabla)]
                else:
                    total = [t - v for t, v in zip(total, nabla)]
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    rest = tuple(T[l] for l in range(k + 1) if l != i and l != j)
                    coeffs = A.bracket(T[i], T[j])
                    for gamma in range(A.rank):
                        if coeffs[gamma].is_zero():
                            continue
                        values = form.value_on((gamma,) + rest)
                        sign = 1 if (i + j) % 2 == 0 else -1
                        for l in range(form.bundle_rank):
                            term = coeffs[gamma] * values[l]
                            total[l] = total[l] + term if sign > 0 else total[l] - term
            if any(not t.is_zero() for t in total):
                out[T] = tuple(total)
    return AlgForm(A, out, bundle_rank=form.bundle_rank)


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


def pullback_form(morphism: AlgebroidMorphism, form: AlgForm) -> AlgForm:
    """(f, phi)* of a scalar-valued form, degree by degree; commutes with the
    differential."""
    if form.algebroid is not morphism.target:
        raise AlgindexError("form does not live on the morphism target")
    if form.bundle_rank != 1:
        raise AlgindexError("pull-back is implemented for scalar-valued forms")
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
                    value = value + morphism.compose_scalar(coeff[0]) * minor
            if not value.is_zero():
                out[alpha] = (value,)
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


def _differential_matrix(algebroid, rep, degree):
    """Rows ``{column: value}`` of d on the (tuple, bundle-index) basis, exact.

    Built straight from the structure constants c and the representation
    matrices w, as the differential acts on the basis form of (T, j): the row
    of (S, l) gets (-1)^i w_{S_i}[l][j] where T is S without S_i, and, for
    l = j, (-1)^(i+j) c^g_{S_i S_j} times the sorting sign of
    (g, S without S_i and S_j) where that sorts to T.  Integral constants are
    ints, so the rows add up in int arithmetic, and no row stores a zero.
    """
    r, m = algebroid.rank, rep.bundle_rank
    n_rows, n_cols = comb(r, degree + 1) * m, comb(r, degree) * m
    linalg.check_size(n_rows * n_cols, f"the degree-{degree} differential matrix")
    brackets = {
        key: [(g, linalg.exact(c.constant_value())) for g, c in enumerate(coeffs)
              if not c.is_zero()]
        for key, coeffs in algebroid.structure.items()
    }
    weights = [
        [[(j, linalg.exact(v.constant_value())) for j, v in enumerate(row) if not v.is_zero()]
         for row in w]
        for w in rep.matrices
    ]
    column = {T: n * m for n, T in enumerate(combinations(range(r), degree))}
    matrix = [{} for _ in range(n_rows)]
    for n, S in enumerate(combinations(range(r), degree + 1)):
        rows = matrix[n * m:(n + 1) * m]
        for i, alpha in enumerate(S):
            col = column[S[:i] + S[i + 1:]]
            for row, entries in zip(rows, weights[alpha]):
                for j, v in entries:
                    linalg.add_entry(row, col + j, v if i % 2 == 0 else -v)
        for i, j in combinations(range(degree + 1), 2):
            rest = S[:i] + S[i + 1:j] + S[j + 1:]
            for gamma, c in brackets.get((S[i], S[j]), ()):
                sign, T = _sort_sign((gamma,) + rest)
                if sign:
                    value = c if sign * (-1) ** (i + j) > 0 else -c
                    for l, row in enumerate(rows):
                        linalg.add_entry(row, column[T] + l, value)
    return matrix


def cohomology_const(algebroid, rep=None, max_degree=None):
    """Betti numbers of the constant-coefficient complex, exact ranks."""
    rep = rep or GConnection.zero(algebroid, 1)
    _constant_checks(algebroid, rep)
    r = algebroid.rank
    max_degree = r if max_degree is None else min(max_degree, r)
    m = rep.bundle_rank
    dims = [comb(r, k) * m for k in range(max_degree + 1)]
    ranks = []
    for k in range(max_degree + 1):
        if k == r:
            ranks.append(0)
        else:
            ranks.append(linalg.rank(_differential_matrix(algebroid, rep, k)))
    return linalg.betti_numbers(dims, ranks)


def is_cocycle(form: AlgForm, rep=None) -> bool:
    return d_g(form, rep).is_zero()


def coboundary_witness(form: AlgForm, rep=None, ansatz_degree=None):
    """Search for beta with d beta = form.

    In the constant case this solves the exact linear system and the answer
    is definitive.  Over a chart it searches polynomial coefficients up to
    ``ansatz_degree`` and returning None then only means "not found within
    the ansatz", never "not exact".  The zero form is d of the zero form; a
    form of mixed degree raises :class:`AlgindexError`.
    """
    A = form.algebroid
    rep = rep or GConnection.zero(A, form.bundle_rank)
    if form.is_zero():
        return AlgForm.zero(A, bundle_rank=form.bundle_rank)
    if form.degree == 0:
        return None
    k = form.degree - 1
    if A.base_dim == 0 and form.is_constant():
        candidates = basis_forms(A, k, form.bundle_rank)
    else:
        if ansatz_degree is None:
            raise AlgindexError("chart-case coboundary search needs an ansatz degree")
        monomials = _monomials_up_to(A.chart, ansatz_degree)
        candidates = [
            base.scale(mono)
            for base in basis_forms(A, k, form.bundle_rank)
            for mono in monomials
        ]
    images = [d_g(c, rep) for c in candidates]
    equations, rhs = _match_coefficients(images, form)
    solution = linalg.solve(equations, rhs)
    if solution is None:
        return None
    witness = AlgForm.zero(A, bundle_rank=form.bundle_rank)
    for coeff, candidate in zip(solution, candidates):
        if coeff:
            witness = witness + candidate.scale(coeff)
    return witness


def _monomials_up_to(chart, degree):
    from itertools import product as iproduct

    out = []
    for expo in iproduct(range(degree + 1), repeat=chart.dim):
        if sum(expo) <= degree:
            mono = chart.one()
            for i, e in enumerate(expo):
                for _ in range(e):
                    mono = mono * chart.coord(i)
            out.append(mono)
    return out


def _match_coefficients(images, target):
    """Linear system rows: one per (tuple, bundle index, monomial)."""
    keys = set()
    table = []
    for image in images:
        flat = {}
        for T, values in image.coeffs.items():
            for j, v in enumerate(values):
                for expo, c in _poly_terms(v):
                    flat[(T, j, expo)] = flat.get((T, j, expo), Fraction(0)) + c
                    keys.add((T, j, expo))
        table.append(flat)
    tflat = {}
    for T, values in target.coeffs.items():
        for j, v in enumerate(values):
            for expo, c in _poly_terms(v):
                tflat[(T, j, expo)] = tflat.get((T, j, expo), Fraction(0)) + c
                keys.add((T, j, expo))
    keys = sorted(keys)
    matrix = [[table[c].get(key, Fraction(0)) for c in range(len(images))] for key in keys]
    rhs = [tflat.get(key, Fraction(0)) for key in keys]
    return matrix, rhs


def _poly_terms(scalar):
    from .scalars import PolyScalar

    if isinstance(scalar, PolyScalar):
        return list(scalar.terms.items())
    if scalar.is_constant():
        value = scalar.constant_value()
        expo = (0,) * len(scalar.vars)
        return [(expo, value)] if value else []
    raise AlgindexError("exact coefficient matching needs polynomial scalars")
