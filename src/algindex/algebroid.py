"""Lie algebroid presentations in a finite frame over a single chart.

A presentation stores the anchor matrix and the structure functions of a
frame e_1..e_r over chart coordinates x_1..x_n:

    rho(e_a) = sum_i anchor[a][i] d/dx_i
    [e_a, e_b] = sum_c C^c_ab e_c        (C stored for a < b only)

Antisymmetry is structural; ``validate`` reports every nonzero value of
d o d on the coordinates and the dual frame, where the Koszul differential
``forms.d_g`` squares to zero exactly on Lie algebroids.  Direct products
live here as well, and so do trivial-fibration pull-backs, which are
products with the tangent algebroid of the fiber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice

from .forms import AlgForm, d_g
from .scalars import AlgindexError, Chart


class PresentationError(AlgindexError):
    """Malformed arrays or dimension mismatches."""


@dataclass
class Violation:
    kind: str
    indices: tuple
    residual: object

    def __str__(self):
        return f"{self.kind} at {self.indices}: residual {self.residual}"


@dataclass
class ValidationReport:
    subject: str
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, indices, residual):
        self.violations.append(Violation(kind, tuple(indices), residual))

    def __str__(self):
        if self.ok:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


@dataclass
class PullbackData:
    """Bookkeeping for ``product(parent, fiber)`` built by :func:`pullback`.

    The parent's frame and coordinates lead the product's, so their indices
    carry over unchanged; the fiber's follow them.
    """

    parent: "AlgebroidPresentation"
    # the tangent algebroid of R^m on the fiber coordinates u_1..u_m
    fiber: "AlgebroidPresentation"
    # frame indices of the vertical fields, chart indices of the fiber coordinates
    vertical: tuple
    fiber_coords: tuple

    @property
    def fiber_dim(self):
        return self.fiber.rank


class AlgebroidPresentation:
    """A Lie algebroid in a finite frame over one chart."""

    def __init__(self, chart: Chart, rank: int, anchor, structure, name="algebroid"):
        self.chart = chart
        self.rank = int(rank)
        self.name = name
        self.pullback_data = None
        if len(anchor) != self.rank:
            raise PresentationError("anchor needs one row per frame element")
        self.anchor = [
            [chart.coerce(entry) for entry in row] for row in anchor
        ]
        for row in self.anchor:
            if len(row) != chart.dim:
                raise PresentationError("anchor rows must match the chart dimension")
        # anchor_terms[a]: (i, rho^i_a) where rho^i_a != 0, the terms of anchor_apply
        self.anchor_terms = [[(i, v) for i, v in enumerate(row) if not v.is_zero()]
                             for row in self.anchor]
        self.structure = {}
        # structure_into[c]: (a, b, C^c_ab, -C^c_ab), a < b, C^c_ab != 0; d_g takes either sign
        self.structure_into = [[] for _ in range(self.rank)]
        for key, coeffs in structure.items():
            a, b = key
            if not (0 <= a < self.rank and 0 <= b < self.rank):
                raise PresentationError(f"structure index {key} out of range")
            if a == b:
                raise PresentationError("diagonal structure entries must be absent")
            coeffs = [chart.coerce(c) for c in coeffs]
            if len(coeffs) != self.rank:
                raise PresentationError("structure coefficient vector has wrong length")
            if a > b:
                a, b, coeffs = b, a, [-c for c in coeffs]
            if (a, b) in self.structure:
                raise PresentationError(f"duplicate structure entry for {(a, b)}")
            for c, value in enumerate(coeffs):
                if not value.is_zero():
                    self.structure[(a, b)] = coeffs
                    self.structure_into[c].append((a, b, value, -value))

    @property
    def base_dim(self):
        return self.chart.dim

    def scalar(self, value):
        return self.chart.coerce(value)

    def bracket(self, a, b):
        """Coefficients of [e_a, e_b] in the frame (antisymmetry applied)."""
        if a == b:
            return [self.chart.zero()] * self.rank
        if a < b:
            coeffs = self.structure.get((a, b))
            return list(coeffs) if coeffs else [self.chart.zero()] * self.rank
        coeffs = self.structure.get((b, a))
        return [-c for c in coeffs] if coeffs else [self.chart.zero()] * self.rank

    def anchor_apply(self, a, scalar):
        """Derivation rho(e_a) acting on a chart scalar."""
        return sum((coeff * scalar.derive(i) for i, coeff in self.anchor_terms[a]),
                   self.chart.zero())

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """A presentation is a Lie algebroid exactly when d o d = 0 on the
        coordinates x_i and the dual frame e^c (Vaintrob, Lie algebroids and
        homological vector fields, Russian Math. Surveys 52, 1997), where

            -(d^2 x_i)(e_a, e_b) = rho([e_a, e_b]) x_i - [rho(e_a), rho(e_b)] x_i
            (d^2 e^e)(e_a, e_b, e_c) = ([[e_a, e_b], e_c] + cyclic)^e.

        An ``anchor-morphism`` violation (a, b, i) reports the first and a
        ``jacobi`` violation (a, b, c) the second, at the first e where it
        is nonzero.
        """
        report = ValidationReport(self.name)
        anchor = [((a + 1, b + 1, i + 1), -value) for i in range(self.base_dim) for (a, b), value
                  in d_g(d_g(AlgForm.constant(self, self.chart.coord(i)))).coeffs.items()]
        for indices, residual in sorted(anchor, key=lambda item: item[0]):
            report.add("anchor-morphism", indices, residual)
        jacobi = [d_g(d_g(AlgForm.dual_basis(self, (e,)))).coeffs for e in range(self.rank)]
        for T in sorted(set().union(*jacobi)):
            report.add("jacobi", [t + 1 for t in T], next(dd[T] for dd in jacobi if T in dd))
        return report

    def __repr__(self):
        return (
            f"AlgebroidPresentation({self.name!r}, rank={self.rank}, "
            f"base_dim={self.base_dim})"
        )


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _default_chart(n):
    return Chart(tuple(f"x{i + 1}" for i in range(n)))


def tangent(n, chart=None, name=None):
    """The tangent algebroid of an n-dimensional chart (identity anchor)."""
    chart = chart or _default_chart(n)
    if chart.dim != n:
        raise PresentationError("chart dimension must equal n")
    anchor = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return AlgebroidPresentation(chart, n, anchor, {}, name or f"tangent({n})")


def lie_algebra(structure, rank, name="lie_algebra"):
    """A Lie algebra presented over a point (base_dim 0, zero anchor)."""
    chart = Chart((), "poly")
    anchor = [[] for _ in range(rank)]
    A = AlgebroidPresentation(chart, rank, anchor, structure, name)
    report = A.validate()
    if not report.ok:
        raise PresentationError(f"structure constants are not a Lie algebra:\n{report}")
    return A


def action_algebroid(structure, vector_fields, chart, name="action"):
    """Action algebroid: Lie algebra structure plus vector-field images.

    ``vector_fields[a]`` is the coefficient list of the image of the a-th
    generator.  Validity (that the images realize the bracket relations) is
    checked by ``validate``.
    """
    rank = len(vector_fields)
    A = AlgebroidPresentation(chart, rank, vector_fields, structure, name)
    report = A.validate()
    if not report.ok:
        raise PresentationError(f"not a Lie algebra action:\n{report}")
    return A


def abelian_bundle(n, rank, chart=None, name=None):
    """Trivial bundle with zero anchor and zero bracket."""
    chart = chart or _default_chart(n)
    anchor = [[0] * n for _ in range(rank)]
    return AlgebroidPresentation(
        chart, rank, anchor, {}, name or f"abelian({n},{rank})"
    )


def su2(name="su2"):
    """Structure constants C^3_12 = C^1_23 = C^2_31 = 1 over a point."""
    structure = {
        (0, 1): [0, 0, 1],
        (1, 2): [1, 0, 0],
        (0, 2): [0, -1, 0],
    }
    return lie_algebra(structure, 3, name)


def aff1(name="aff1"):
    """The nonabelian 2-dimensional Lie algebra, [e1, e2] = e2."""
    return lie_algebra({(0, 1): [0, 1]}, 2, name)


def product(a1: AlgebroidPresentation, a2: AlgebroidPresentation, name=None):
    """Direct product; mixed brackets vanish, anchors act blockwise.

    The chart is a1's names then a2's, each suffixed _1 or _2 if they clash.
    """
    if a1.chart.backend != a2.chart.backend:
        raise PresentationError("product factors must share a scalar backend")
    names1, names2 = a1.chart.names, a2.chart.names
    if set(names1) & set(names2):
        names1 = tuple(f"{n}_1" for n in names1)
        names2 = tuple(f"{n}_2" for n in names2)
    chart = Chart(names1 + names2, a1.chart.backend)
    n1, n2, r1, r2 = a1.base_dim, a2.base_dim, a1.rank, a2.rank
    names, zero = chart.names, chart.zero()
    # a2's coordinates sit after a1's: its scalars' indices move up by n1
    anchor = [[v.extend_vars(names) for v in row] + [zero] * n2 for row in a1.anchor]
    anchor += [[zero] * n1 + [v.extend_vars(names, n1) for v in row] for row in a2.anchor]
    structure = {k: [c.extend_vars(names) for c in cs] + [zero] * r2
                 for k, cs in a1.structure.items()}
    for (x, y), coeffs in a2.structure.items():
        structure[(x + r1, y + r1)] = [zero] * r1 + [c.extend_vars(names, n1) for c in coeffs]
    return AlgebroidPresentation(chart, r1 + r2, anchor, structure, name or f"{a1.name}*{a2.name}")


def pullback(A: AlgebroidPresentation, fiber_dim, name=None):
    """Pull-back along the projection of the trivial fibration M x R^m -> M.

    It is the direct product of A with the tangent algebroid of R^m (Mackenzie,
    General Theory of Lie Groupoids and Lie Algebroids, 2005): the horizontal
    lifts h_a = (e_a, rho(e_a)) keep A's indices and structure functions, and
    the vertical fields v_j = (0, d/du_j) follow, with vanishing brackets.
    With ``fiber_dim == A.rank`` this is the pull-back over the dual bundle
    in a trivialization, base for the symplectic/Thom machinery.
    """
    m = int(fiber_dim)
    # u1, u2, ..., skipping the names the base chart already holds
    fresh = (f"u{k}" for k in count(1) if f"u{k}" not in A.chart.names)
    name = name or f"pullback({A.name},{m})"
    fiber = tangent(m, Chart(islice(fresh, m), A.chart.backend), f"fiber_of_{name}")
    out = product(A, fiber, name)
    r, n = A.rank, A.base_dim
    out.pullback_data = PullbackData(A, fiber, tuple(range(r, r + m)), tuple(range(n, n + m)))
    return out
