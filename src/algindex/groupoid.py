"""Finite groupoids: cochain complex, convolution algebra and the trace.

Conventions (fixed so that every displayed formula typechecks, and verified
by the exact d o d = 0 suite):

* an arrow g runs s(g) -> t(g); the product g1*g2 is defined exactly when
  t(g1) = s(g2) and runs s(g1) -> t(g2) ("do g1, then g2");
* composable k-tuples are chains x0 -> x1 -> ... -> xk, anchored at the end:
  a k-cochain assigns phi(g1..gk) in E_{t(gk)};
* a representation assigns lambda_g: E_{s(g)} -> E_{t(g)} with
  lambda_{g1*g2} = lambda_{g2} lambda_{g1} and lambda_{unit} = id.

The differential transports the last face:

    d phi(g1..g_{k+1}) = phi(g2..g_{k+1})
                       + sum_{i=1..k} (-1)^i phi(g1,..,g_i g_{i+1},..)
                       + (-1)^{k+1} lambda_{g_{k+1}} phi(g1..gk)

and in degree zero d phi(g) = lambda_g phi(s(g)) - phi(t(g)), so H^0 is the
space of invariant sections.  All scalars are exact rationals.

Composition is a function: the pair groupoid and Z/n compose by formula and
are valid by construction.  A table from outside enters through
``FiniteGroupoid.from_table``, which checks it in full.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import islice

from . import linalg
from .scalars import AlgindexError


class GroupoidError(AlgindexError):
    pass


class FiniteGroupoid:
    """Finite arrows/objects with source, target, unit, inverse, composition.

    ``compose`` is a function of composable pairs; construction checks only
    endpoints, units and inverses, in O(arrows).
    """

    def __init__(self, objects, arrows, source, target, unit, inverse, compose):
        self.objects = list(objects)
        self.arrows = list(arrows)
        self.source = dict(source)
        self.target = dict(target)
        self.unit = dict(unit)
        self.inverse = dict(inverse)
        self._compose = compose
        self.leaving = {x: [] for x in self.objects}  # the arrows out of each object
        for g in self.arrows:
            self.leaving.setdefault(self.source[g], []).append(g)
        self._validate()

    @classmethod
    def from_table(cls, objects, arrows, source, target, unit, inverse, table):
        """The groupoid composing by ``table`` {(g1, g2): g1 * g2}, fully checked.

        The composable triples are counted, and refused above 2^24, before the
        table is matched against composability and checked for associativity.
        """
        arrows = list(arrows)
        n_in, n_out = Counter(target[g] for g in arrows), Counter(source[g] for g in arrows)
        linalg.check_size(sum(n_in[source[g]] * n_out[target[g]] for g in arrows),
                          "the associativity check of the composition table")
        known = set(arrows)
        for (g1, g2), g in table.items():
            if not (g1 in known and g2 in known and target[g1] == source[g2]
                    and g in known and source[g] == source[g1] and target[g] == target[g2]):
                raise GroupoidError(
                    f"composition table entry {(g1, g2)} -> {g} disagrees with composability"
                )
        pairs = sum(n * n_out[x] for x, n in n_in.items())
        if len(table) != pairs:
            raise GroupoidError(
                f"composition table has {len(table)} entries for {pairs} composable pairs"
            )
        G = cls(objects, arrows, source, target, unit, inverse,
                lambda g1, g2: table[(g1, g2)])
        for g1 in arrows:
            for g2 in G.leaving[G.target[g1]]:
                g12 = table[(g1, g2)]
                for g3 in G.leaving[G.target[g2]]:
                    if table[(g12, g3)] != table[(g1, table[(g2, g3)])]:
                        raise GroupoidError(f"associativity fails on {(g1, g2, g3)}")
        return G

    def compose(self, g1, g2):
        """g1 * g2, defined when t(g1) = s(g2)."""
        if not self.composable(g1, g2):
            raise GroupoidError(f"arrows {g1} and {g2} are not composable")
        return self._compose(g1, g2)

    def composable(self, g1, g2) -> bool:
        return self.target[g1] == self.source[g2]

    def _validate(self):
        objects = set(self.objects)
        for x in self.objects:
            u = self.unit[x]
            if self.source[u] != x or self.target[u] != x:
                raise GroupoidError(f"unit of {x} is not a loop at {x}")
        for g in self.arrows:
            if self.source[g] not in objects or self.target[g] not in objects:
                raise GroupoidError(f"arrow {g} has unknown endpoints")
            inv = self.inverse[g]
            if self.source[inv] != self.target[g] or self.target[inv] != self.source[g]:
                raise GroupoidError(f"inverse of {g} has wrong endpoints")
            if self.compose(g, inv) != self.unit[self.source[g]]:
                raise GroupoidError(f"g * g^-1 is not the unit at s({g})")
            if self.compose(inv, g) != self.unit[self.target[g]]:
                raise GroupoidError(f"g^-1 * g is not the unit at t({g})")
            if self.compose(self.unit[self.source[g]], g) != g:
                raise GroupoidError(f"unit does not act trivially on {g}")
            if self.compose(g, self.unit[self.target[g]]) != g:
                raise GroupoidError(f"unit does not act trivially on {g}")

    def composable_tuples(self, k):
        """Chains (g1..gk) with t(g_i) = s(g_{i+1})."""
        if k == 0:
            return [()]
        tuples = [(g,) for g in self.arrows]
        for _ in range(k - 1):
            extended = []
            for chain in tuples:
                for g in self.leaving[self.target[chain[-1]]]:
                    extended.append(chain + (g,))
            tuples = extended
        return tuples

    def __repr__(self):
        return f"FiniteGroupoid({len(self.objects)} objects, {len(self.arrows)} arrows)"


def pair_groupoid(n) -> FiniteGroupoid:
    """The pair groupoid on n points: one arrow (x, y) from x to y."""
    objects = list(range(n))
    arrows = [(x, y) for x in objects for y in objects]
    source = {(x, y): x for (x, y) in arrows}
    target = {(x, y): y for (x, y) in arrows}
    unit = {x: (x, x) for x in objects}
    inverse = {(x, y): (y, x) for (x, y) in arrows}
    return FiniteGroupoid(objects, arrows, source, target, unit, inverse,
                          lambda g1, g2: (g1[0], g2[1]))


def cyclic_group_groupoid(n) -> FiniteGroupoid:
    """Z/n as a groupoid over a single object."""
    objects = ["*"]
    arrows = list(range(n))
    source = {g: "*" for g in arrows}
    target = {g: "*" for g in arrows}
    unit = {"*": 0}
    inverse = {g: (-g) % n for g in arrows}
    return FiniteGroupoid(objects, arrows, source, target, unit, inverse,
                          lambda g, h: (g + h) % n)


class FiniteRep:
    """Per-object dimensions and per-arrow matrices over exact rationals.

    Matrices are stored in the "column vector" convention: lambda_g maps
    E_{s(g)} to E_{t(g)}, and lambda_{g1*g2} = lambda_{g2} @ lambda_{g1}.
    """

    def __init__(self, groupoid: FiniteGroupoid, dims, matrices):
        self.groupoid = groupoid
        self.dims = dict(dims)
        self.matrices = {g: [[Fraction(v) for v in row] for row in m] for g, m in matrices.items()}
        self._validate()

    @classmethod
    def trivial(cls, groupoid, dim=1):
        linalg.check_size(len(groupoid.arrows) * dim * dim,
                          f"the {dim} x {dim} identity of every arrow")
        rep = cls.__new__(cls)  # identities compose by construction: nothing to check
        rep.groupoid = groupoid
        rep.dims = dict.fromkeys(groupoid.objects, dim)
        rep.matrices = {g: linalg.identity(dim) for g in groupoid.arrows}
        return rep

    def _validate(self):
        G = self.groupoid
        for x in G.objects:
            if self.dims[x] < 0:
                raise GroupoidError("negative fiber dimension")
            if self.matrices[G.unit[x]] != linalg.identity(self.dims[x]):
                raise GroupoidError(f"unit matrix at {x} is not the identity")
        for g in G.arrows:
            m = self.matrices[g]
            if len(m) != self.dims[G.target[g]] or (
                m and len(m[0]) != self.dims[G.source[g]]
            ):
                raise GroupoidError(f"matrix shape of {g} mismatches fiber dims")
        for g1 in G.arrows:
            for g2 in G.leaving[G.target[g1]]:
                composite = self.matrices[G.compose(g1, g2)]
                product = linalg.matmul(self.matrices[g2], self.matrices[g1])
                if composite != product:
                    raise GroupoidError(
                        f"representation is not functorial on {(g1, g2)}"
                    )


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def _cochain_basis(groupoid, rep, k):
    """Basis labels ((chain), component) of C^k; degree 0 uses objects."""
    if k == 0:
        return [((x,), j) for x in groupoid.objects for j in range(rep.dims[x])]
    out = []
    for chain in groupoid.composable_tuples(k):
        anchor = groupoid.target[chain[-1]]
        for j in range(rep.dims[anchor]):
            out.append((chain, j))
    return out


def _chain_counts(groupoid, rep):
    """dim C^0, dim C^1, ... without end, from the number of chains ending at
    each object.

    No chain is built: the chains of length k ending at y are the chains of
    length k - 1 ending at s(g), for each arrow g with t(g) = y.
    """
    G = groupoid
    ending = dict.fromkeys(G.objects, 1)
    while True:
        yield sum(n * rep.dims[x] for x, n in ending.items())
        walks = dict.fromkeys(G.objects, 0)
        for g in G.arrows:
            walks[G.target[g]] += ending[G.source[g]]
        ending = walks


def _cochain_dims(groupoid, rep, top):
    """[dim C^0, ..., dim C^top]."""
    return list(islice(_chain_counts(groupoid, rep), top + 1))


def _check_differential(dims, k):
    linalg.check_size(dims[k + 1] * dims[k], f"the degree-{k} differential matrix")


def differential_matrix(groupoid, rep, k):
    """Rows ``{column: value}`` of d: C^k -> C^{k+1} on the canonical bases, exact.

    Integral entries are ints, and no row stores a zero.
    """
    G = groupoid
    _check_differential(_cochain_dims(G, rep, k + 1), k)
    domain = _cochain_basis(G, rep, k)
    codomain = _cochain_basis(G, rep, k + 1)
    index = {label: i for i, label in enumerate(domain)}
    # the nonzero entries (j, value) of each row of each arrow's matrix
    transport = {
        g: [[(j, linalg.exact(v)) for j, v in enumerate(row) if v] for row in mat]
        for g, mat in rep.matrices.items()
    }
    matrix = [{} for _ in codomain]

    def add(row, chain, j, coeff):
        col = index.get((chain, j))
        if col is not None:
            linalg.add_entry(matrix[row], col, coeff)

    for row, (chain, comp) in enumerate(codomain):
        if k == 0:
            (g,) = chain
            # d phi(g) = lambda_g phi(s(g)) - phi(t(g))
            for j, v in transport[g][comp]:
                add(row, (G.source[g],), j, v)
            add(row, (G.target[g],), comp, -1)
            continue
        # front face: drop g1
        add(row, chain[1:], comp, 1)
        # middle faces: compose g_i g_{i+1}
        for i in range(1, k + 1):
            merged = (
                chain[: i - 1]
                + (G.compose(chain[i - 1], chain[i]),)
                + chain[i + 1 :]
            )
            add(row, merged, comp, (-1) ** i)
        # back face: drop g_{k+1}, transported by lambda
        sign = (-1) ** (k + 1)
        for j, v in transport[chain[-1]][comp]:
            add(row, chain[:-1], j, sign * v)
    return matrix


def groupoid_cohomology(groupoid, rep=None, max_degree=2):
    """Betti numbers of the finite cochain complex by exact ranks."""
    rep = rep or FiniteRep.trivial(groupoid)
    counts = _chain_counts(groupoid, rep)
    dims, read = [next(counts)], 0
    for k in range(max_degree + 1):
        dims.append(next(counts))
        _check_differential(dims, k)
        # each of the dim C^(k+1) rows of d^k builds k + 2 chains of k or k + 1 arrows
        read += (k + 1) * (k + 2) * dims[k + 1]
        linalg.check_size(read, f"the face chains of the differentials up to degree {k}")
    ranks = [
        linalg.rank(differential_matrix(groupoid, rep, k))
        for k in range(max_degree + 1)
    ]
    return linalg.betti_numbers(dims[:-1], ranks)


# ---------------------------------------------------------------------------
# convolution algebra and trace
# ---------------------------------------------------------------------------


def convolve(f1, f2, groupoid: FiniteGroupoid):
    """(f1 * f2)(g) = sum over t(h) = t(g) of f1(g h^-1) f2(h).

    Equivalently the sum of f1(g1) f2(g2) over factorizations g = g1 * g2;
    for the pair groupoid this is matrix multiplication.
    """
    G = groupoid
    # h = k^-1 runs over the arrows into t(g) as k runs over those out of t(g)
    return {g: sum((f1.get(G.compose(g, k), 0) * f2.get(G.inverse[k], 0)
                    for k in G.leaving[G.target[g]]), Fraction(0))
            for g in G.arrows}


def unit_function(groupoid):
    out = {g: Fraction(0) for g in groupoid.arrows}
    for x in groupoid.objects:
        out[groupoid.unit[x]] = Fraction(1)
    return out


def delta(groupoid, arrow):
    out = {g: Fraction(0) for g in groupoid.arrows}
    out[arrow] = Fraction(1)
    return out


def is_invariant_weight(groupoid, weights) -> bool:
    return all(
        weights[groupoid.source[g]] == weights[groupoid.target[g]]
        for g in groupoid.arrows
    )


def invariance_counterexample(groupoid, weights):
    """A pair (f1, f2) witnessing failure of the trace property, or None."""
    for g in groupoid.arrows:
        if weights[groupoid.source[g]] != weights[groupoid.target[g]]:
            return delta(groupoid, g), delta(groupoid, groupoid.inverse[g])
    return None


def trace(f, weights, groupoid: FiniteGroupoid) -> Fraction:
    """tau(f) = sum_x f(unit_x) * weight(x); weights must be orbit-constant.

    A non-invariant weight is rejected, and the exception carries an explicit
    function pair with tau(f1*f2) != tau(f2*f1).
    """
    for x in groupoid.objects:
        if weights[x] <= 0:
            raise GroupoidError("weights must be positive")
    if not is_invariant_weight(groupoid, weights):
        f1, f2 = invariance_counterexample(groupoid, weights)
        lhs = sum(
            (convolve(f1, f2, groupoid)[groupoid.unit[x]] * weights[x]
             for x in groupoid.objects),
            Fraction(0),
        )
        rhs = sum(
            (convolve(f2, f1, groupoid)[groupoid.unit[x]] * weights[x]
             for x in groupoid.objects),
            Fraction(0),
        )
        raise GroupoidError(
            "weights are not constant on orbits; trace property fails on a "
            f"delta pair ({lhs} != {rhs})"
        )
    return sum(
        (Fraction(f.get(groupoid.unit[x], 0)) * Fraction(weights[x])
         for x in groupoid.objects),
        Fraction(0),
    )


def arrow_matrix_bijection(groupoid, f, n):
    """Pair-groupoid functions as matrices: F[s(g)][t(g)] = f(g)."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for (x, y), value in f.items():
        out[x][y] = Fraction(value)
    return out
