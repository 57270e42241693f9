"""Curvature, characteristic series and the formal Chern-roots oracle.

Characteristic forms are produced from the curvature matrix by exact series
manipulation of trace/determinant formulas.  Each class is one graded
AlgForm holding every degree at once; ``degree_part(k)`` reads its degree-k
component.  On formal test curvatures the graded components reproduce the
classical rationals:

    Td    = 1 + c1/2 + (c2 + c1^2)/12 + ...
    ch    = rk + c1 + (c1^2 - 2 c2)/2 + ...
    L     = 1 + p1/3 + (7 p2 - p1^2)/45 + ...
    A-hat = 1 - p1/24 + (7 p1^2 - 4 p2)/5760 + ...
"""

from fractions import Fraction

from algindex import (
    AlgForm,
    FormMatrix,
    Metric,
    abelian_bundle,
    char_class,
    chern_class,
    curvature,
    levi_civita,
    pfaffian_form,
    pontryagin_class,
    roots_identity,
    su2,
)

# Two formal "Chern roots" w1, w2 with nonvanishing squares.
A = abelian_bundle(0, 8)
w1 = AlgForm.dual_basis(A, (0, 1)) + AlgForm.dual_basis(A, (2, 3))
w2 = AlgForm.dual_basis(A, (4, 5)) + AlgForm.dual_basis(A, (6, 7))
zero = AlgForm.zero(A)
R = FormMatrix(A, [[w1, zero], [zero, w2]])

c1, c2 = chern_class(R, 1), chern_class(R, 2)
todd = char_class(R, "todd", 4)
print("Td is one form of degrees", todd.degrees())
print("Td degree-2 component == c1/2:", todd.degree_part(2) == c1.scale(Fraction(1, 2)))
print(
    "Td degree-4 component == (c2 + c1^2)/12:",
    todd.degree_part(4) == (c2 + c1.wedge(c1)).scale(Fraction(1, 12)),
)

ch = char_class(R, "ch", 4)
print(
    "ch == rk + c1 + (c1^2 - 2c2)/2:",
    ch.degree_part(0) == AlgForm.constant(A, 2)
    and ch.degree_part(2) == c1
    and ch.degree_part(4) == (c1.wedge(c1) - c2.scale(2)).scale(Fraction(1, 2)),
)

# The Levi-Civita connection of the bi-invariant metric on su(2) has
# curvature R(X, Y) = -ad([X, Y])/4; its Chern character is closed.
G = su2()
lc = levi_civita(G, Metric.identity(G))
R_su2 = curvature(lc)
print("su2 Levi-Civita curvature entry R^1_2(e1,e2):",
      R_su2.entries[0][1].value_on((0, 1)))

# The Pfaffian of a lowered antisymmetric block recovers the off-diagonal
# entry, the p = 1 case of Pf(A)^2 = det(A).
A4 = abelian_bundle(0, 4)
a = AlgForm.dual_basis(A4, (0, 1))
z4 = AlgForm.zero(A4)
print("Pf of [[0, a], [-a, 0]] == a:",
      pfaffian_form(FormMatrix(A4, [[z4, a], [-a, z4]])) == a)

# The roots oracle expands both sides of the index-reduction identities in
# formal Chern roots and reports the normalization each one actually needs.
for identity in ("gauss_bonnet", "signature"):
    for p in (1, 2):
        print(roots_identity(identity, p, 8))
