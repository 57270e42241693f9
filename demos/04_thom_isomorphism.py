"""The formal Thom calculus and its compatibility with integration.

Pulling an algebroid back over its own dual gives a presentation carrying a
canonical symplectic form (with the Lie-Poisson correction
sum C^c_ab u_c h^a ^ h^b when the structure functions are nonzero, constant
or not).  The
Thom map alpha -> pi*alpha ^ Th composed with fiber integration is the
identity on forms of every degree at once (a Thom-extended form is two
graded AlgForms, the Th-free part and the coefficient of Th), and the
twisted integral over the dual agrees with the base integral.
"""

from algindex import (
    AlgebroidPresentation,
    AlgForm,
    BoxDomain,
    Chart,
    Density,
    d_g,
    fiber_integrate,
    pullback,
    su2,
    symplectic_form,
    thom_class,
    thom_compatibility,
    thom_map,
)
from algindex.thom_index import symplectic_top_power

A = su2()
pb = pullback(A, A.rank)
print("dual pull-back:", pb.name, "rank", pb.rank, "over", pb.base_dim, "coordinates")

theta = symplectic_form(pb)
print("Theta =", theta)
print("d Theta = 0:", d_g(theta).is_zero())
print("Theta^3 nondegenerate:", not symplectic_top_power(pb, theta).is_zero())

# Thom map and fiber integration are mutually inverse on representatives,
# homogeneous or not: the Thom map shifts every degree by the fiber rank.
alpha = AlgForm.dual_basis(A, (0, 1))
extended = thom_map(alpha, pb)
print("thom_map(e^1^e^2) =", extended)
print("fiber_integrate o thom_map == id:", fiber_integrate(extended) == alpha)
mixed = AlgForm.constant(A, 2) + alpha
print(f"... and on 2 + e^1^e^2, of degrees {mixed.degrees()}:",
      fiber_integrate(thom_map(mixed, pb)) == mixed)

# Th is nilpotent and vertical directions die against it.
th = thom_class(pb)
print("Th ^ Th = 0:", th.wedge(th).is_zero())

# Both integration paths: direct pairing on the base against the density,
# versus pull-back, Thom map and fiber integration against Theta^r (x) the
# pulled-back density.
top = AlgForm.dual_basis(A, (0, 1, 2))
check = thom_compatibility(A, top, Density(A, 1))
print(check)

# Structure functions need not be constant: on the line, rho(e1) = d/dx,
# rho(e2) = x^2/2 d/dx and [e1, e2] = x e1 give Theta(h1, h2) = x u1, and
# d Theta = 0 then also rests on the anchor acting on x.
chart = Chart(("x",))
x = chart.coord(0)
B = AlgebroidPresentation(chart, 2, [[1], [x * x / 2]], {(0, 1): [x, 0]}, "sliding")
pb_B = pullback(B, B.rank)
print("Theta on the sliding algebroid's dual:", symplectic_form(pb_B))
top_B = AlgForm.dual_basis(B, (0, 1)).scale(3 * x * x)
print(thom_compatibility(B, top_B, Density(B, 1), BoxDomain([(0, 2)])))
