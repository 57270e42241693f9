"""Gauss-Bonnet at desk scale: flat torus chart and the round sphere.

The Euler form is the Pfaffian of the Levi-Civita curvature.  On the flat
torus chart it vanishes identically and the index is exactly zero.  On the
stereographic chart of the round sphere it is the Gauss curvature area form
4/(1 + x^2 + y^2)^2 dx^dy; integrating over the full plane (mapped to a
bounded square by x = tan s) and normalizing by 2*pi gives the Euler
characteristic 2.
"""

from algindex import (
    BoxDomain,
    Density,
    Metric,
    PlaneDomain,
    euler_class,
    index_general,
    tangent,
)

t2 = tangent(2)
x, y = t2.chart.coord(0), t2.chart.coord(1)

# Flat metric: zero curvature, zero Euler form, exact zero index.
flat = Metric.identity(t2)
print("flat Euler form is zero:", euler_class(t2, flat).is_zero())
torus = index_general("euler", t2, flat, Density(t2, 1), BoxDomain([(0, 1), (0, 1)]))
print("flat torus chart index:", torus.value, "(exact)" if torus.exact else "")

# Round metric in the stereographic chart, 4/(1 + r^2)^2 * identity.
u = 1 + x * x + y * y
round_metric = Metric.conformal(t2, t2.chart.const(4) / (u * u))
e = euler_class(t2, round_metric)
print("sphere Euler form:", e)

sphere = index_general(
    "euler", t2, round_metric, Density(t2, 1), PlaneDomain(), tol=1e-8, budget=6000
)
print(f"sphere index: {sphere.value:.9f} (error estimate {sphere.error:.2e})")
print("matches chi(S^2) = 2 within 1e-6:", abs(sphere.value - 2) < 1e-6)
