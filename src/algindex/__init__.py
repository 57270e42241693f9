"""Exact exterior calculus for Lie algebroid presentations.

Chevalley-Eilenberg cohomology, Chern-Weil characteristic forms, the formal
Thom/Euler machinery, density-twisted integration, finite-groupoid
convolution algebras, and desk-scale evaluation of topological index
integrals -- all over exact rational scalars, with floating point confined
to the final quadrature.
"""

from .algebroid import (
    AlgebroidPresentation,
    abelian_bundle,
    action_algebroid,
    aff1,
    lie_algebra,
    product,
    pullback,
    su2,
    tangent,
)
from .chern_weil import (
    FormMatrix,
    Metric,
    char_class,
    chern_class,
    curvature,
    levi_civita,
    pfaffian_form,
    pontryagin_class,
    roots_identity,
    validate_representation,
)
from .forms import (
    AlgForm,
    GConnection,
    basis_forms,
    cohomology_const,
    d_g,
)
from .groupoid import (
    FiniteGroupoid,
    FiniteRep,
    convolve,
    cyclic_group_groupoid,
    groupoid_cohomology,
    pair_groupoid,
    trace,
)
from .scalars import (
    AlgindexError,
    Chart,
    DomainError,
    NumericExpr,
    PolyScalar,
    RationalScalar,
)
from .thom_index import (
    BoxDomain,
    Density,
    IntegrationResult,
    NonInvariantDensityError,
    PlaneDomain,
    PointDomain,
    ThomExtendedForm,
    UnresolvedEulerDivisionError,
    euler_class,
    fiber_integrate,
    index_general,
    integrate,
    modular_cocycle,
    symplectic_form,
    thom_class,
    thom_compatibility,
    thom_map,
)

__version__ = "0.1.0"
