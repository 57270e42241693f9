"""Deterministic adaptive quadrature on boxes of any dimension.

One adaptive routine: a tensor-product Gauss-Kronrod 7/15 panel (QUADPACK qk15
constants, Piessens et al. 1983) and worst-first subdivision that halves every
axis.  The refinement order and the final summation order are fixed by panel
creation index, so a given integrand, box and budget always produce
bit-identical results.  The reported error is the Gauss-Kronrod difference
|K - G| summed over the panels: an estimate, not a bound.

The integrand is called once per panel as ``f(box, rows)`` and returns the
panel's Kronrod and Gauss sums.  ``rows`` is a dict that lives for one
integral: the integrand keeps there what it derives from one axis span (its
nodes and weights, :func:`rule`, and anything that depends on one node only),
under the key ``(axis index, span)``, so each span is prepared once per
integral, not once per panel.  ``thom_index.integrate`` builds the integrand
from the compiled panel program (``compile_panel``), with the plane's
substitution and its Jacobian in each row.

``integrate_1d`` and ``integrate_2d`` are the entry points, one line each over
``_adaptive``.  They stay separate because the benchmark's span recorder
(``perfbench/spans.py``) wraps them by name and counts integrand calls, one
per panel.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product

from .scalars import AlgindexError

# Gauss-Kronrod 7-15 abscissae/weights (QUADPACK qk15 constants)
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


# the unit rule in node order, -x before +x and the centre last: (abscissa,
# side -1/+1/0, Kronrod weight, Gauss weight or None at a Kronrod-only node);
# the Gauss nodes are the odd-index Kronrod abscissae, the centre included
_UNIT = [(x, side, _WGK[i], _WG[i // 2] if i % 2 else None)
         for i, x in enumerate(_XGK) for side in ((-1, 1) if x else (0,))]


class QuadratureError(AlgindexError, RuntimeError):
    """Budget exhausted before reaching the requested tolerance."""

    def __init__(self, message, value, estimate):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


@dataclass
class QuadResult:
    value: float
    error: float
    panels: int


def rule(a, b):
    """The GK15 rule on [a, b] in node order: (node, Kronrod weight, Gauss
    weight or None at a Kronrod-only node)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return [(mid - half * x if side < 0 else mid + half * x if side else mid, wk * half,
             None if wg is None else wg * half) for x, side, wk, wg in _UNIT]


def _split(box):
    """The 2^n halves of a box, the first axis varying fastest."""
    halves = [((a, m), (m, b)) for a, b in box for m in (0.5 * (a + b),)]
    return [child[::-1] for child in product(*halves[::-1])]


def integrate_1d(f, span, tol=1e-9, budget=2000) -> QuadResult:
    return _adaptive(f, (span,), tol, budget)


def integrate_2d(f, xspan, yspan, tol=1e-9, budget=2000) -> QuadResult:
    return _adaptive(f, (xspan, yspan), tol, budget)


def _adaptive(f, box, tol, budget):
    # heap entries: (-error, creation_index); ties break on creation order,
    # never on float identity, so refinement order is deterministic
    payload = {}  # creation index -> (box, value, error), in creation order
    heap = []
    rows = {}  # the integrand's per-span rows, dropped when the integral returns
    counter = 0
    running_value = running_error = 0.0

    def push(box):
        nonlocal counter, running_value, running_error
        value, gauss = f(box, rows)
        err = abs(value - gauss)
        payload[counter] = (box, value, err)
        heapq.heappush(heap, (-err, counter))
        running_value += value
        running_error += err
        counter += 1

    def final():
        # the reported value is summed in panel-index order for
        # bit-reproducibility at a given budget
        total = err = 0.0
        for _, value, error in payload.values():
            total += value
            err += error
        return QuadResult(total, err, len(payload))

    push(tuple((float(a), float(b)) for a, b in box))
    # "not <=": a NaN error keeps refining until the budget runs out
    while not running_error <= max(tol, tol * abs(running_value)):
        if counter >= budget:
            result = final()
            raise QuadratureError(
                f"quadrature budget {budget} exhausted (estimate {result.value!r}, "
                f"error {result.error:.3e} > tol {tol:.3e})",
                result.value,
                result.error,
            )
        _, idx = heapq.heappop(heap)
        box, value, err = payload.pop(idx)
        running_value -= value
        running_error -= err
        for child in _split(box):
            push(child)
    return final()
