"""Deterministic adaptive quadrature on intervals and rectangles.

Gauss-Kronrod 7/15 panels with worst-first subdivision.  The refinement
order and the final summation order are fixed by panel creation index, so a
given integrand, domain and budget always produce bit-identical results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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


def _nodes_1d(a, b):
    """(kronrod nodes, kronrod weights, gauss weights aligned to nodes)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes, wk, wg = [], [], []
    for i, x in enumerate(_XGK):
        pts = (mid - half * x, mid + half * x) if x != 0.0 else (mid,)
        for p in pts:
            nodes.append(p)
            wk.append(_WGK[i] * half)
            # Gauss nodes are the odd-index Kronrod abscissae
            if i % 2 == 1:
                wg.append(_WG[i // 2] * half)
            elif x == 0.0:
                wg.append(_WG[3] * half)
            else:
                wg.append(0.0)
    return nodes, wk, wg


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


def _panel_1d(f, a, b):
    nodes, wk, wg = _nodes_1d(a, b)
    kron = gauss = 0.0
    for x, cwk, cwg in zip(nodes, wk, wg):
        v = f(x)
        kron += cwk * v
        if cwg:
            gauss += cwg * v
    return kron, abs(kron - gauss)


def integrate_1d(f, a, b, tol=1e-9, budget=2000) -> QuadResult:
    return _adaptive(lambda box: _panel_1d(f, *box), [(float(a), float(b))],
                     _split_interval, tol, budget)


def _split_interval(box):
    a, b = box
    mid = 0.5 * (a + b)
    return (a, mid), (mid, b)


def _panel_2d(f, box):
    (a, b), (c, d) = box
    nx, wkx, wgx = _nodes_1d(a, b)
    ny, wky, wgy = _nodes_1d(c, d)
    kron = gauss = 0.0
    for x, cwkx, cwgx in zip(nx, wkx, wgx):
        for y, cwky, cwgy in zip(ny, wky, wgy):
            v = f(x, y)
            kron += cwkx * cwky * v
            if cwgx and cwgy:
                gauss += cwgx * cwgy * v
    return kron, abs(kron - gauss)


def integrate_2d(f, xspan, yspan, tol=1e-9, budget=2000) -> QuadResult:
    box = (
        (float(xspan[0]), float(xspan[1])),
        (float(yspan[0]), float(yspan[1])),
    )
    return _adaptive(lambda b: _panel_2d(f, b), [box], _split_rectangle, tol, budget)


def _split_rectangle(box):
    (a, b), (c, d) = box
    mx, my = 0.5 * (a + b), 0.5 * (c + d)
    return (
        ((a, mx), (c, my)),
        ((mx, b), (c, my)),
        ((a, mx), (my, d)),
        ((mx, b), (my, d)),
    )


def _adaptive(panel_rule, boxes, split, tol, budget):
    # heap entries: (-error, creation_index); ties break on creation order,
    # never on float identity, so refinement order is deterministic
    payload = {}
    heap = []
    counter = 0
    running_value = 0.0
    running_error = 0.0
    for box in boxes:
        value, err = panel_rule(box)
        payload[counter] = (box, value, err)
        heapq.heappush(heap, (-err, counter))
        running_value += value
        running_error += err
        counter += 1

    def final():
        # the reported value is summed in panel-index order for
        # bit-reproducibility at a given budget
        total = 0.0
        err = 0.0
        for k in sorted(payload):
            total += payload[k][1]
        for k in sorted(payload):
            err += payload[k][2]
        return QuadResult(total, err, len(payload))

    while True:
        if running_error <= max(tol, tol * abs(running_value)):
            return final()
        if counter >= budget:
            result = final()
            raise QuadratureError(
                f"quadrature budget {budget} exhausted (estimate {result.value!r}, "
                f"error {result.error:.3e} > tol {tol:.3e})",
                result.value,
                result.error,
            )
        neg_err, idx = heapq.heappop(heap)
        box, value, err = payload.pop(idx)
        running_value -= value
        running_error -= err
        for child in split(box):
            cvalue, cerr = panel_rule(child)
            payload[counter] = (child, cvalue, cerr)
            heapq.heappush(heap, (-cerr, counter))
            running_value += cvalue
            running_error += cerr
            counter += 1
