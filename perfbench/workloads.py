"""Seeded job documents for the algindex benchmark, each with its known answer.

Every workload is a fixed list of document *slots*.  A slot fixes the shape of
a document (which metric family, which Lie algebra, which groupoid and degree
range), so the cost of a pass does not depend on the seed.  The seed draws the
parameters that leave that cost unchanged -- constant factors, the sign and
axis of a translation, basis permutations and sign flips, labels and the order
of the documents -- so every seed gives different documents whose answers are
still known in closed form.

``generate(workload, seed)`` returns the documents as YAML text, each with
the ``Expect`` that ``run.check_document`` uses to count failed computations.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent


@dataclass
class Expect:
    """What a document must produce.

    ``checks`` maps a computation label to a function of its result payload
    that returns ``None`` when the answer is right and a message otherwise.
    ``ok`` maps labels to the expected success flag (a diagnostic is an
    expected ``False``).  A document that must be rejected before any
    computation runs has ``exit_code`` 2 and no labels; it counts as one
    computation.
    """

    exit_code: int
    ok: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    @property
    def computations(self):
        return max(1, len(self.ok))


@dataclass
class Doc:
    name: str
    text: str
    expect: Expect


@dataclass
class Workload:
    name: str
    why: str
    deadline_s: float
    build: object


def _dump(document) -> str:
    return yaml.safe_dump(document, sort_keys=False, default_flow_style=None, width=100)


def _q(value) -> str:
    """An exact rational as the document syntax writes it."""
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# exact evaluation of printed scalars (an oracle independent of the program)
# ---------------------------------------------------------------------------

_SCALAR_CHARS = re.compile(r"^[0-9xy+\-*/^() ]*$")


def eval_scalar(text: str, x: Fraction, y: Fraction) -> Fraction:
    """Evaluate a printed polynomial or quotient in x, y exactly."""
    if not _SCALAR_CHARS.match(text):
        raise ValueError(f"unexpected characters in scalar {text!r}")
    source = re.sub(r"(\d+)", r"F(\1)", text).replace("^", "**")
    return Fraction(eval(source, {"__builtins__": {}, "F": Fraction}, {"x": x, "y": y}))


SAMPLE_POINTS = [
    (Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(-1, 3)),
    (Fraction(-2), Fraction(5, 7)),
    (Fraction(3, 2), Fraction(2)),
]


# ---------------------------------------------------------------------------
# sphere-charts: Gauss-Bonnet on stereographic charts of S^2
# ---------------------------------------------------------------------------


def _sq_dist(p, q):
    """The document syntax for (x - p)^2 + (y - q)^2."""

    def term(var, c):
        c = Fraction(c)
        if c == 0:
            return f"{var}^2"
        sign = "-" if c > 0 else "+"
        return f"({var} {sign} {_q(abs(c))})^2"

    return f"{term('x', p)} + {term('y', q)}"


def _bump(s, p=0, q=0):
    """4 s / (s + |z - (p, q)|^2)^2: integrates to 4 pi over the plane."""
    return lambda x, y: 4 * s / (s + (x - p) ** 2 + (y - q) ** 2) ** 2


def _round_chart(rng, a, b, p, q):
    """c / (a + b |z - w|^2)^2, a round sphere of curvature 4ab/c.

    Its Euler (Pfaffian) form is K * area = 4ab / (a + b |z - w|^2)^2, so a
    constant factor c leaves the form, and the integrand, unchanged.
    """
    c = rng.choice([1, 2, 3, 5, 7, 9, Fraction(3, 2), Fraction(5, 3)])
    factor = f"{_q(c)}/({a} + {b}*({_sq_dist(p, q)}))^2"
    s = Fraction(a, b)
    return factor, _bump(s, p, q), (s, p, q)


def _radial_chart(rng, a, b, p=0, q=0):
    """c (a + |z - w|^2) / ((b + r^2)(1 + r^2)^2), a non-round metric on S^2.

    With phi the conformal factor, the Euler form is -(1/2) Laplace(log phi)
    = -2a/(a+|z-w|^2)^2 + 2b/(b+r^2)^2 + 4/(1+r^2)^2, which integrates to
    4 pi; phi ~ c / r^4 at infinity, so the metric closes up over S^2.
    """
    c = rng.choice([1, 2, 3, 5, 7, Fraction(1, 2), Fraction(7, 3)])
    factor = (
        f"{_q(c)}*({a} + {_sq_dist(p, q)})/"
        f"(({b} + x^2 + y^2)*(1 + x^2 + y^2)^2)"
    )
    near, far, unit = _bump(a, p, q), _bump(b), _bump(1)
    form = lambda x, y: -near(x, y) / 2 + far(x, y) / 2 + unit(x, y)
    return factor, form, (Fraction(b), 0, 0)


def _axis_shift(rng, d):
    """A translation by d along a seeded axis, with a seeded sign."""
    d = rng.choice([d, -d])
    return (d, 0) if rng.random() < 0.5 else (0, d)


def _sphere_document(name, factor, thom_form):
    s, p, q = thom_form
    return {
        "version": 1,
        "backend": "poly",
        "coordinates": ["x", "y"],
        "algebroids": {"chart": {"kind": "tangent"}},
        "metrics": {"g": {"algebroid": "chart", "kind": "conformal", "factor": factor}},
        "densities": {"lebesgue": {"algebroid": "chart", "coefficient": "1"}},
        "forms": {
            "bump": {
                "algebroid": "chart",
                "degree": 2,
                "coefficients": {"1,2": f"{_q(4 * s)}/({_q(s)} + {_sq_dist(p, q)})^2"},
            }
        },
        "domains": {"plane": {"type": "plane"}},
        "computations": [
            {"op": "charclass", "label": f"{name}-euler-form", "genus": "euler",
             "metric": "g"},
            {"op": "index", "label": f"{name}-euler-index", "kind": "euler",
             "algebroid": "chart", "metric": "g", "density": "lebesgue",
             "domain": "plane", "tolerance": 1.0e-8, "budget": 6000},
            {"op": "thom-check", "label": f"{name}-thom", "algebroid": "chart",
             "form": "bump", "density": "lebesgue", "domain": "plane",
             "tolerance": 1.0e-8, "budget": 6000},
        ],
    }


def _check_euler_form(expected):
    def check(result):
        parts = result["class"]
        if list(parts) != ["2"] or len(parts["2"]) != 1 or parts["2"][0][0] != "1,2":
            return f"unexpected Euler class layout {parts}"
        printed = parts["2"][0][1]
        for x, y in SAMPLE_POINTS:
            if eval_scalar(printed, x, y) != expected(x, y):
                return f"Euler form {printed} differs from the closed form at {(x, y)}"
        return None

    return check


def _check_index(result):
    value = float(result["value"])
    if result["exact"] or result["i_power"] != 0 or abs(value - 2.0) > 1e-6:
        return f"Euler index {result} is not 2 within 1e-6"
    return None


def _check_thom(result):
    flags = ("compatible", "theta_closed", "theta_nondegenerate", "roundtrip_identity")
    if not all(result[f] is True for f in flags):
        return f"thom-check flags {[result[f] for f in flags]}"
    for side in ("base", "mapped"):
        if abs(float(result[side]["value"]) - 4 * math.pi) > 1e-6:
            return f"thom-check {side} integral {result[side]['value']} is not 4 pi"
    return None


def _sphere_doc(name, chart):
    factor, euler_form, thom_form = chart
    doc = _sphere_document(name, factor, thom_form)
    labels = [c["label"] for c in doc["computations"]]
    expect = Expect(
        0,
        ok={label: True for label in labels},
        checks=dict(zip(labels, (_check_euler_form(euler_form), _check_index,
                                 _check_thom))),
    )
    return Doc(name, _dump(doc), expect)


def _sphere_charts(rng):
    slots = [
        ("round-scaled", lambda: _round_chart(rng, 2, 3, 0, 0)),
        ("round-shifted", lambda: _round_chart(rng, 1, 1, *_axis_shift(rng, 1))),
        ("radial", lambda: _radial_chart(rng, 1, 2)),
    ]
    docs = [_sphere_doc(name, make()) for name, make in slots]
    rng.shuffle(docs)
    return docs


# ---------------------------------------------------------------------------
# cohomology: exact Betti numbers of Lie algebras and finite groupoids
# ---------------------------------------------------------------------------


def _gl(n):
    """gl(n) on the basis E_ij: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    basis = [(i, j) for i in range(n) for j in range(n)]
    where = {e: k for k, e in enumerate(basis)}
    structure = {}
    for a, (i, j) in enumerate(basis):
        for b, (k, l) in enumerate(basis):
            if a >= b:
                continue
            row = {}
            if j == k:
                row[where[(i, l)]] = row.get(where[(i, l)], 0) + 1
            if l == i:
                row[where[(k, j)]] = row.get(where[(k, j)], 0) - 1
            row = {c: v for c, v in row.items() if v}
            if row:
                structure[(a, b)] = row
    return len(basis), structure


def _su2():
    return 3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}


def _su2_squared():
    rank, s = _su2()
    shifted = {(a + rank, b + rank): {c + rank: v for c, v in row.items()}
               for (a, b), row in s.items()}
    return 2 * rank, {**s, **shifted}


LIE_ALGEBRAS = {
    # name: (presentation, Poincare polynomial coefficients)
    "gl3": (_gl(3), [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]),
    "su2xsu2": (_su2_squared(), [1, 0, 0, 2, 0, 0, 1]),
    "h3": ((3, {(0, 1): {2: 1}}), [1, 2, 2, 1]),
    "aff1": ((2, {(0, 1): {1: 1}}), [1, 1, 0]),
    "su2": (_su2(), [1, 0, 0, 1]),
}


def _relabel(rng, presentation):
    """The same Lie algebra on a permuted basis with seeded sign flips.

    Under e_i -> s_i e_pi(i) with s_i = +-1 a structure constant c_ab^c
    becomes s_a s_b s_c c_ab^c, so the algebra and its cohomology are
    unchanged while the document differs.
    """
    rank, structure = presentation
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(rank)]
    out = {}
    for (a, b), row in structure.items():
        pa, pb = perm[a], perm[b]
        sign = signs[a] * signs[b]
        if pa > pb:
            pa, pb, sign = pb, pa, -sign
        out[f"{pa + 1},{pb + 1}"] = {
            str(perm[c] + 1): _q(sign * signs[c] * v) for c, v in sorted(row.items())
        }
    return {"kind": "lie_algebra", "rank": rank,
            "structure": dict(sorted(out.items(), key=lambda kv: kv[0]))}


def _check_betti(expected):
    def check(result):
        if result["betti"] != expected:
            return f"Betti numbers {result['betti']} != {expected}"
        return None

    return check


def _lie_doc(rng, name, algebra, max_degree, adjoint=False):
    presentation, poincare = LIE_ALGEBRAS[algebra]
    spec = _relabel(rng, presentation)
    rank = spec["rank"]
    top = rank if max_degree is None else min(max_degree, rank)
    if adjoint:
        expected = [0] * (top + 1)
    else:
        expected = poincare[: top + 1]
    document = {"version": 1, "backend": "poly", "coordinates": [],
                "algebroids": {algebra: spec}}
    cohomology = {"op": "cohomology", "label": f"{name}-betti", "algebroid": algebra}
    if max_degree is not None:
        cohomology["max_degree"] = max_degree
    if adjoint:
        document["representations"] = {"ad": {"algebroid": algebra, "kind": "adjoint"}}
        cohomology["representation"] = "ad"
    document["computations"] = [
        {"op": "validate", "label": f"{name}-valid", "algebroid": algebra},
        cohomology,
    ]
    expect = Expect(0, ok={f"{name}-valid": True, f"{name}-betti": True},
                    checks={f"{name}-betti": _check_betti(expected)})
    return Doc(name, _dump(document), expect)


def _groupoid_doc(rng, name, kind, size, max_degree, fiber_dim):
    """H^0 = fiber_dim * #orbits and H^k = 0 for k > 0 (finite groupoid, over Q)."""
    key = "size" if kind == "pair" else "order"
    label = f"{name}-betti"
    document = {
        "version": 1,
        "groupoids": {f"G{rng.randrange(100)}": {"kind": kind, key: size}},
    }
    gname = next(iter(document["groupoids"]))
    document["computations"] = [
        {"op": "groupoid-cohomology", "label": label, "groupoid": gname,
         "max_degree": max_degree, "fiber_dim": fiber_dim},
    ]
    expected = [fiber_dim] + [0] * max_degree
    expect = Expect(0, ok={label: True}, checks={label: _check_betti(expected)})
    return Doc(name, _dump(document), expect)


def _cohomology(rng):
    docs = [
        _lie_doc(rng, "gl3", "gl3", 3),
        _lie_doc(rng, "su2xsu2", "su2xsu2", None),
        _lie_doc(rng, "h3", "h3", None),
        _lie_doc(rng, "aff1", "aff1", None),
        _lie_doc(rng, "su2-adjoint", "su2", None, adjoint=True),
        _groupoid_doc(rng, "pair3", "pair", 3, 3, 1),
        _groupoid_doc(rng, "pair4", "pair", 4, 2, 1),
        _groupoid_doc(rng, "cyclic4", "cyclic", 4, 3, 1),
        _groupoid_doc(rng, "cyclic5", "cyclic", 5, 2, 2),
    ]
    rng.shuffle(docs)
    return docs


# ---------------------------------------------------------------------------
# small-docs: fixed per-document cost
# ---------------------------------------------------------------------------

# the jobs bundled with the program; goldens.json holds the known answers of
# every one of them but the sphere job, which sphere-charts covers
BUNDLED = HERE.parent / "src" / "algindex" / "jobs"
GOLDENS = HERE / "goldens.json"


def _float_close(value, golden, tol):
    return abs(float(value) - float(golden)) <= tol * max(1.0, abs(float(golden)))


def compare_payload(value, golden, tol):
    """Exact fields must be equal; approximate integrals agree within tol."""
    if isinstance(golden, dict):
        if not isinstance(value, dict) or set(value) != set(golden):
            return False
        if golden.get("exact") is False and "error" in golden:
            return (value["exact"] is False
                    and _float_close(value["value"], golden["value"], tol)
                    and float(value["error"]) <= tol * max(1.0, abs(float(golden["value"]))))
        return all(compare_payload(value[k], golden[k], tol) for k in golden)
    if isinstance(golden, list):
        return (isinstance(value, list) and len(value) == len(golden)
                and all(compare_payload(v, g, tol) for v, g in zip(value, golden)))
    return value == golden


def _golden_doc(name, golden):
    """A bundled job: exit code and every result as recorded in goldens.json."""
    checks = {}
    for item in golden["results"]:
        if item["ok"]:
            tol = item.get("tolerance", 1e-9)
            checks[item["label"]] = (
                lambda result, g=item["result"], t=tol:
                None if compare_payload(result, g, t) else f"differs from golden {g}"
            )
    expect = Expect(golden["exit_code"],
                    ok={item["label"]: item["ok"] for item in golden["results"]},
                    checks=checks)
    return Doc(name, (BUNDLED / f"{name}.yaml").read_text(), expect)


def _box_integral(terms, bounds):
    """Exact integral of sum c x^i y^j over a box."""
    total = Fraction(0)
    (x0, x1), (y0, y1) = bounds
    for (i, j), c in terms.items():
        total += (c * (x1 ** (i + 1) - x0 ** (i + 1)) / (i + 1)
                  * (y1 ** (j + 1) - y0 ** (j + 1)) / (j + 1))
    return total


def _torus_doc(rng, name, backend):
    """A flat chart with a polynomial area form integrated over a seeded box.

    On the poly backend the box integral is exact; on the numeric backend one
    Gauss-Kronrod panel integrates the low-degree polynomial to round-off.
    """
    x0, y0 = Fraction(rng.randint(-3, 1), 2), Fraction(rng.randint(-3, 1), 3)
    bounds = [(x0, x0 + rng.randint(1, 3)), (y0, y0 + rng.randint(1, 2))]
    terms = {(0, 0): Fraction(rng.randint(1, 9))}
    for expo in [(1, 0), (0, 1), (2, 1), (1, 2)]:
        terms[expo] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
    coefficient = " + ".join(f"({_q(c)})*x^{i}*y^{j}" for (i, j), c in terms.items())
    exact = _box_integral(terms, bounds)
    tol = 1e-10
    document = {
        "version": 1,
        "backend": backend,
        "coordinates": ["x", "y"],
        "algebroids": {"torus": {"kind": "tangent"}},
        "metrics": {"flat": {"algebroid": "torus", "kind": "identity"}},
        "densities": {"lebesgue": {"algebroid": "torus", "coefficient": "1"}},
        "forms": {"area": {"algebroid": "torus", "degree": 2,
                           "coefficients": {"1,2": coefficient}}},
        "domains": {"cell": {"type": "box",
                             "bounds": [[_q(lo), _q(hi)] for lo, hi in bounds]}},
        "computations": [
            {"op": "validate", "label": f"{name}-valid", "algebroid": "torus"},
            {"op": "index", "label": f"{name}-euler", "kind": "euler",
             "algebroid": "torus", "metric": "flat", "density": "lebesgue",
             "domain": "cell"},
            {"op": "thom-check", "label": f"{name}-thom", "algebroid": "torus",
             "form": "area", "density": "lebesgue", "domain": "cell",
             "tolerance": tol},
        ],
    }

    def check_integral(result):
        for side in ("base", "mapped"):
            got = result[side]
            if backend == "poly":
                good = got["exact"] is True and Fraction(got["value"]) == exact
            else:
                good = got["exact"] is False and _float_close(got["value"], exact, tol)
            if not good:
                return f"{side} integral {got} != {exact}"
        return None if result["compatible"] is True else "integrals not compatible"

    def check_zero(result):
        if backend == "poly":
            return None if result["value"] == "0" and result["exact"] else f"{result}"
        return None if abs(float(result["value"])) <= 1e-9 else f"{result}"

    labels = [c["label"] for c in document["computations"]]
    expect = Expect(0, ok={label: True for label in labels},
                    checks={labels[1]: check_zero, labels[2]: check_integral})
    return Doc(name, _dump(document), expect)


_INVALID = [
    # (what is wrong, document) -- each must be rejected with exit code 2
    ("missing-version", lambda rng: {"computations": []}),
    ("unknown-op", lambda rng: {"version": 1, "computations": [
        {"op": rng.choice(["integrate", "betti", "solve"])}]}),
    ("bad-rank", lambda rng: {"version": 1, "algebroids": {
        "A": {"kind": "abelian", "rank": rng.choice(["three", -1, 1.5])}},
        "computations": []}),
    ("unknown-reference", lambda rng: {"version": 1, "computations": [
        {"op": "cohomology", "label": "c", "algebroid": f"nowhere{rng.randrange(9)}"}]}),
    ("not-a-mapping", lambda rng: [1, 2, rng.randrange(9)]),
]


def _small_docs(rng):
    goldens = json.loads(GOLDENS.read_text())
    docs = [_golden_doc(name, golden) for name, golden in sorted(goldens.items())]
    for k in range(4):
        docs.append(_torus_doc(rng, f"torus-poly-{k}", "poly"))
        docs.append(_torus_doc(rng, f"torus-numeric-{k}", "numeric"))
    docs.extend(Doc(f"invalid-{what}", _dump(make(rng)), Expect(2)) for what, make in _INVALID)
    rng.shuffle(docs)
    return docs


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sphere-charts",
            "Gauss-Bonnet on round and non-round S^2 charts: the only path through "
            "RationalScalar/poly_gcd, Levi-Civita, curvature and 2-D adaptive quadrature",
            60.0,
            _sphere_charts,
        ),
        Workload(
            "cohomology",
            "exact Betti numbers of Lie algebras (forms differential) and finite groupoids "
            "(linalg.rank); no quadrature and no gcd, so items on those paths predict no "
            "change",
            60.0,
            _cohomology,
        ),
        Workload(
            "small-docs",
            "a stream of 10-40 ms documents, incl. diagnostics and schema rejections, so "
            "fixed per-document cost (YAML, schema, set-up) dominates",
            10.0,
            _small_docs,
        ),
    ]
}


def generate(workload: str, seed: int):
    """The documents of one workload for one seed, always the same bytes."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload].build(rng)
