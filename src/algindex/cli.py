"""Batch front end: parse a job document, dispatch computations, emit results.

A job document (YAML, schema in schema.json) declares named algebroids,
metrics, connections, densities, forms, domains and groupoids, plus a list
of requested computations.  Subcommands filter the computation list by
operation family; ``run`` executes everything.  Output is deterministic:
byte-identical for identical documents and budgets.

Every error the library raises derives from ``AlgindexError``.  Raised while
a computation runs, it fails that computation alone: it is reported as a
``FAIL`` line and the rest of the document still runs.  A document that
cannot be read, parsed or built, or that names an unknown object or leaves
out a required field, is rejected with one ``error:`` line on stderr.

Flags override the computation fields of the same name: ``--truncate`` takes
an integer >= 0, ``--budget`` an integer >= 1 and ``--tolerance`` a finite
number > 0; any other value is a usage error.  A document's ``tolerance``
that is not finite is a document error.

Exit codes: 0 success, 1 a failed computation, 2 usage or document error.

A document is parsed by libyaml where PyYAML was built with it, with every
parse error worded by the pure-Python loader, and is checked against
schema.json by a walk of its own (``schema_violation``) that reports what
jsonschema would: jsonschema is a test dependency, not a runtime one.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import re
import sys
from fractions import Fraction
from importlib import resources
from numbers import Number
from typing import NamedTuple

import yaml

from . import algebroid as alg
from . import chern_weil as cw
from . import groupoid as gp
from . import thom_index as ti
from .forms import AlgForm, cohomology_const
from .scalars import AlgindexError, Chart, as_fraction


class DocumentError(Exception):
    """Parse, schema or reference problem: exit code 2."""


class ComputationError(AlgindexError):
    """Semantic violation or failed check: exit code 1."""


_OP_FAMILIES = {
    "validate": ("validate",),
    "cohomology": ("cohomology",),
    "charclass": ("charclass",),
    "curvature": ("curvature",),
    "index": ("index",),
    "groupoid": ("groupoid-cohomology", "convolution-table", "trace"),
    "thom-check": ("thom-check", "modular-cocycle"),
}


# ---------------------------------------------------------------------------
# reading a document: YAML, then the schema
# ---------------------------------------------------------------------------

# libyaml's loader where PyYAML was built with it; both give the same data
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# libyaml nests a C call per nested collection, and about 25 000 overflow an
# 8 MB stack; a collection owns at least one of the characters [ { - ? :, so
# text with at most this many of them nests no deeper
_C_NESTING = 5000


def _parse(text):
    """The YAML data of ``text``.

    Text that ``_Loader`` rejects, or that could nest too deep for it, is
    parsed by the pure-Python loader, so every parse error is that loader's,
    word for word, on every machine: libyaml words its errors otherwise, and
    raises ``UnicodeEncodeError`` on the lone surrogates that undecodable
    input bytes become.
    """
    if sum(map(text.count, "[{-?:")) <= _C_NESTING:
        try:
            return yaml.load(text, Loader=_Loader)
        except (yaml.YAMLError, UnicodeError):
            pass
    return yaml.safe_load(text)


def _equal(value, expected):
    """JSON equality with a scalar from the schema: ``True`` is not ``1``."""
    return value == expected and isinstance(value, bool) == isinstance(expected, bool)


def _is_number(value):
    return isinstance(value, Number) and not isinstance(value, bool)


# a JSON type by the Python types the YAML loaders give; an integer is an int,
# never an integral float such as 2.0
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
}


# Each keyword check takes (keyword value, instance, its schema, its path, the
# list of violations found) and appends a (path, message) per violation, with
# jsonschema's message.


def _names(types):
    """The type names of a ``type`` keyword: one name or a list of them."""
    return [types] if isinstance(types, str) else types


def _type(types, value, schema, path, found):
    names = _names(types)
    if not any(_TYPES[name](value) for name in names):
        found.append((path, f"{value!r} is not of type {', '.join(map(repr, names))}"))


def _properties(properties, value, schema, path, found):
    if isinstance(value, dict):
        for key, subschema in properties.items():
            if key in value:
                _walk(subschema, value[key], path + (key,), found)


def _additional_properties(subschema, value, schema, path, found):
    if isinstance(value, dict):
        named = schema.get("properties", ())
        for key, item in value.items():
            if key not in named:
                _walk(subschema, item, path + (key,), found)


def _items(subschema, value, schema, path, found):
    if isinstance(value, list):
        for index, item in enumerate(value):
            _walk(subschema, item, path + (index,), found)


def _required(keys, value, schema, path, found):
    if isinstance(value, dict):
        found.extend((path, f"{key!r} is a required property") for key in keys if key not in value)


def _enum(values, value, schema, path, found):
    if not any(_equal(value, each) for each in values):
        found.append((path, f"{value!r} is not one of {values!r}"))


def _const(expected, value, schema, path, found):
    if not _equal(value, expected):
        found.append((path, f"{expected!r} was expected"))


def _pattern(pattern, value, schema, path, found):
    if isinstance(value, str) and not re.search(pattern, value):
        found.append((path, f"{value!r} does not match {pattern!r}"))


def _bound(fails, words):
    """A check of a number against a bound, e.g. ``minimum``."""

    def check(bound, value, schema, path, found):
        if _is_number(value) and fails(value, bound):
            found.append((path, f"{value!r} is {words} {bound!r}"))

    return check


def _length(fails, words):
    """A check of an array's length, e.g. ``minItems``: ``words(bound)`` is the message."""

    def check(bound, value, schema, path, found):
        if isinstance(value, list) and fails(len(value), bound):
            found.append((path, f"{value!r} {words(bound)}"))

    return check


_KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "required": _required,
    "enum": _enum,
    "const": _const,
    "pattern": _pattern,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "minItems": _length(operator.lt,
                        lambda n: "should be non-empty" if n == 1 else "is too short"),
    "maxItems": _length(operator.gt,
                        lambda n: "is expected to be empty" if n == 0 else "is too long"),
}
# the keywords the walk checks, and annotations it may ignore
_KNOWN = _KEYWORDS.keys() | {"$schema", "title"}


def _walk(schema, value, path, found):
    for keyword, expected in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is not None:
            check(expected, value, schema, path, found)


def _outranks(path, other):
    """Whether jsonschema's ``best_match`` prefers a violation at ``path`` to
    one at ``other``: the shorter path, then the later one.

    Where a mapping holds keys that do not compare, such as 1 and "a",
    jsonschema raises ``TypeError``; the printed paths are compared instead.
    """
    if len(path) != len(other):
        return len(path) < len(other)
    try:
        return path > other
    except TypeError:
        return "/".join(map(str, path)) > "/".join(map(str, other))


def schema_violation(schema, data):
    """The (path, message) of the violation of ``schema`` that jsonschema
    4.26's ``best_match`` reports for draft 7, or ``None`` if there is none.

    The walk checks the keywords of ``_KEYWORDS`` in the schema's order, and
    ``load_schema`` refuses any other.  A violation found first wins a tie, as
    in jsonschema, whose messages it uses.  It differs from jsonschema in one
    verdict: an ``integer`` is a Python int that is not a bool, so an integral
    float such as ``rank: 2.0`` is a violation, which draft 7 lets through to
    fail later in ``range()``.
    """
    found = []
    _walk(schema, data, (), found)
    best = None
    for violation in found:
        if best is None or _outranks(violation[0], best[0]):
            best = violation
    return best


def _check_schema(schema, path=("<root>",)):
    """Refuse a schema that uses a keyword, a type or a value the walk does not
    check, so that the walk and schema.json cannot drift apart."""
    problem = None
    if not isinstance(schema, dict):
        problem = "a schema must be an object"
    elif not schema.keys() <= _KNOWN:
        problem = f"unsupported keyword {next(k for k in schema if k not in _KNOWN)!r}"
    elif "type" in schema and not set(_names(schema["type"])) <= _TYPES.keys():
        problem = f"unsupported type {schema['type']!r}"
    elif not all(isinstance(value, (str, int, float))
                 for value in [*schema.get("enum", ()), schema.get("const", 0)]):
        problem = "enum or const holds a value that is not a scalar"
    if problem:
        raise ValueError(f"schema.json at {'/'.join(path)}: {problem}")
    for key, subschema in schema.get("properties", {}).items():
        _check_schema(subschema, path + ("properties", key))
    for keyword in ("additionalProperties", "items"):
        if keyword in schema:
            _check_schema(schema[keyword], path + (keyword,))


def load_schema():
    """schema.json, the published contract, checked to use only what the walk checks."""
    schema = json.loads(resources.files("algindex").joinpath("schema.json").read_text())
    _check_schema(schema)
    return schema


def load_document(path):
    if path == "-":
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        try:
            # undecodable bytes become lone surrogates, as they do on stdin,
            # and the YAML reader rejects them
            with open(path, encoding="utf-8", errors="surrogateescape") as handle:
                text = handle.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {path}: {exc}") from exc
        name = path
    try:
        data = _parse(text)
    # ValueError: a date such as 2020-13-01, or an integer of over 4300 digits;
    # RecursionError: nesting deeper than the pure-Python loader recurses
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise DocumentError(f"{name}: YAML parse error{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise DocumentError(f"{name}: document must be a mapping")
    violation = schema_violation(load_schema(), data)
    if violation is not None:
        path, message = violation
        raise DocumentError(
            f"{name}: schema violation at {'/'.join(map(str, path)) or '<root>'}: {message}")
    return data


# ---------------------------------------------------------------------------
# building the declared objects
# ---------------------------------------------------------------------------

# (document section, kind of object it declares), in build order
_SECTIONS = (
    ("algebroids", "algebroid"),
    ("metrics", "metric"),
    ("connections", "connection"),
    ("representations", "representation"),
    ("densities", "density"),
    ("forms", "form"),
    ("domains", "domain"),
    ("groupoids", "groupoid"),
)


class JobContext:
    def __init__(self, document):
        self.document = document
        backend = document.get("backend", "poly")
        names = tuple(document.get("coordinates", ()))
        self.chart = Chart(names, backend)
        self.tables = {kind: {} for _, kind in _SECTIONS}
        try:
            for section, kind in _SECTIONS:
                build = getattr(self, f"_build_{kind}")
                for name, spec in sorted((document.get(section) or {}).items()):
                    self.tables[kind][name] = build(name, spec)
        except (ValueError, KeyError) as exc:
            raise DocumentError(f"document error: {exc}") from exc

    def ref(self, kind, name):
        """The declared object of a kind ("algebroid", "metric", ...) by name.

        ``None`` stands for an optional reference that was left out.
        """
        if name is None:
            return None
        if name not in self.tables[kind]:
            raise DocumentError(f"unknown {kind} {name!r}")
        return self.tables[kind][name]

    def _build_algebroid(self, name, spec):
        kind = spec["kind"]
        if kind == "tangent":
            return alg.tangent(self.chart.dim, self.chart, name)
        if kind == "abelian":
            return alg.abelian_bundle(
                self.chart.dim, spec["rank"], self.chart, name
            )
        if kind in ("lie_algebra", "action", "explicit"):
            rank = spec["rank"]
            chart = Chart((), "poly") if kind == "lie_algebra" else self.chart
            structure = {}
            for key, row in (spec.get("structure") or {}).items():
                a, b = (int(i) - 1 for i in key.split(","))
                coeffs = [chart.zero()] * rank
                for c, value in row.items():
                    c = int(c)
                    if not 1 <= c <= rank:
                        raise DocumentError(
                            f"structure coefficient index {c} of [{key}] is outside 1..{rank}"
                        )
                    coeffs[c - 1] = chart.parse(str(value))
                structure[(a, b)] = coeffs
            if kind == "lie_algebra":
                anchor = [[] for _ in range(rank)]
            else:
                anchor = [
                    [chart.parse(str(v)) for v in row] for row in spec["anchor"]
                ]
            return alg.AlgebroidPresentation(chart, rank, anchor, structure, name)
        if kind == "pullback":
            parent = self.ref("algebroid", spec["parent"])
            return alg.pullback(parent, spec.get("fiber_dim", parent.rank), name=name)
        if kind == "product":
            return alg.product(
                self.ref("algebroid", spec["left"]), self.ref("algebroid", spec["right"]),
                name,
            )
        raise DocumentError(f"unknown algebroid kind {kind!r}")

    def _build_metric(self, name, spec):
        A = self.ref("algebroid", spec["algebroid"])
        kind = spec.get("kind", "matrix")
        if kind == "identity":
            return cw.Metric.identity(A)
        if kind == "conformal":
            metric = cw.Metric.conformal(A, A.chart.parse(str(spec["factor"])))
        elif kind == "matrix":
            entries = [
                [A.chart.parse(str(v)) for v in row] for row in spec["entries"]
            ]
            metric = cw.Metric(A, entries)
        else:
            raise DocumentError(f"unknown metric kind {kind!r}")
        if not metric.check_positive_definite():
            raise DocumentError(
                f"metric on {A.name!r} is not positive definite"
            )
        return metric

    def _build_connection(self, name, spec):
        A = self.ref("algebroid", spec["algebroid"])
        m = spec.get("bundle_rank", A.rank)
        if spec.get("kind") == "zero":
            return cw.GConnection.zero(A, m)
        if spec.get("kind") == "levi_civita":
            return cw.levi_civita(A, self.ref("metric", spec["metric"]))
        if spec.get("kind") == "adjoint":
            mats = [
                [[A.bracket(a, b)[c] for b in range(A.rank)] for c in range(A.rank)]
                for a in range(A.rank)
            ]
            return cw.GConnection(A, A.rank, mats)
        matrices = [
            [[A.chart.parse(str(v)) for v in row] for row in mat]
            for mat in spec["matrices"]
        ]
        return cw.GConnection(A, m, matrices)

    def _build_representation(self, name, spec):
        conn = self._build_connection(name, spec)
        if not cw.validate_representation(conn):
            raise DocumentError(
                f"representation {name!r} is not flat (nonzero curvature)"
            )
        return conn

    def _build_density(self, name, spec):
        A = self.ref("algebroid", spec["algebroid"])
        return ti.Density(A, spec.get("coefficient", 1))

    def _build_form(self, name, spec):
        A = self.ref("algebroid", spec["algebroid"])
        degree = spec["degree"]
        coeffs = {}
        for key, value in (spec.get("coefficients") or {}).items():
            indices = tuple(int(i) - 1 for i in str(key).split(",")) if key else ()
            coeffs[indices] = (A.chart.parse(str(value)),)
        if not 0 <= degree <= A.rank:
            raise AlgindexError(f"degree {degree} out of range for rank {A.rank}")
        for indices, values in coeffs.items():  # key by key, so the first bad key is reported
            if len(indices) != degree:
                raise AlgindexError(f"index tuple {indices} has wrong length")
            AlgForm(A, {indices: values})
        return AlgForm(A, coeffs)

    def _build_domain(self, name, spec):
        kind = spec["type"]
        if kind == "point":
            return ti.PointDomain()
        if kind == "box":
            return ti.BoxDomain([(as_fraction(str(lo)), as_fraction(str(hi)))
                                 for lo, hi in spec["bounds"]])
        if kind == "plane":
            return ti.PlaneDomain()
        raise DocumentError(f"unknown domain type {kind!r}")

    def _build_groupoid(self, name, spec):
        kind = spec["kind"]
        if kind == "pair":
            return gp.pair_groupoid(spec["size"])
        if kind == "cyclic":
            return gp.cyclic_group_groupoid(spec["order"])
        if kind == "explicit":
            try:
                return gp.FiniteGroupoid.from_table(
                    spec["objects"],
                    [tuple(a) if isinstance(a, list) else a for a in spec["arrows"]],
                    spec["source"],
                    spec["target"],
                    spec["unit"],
                    spec["inverse"],
                    {tuple(str(k).split("|")): v for k, v in spec["compose"].items()},
                )
            except TypeError as exc:  # a list or mapping where a label belongs
                raise DocumentError(f"document error: {exc}") from exc
        raise DocumentError(f"unknown groupoid kind {kind!r}")


# ---------------------------------------------------------------------------
# serialization helpers (canonical, deterministic)
# ---------------------------------------------------------------------------


def _fmt_float(value) -> str:
    return f"{float(value):.12g}"


def _fmt_value(value):
    if isinstance(value, Fraction):
        return str(value)
    return _fmt_float(value)


def _serialize_form(form: AlgForm):
    return [
        [",".join(str(i + 1) for i in indices), str(values[0])]
        for indices, values in sorted(form.coeffs.items())
    ]


def _serialize_mixed(form: AlgForm):
    return {str(degree): _serialize_form(form.degree_part(degree)) for degree in form.degrees()}


def _serialize_report(report):
    return {
        "status": "valid" if report.ok else "invalid",
        "violations": [
            {
                "kind": v.kind,
                "indices": list(v.indices),
                "residual": str(v.residual),
            }
            for v in report.violations
        ],
    }


def _serialize_integral(result: ti.IntegrationResult):
    return {
        "value": _fmt_value(result.value),
        "exact": result.value_is_exact,
        "error": _fmt_float(result.error),
    }


# ---------------------------------------------------------------------------
# computation dispatch: one handler per op
# ---------------------------------------------------------------------------


class _Fields(dict):
    """A computation's fields; indexing a missing one is a document error."""

    def __missing__(self, key):
        raise DocumentError(f"{self['op']} computation is missing the {key!r} field")


class _Settings(NamedTuple):
    truncate: int | None
    tolerance: float
    budget: int


def _settings(comp, overrides):
    """Each setting from its flag if given, else from the computation, else the default.

    The schema keeps a document's ``tolerance`` above 0; NaN and infinity pass
    that bound, so finiteness is checked here, as the flag checks it.
    """

    def pick(key, default):
        value = overrides.get(key)
        return comp.get(key, default) if value is None else value

    tolerance = float(pick("tolerance", 1e-9))
    if not math.isfinite(tolerance):
        raise DocumentError(f"{comp['op']} computation: tolerance must be finite, got {tolerance}")
    return _Settings(pick("truncate", None), tolerance, int(pick("budget", 4000)))


def _validate(ctx, comp, settings):
    names = [comp["algebroid"]] if "algebroid" in comp else sorted(ctx.tables["algebroid"])
    reports = {name: ctx.ref("algebroid", name).validate() for name in names}
    results = {name: _serialize_report(report) for name, report in reports.items()}
    if not all(report.ok for report in reports.values()):
        raise ComputationError(json.dumps(results, sort_keys=True))
    return results


def _cohomology(ctx, comp, settings):
    A = ctx.ref("algebroid", comp["algebroid"])
    rep = ctx.ref("representation", comp.get("representation"))
    return {"betti": cohomology_const(A, rep, comp.get("max_degree"))}


def _curvature(ctx, comp, settings):
    R = cw.curvature(ctx.ref("connection", comp["connection"]))
    return {"curvature": [[_serialize_form(f) for f in row] for row in R.entries]}


def _charclass(ctx, comp, settings):
    genus = comp["genus"]
    metric = ctx.ref("metric", comp.get("metric"))
    if genus == "euler":
        if metric is None:
            raise DocumentError("the euler class needs a metric")
        return {"class": _serialize_mixed(ti.euler_class(metric.algebroid, metric))}
    if "connection" in comp:
        source = ctx.ref("connection", comp["connection"])
    elif metric is not None:
        source = cw.levi_civita(metric.algebroid, metric)
    else:
        raise DocumentError("charclass needs a connection or a metric")
    if genus in ("chern1", "chern2", "chern3", "chern4"):  # c_k: a part of the total class
        total = cw.char_class(source, "chern", settings.truncate)
        form = total.degree_part(2 * int(genus[-1]))
    else:
        form = cw.char_class(source, genus, settings.truncate, metric=metric)
    return {"class": _serialize_mixed(form)}


def _index(ctx, comp, settings):
    result = ti.index_general(
        operator=comp["kind"],
        A=ctx.ref("algebroid", comp["algebroid"]),
        metric=ctx.ref("metric", comp["metric"]),
        E=ctx.ref("connection", comp.get("connection")),
        nu=ctx.ref("form", comp.get("nu")),
        density=ctx.ref("density", comp["density"]),
        domain=ctx.ref("domain", comp.get("domain")),
        tol=settings.tolerance,
        budget=settings.budget,
    )
    out = _serialize_integral(result.integral)
    out["i_power"] = result.i_power
    if result.note:
        out["note"] = result.note
    return out


def _modular_cocycle(ctx, comp, settings):
    cocycle = ti.modular_cocycle(
        ctx.ref("algebroid", comp["algebroid"]), ctx.ref("density", comp["density"])
    )
    return {"cocycle": _serialize_form(cocycle), "unimodular": cocycle.is_zero()}


def _thom_check(ctx, comp, settings):
    check = ti.thom_compatibility(
        ctx.ref("algebroid", comp["algebroid"]),
        ctx.ref("form", comp["form"]),
        ctx.ref("density", comp["density"]),
        ctx.ref("domain", comp.get("domain")),
        settings.tolerance,
        settings.budget,
    )
    result = {
        "base": _serialize_integral(check.base),
        "mapped": _serialize_integral(check.mapped),
        "compatible": check.compatible,
        "theta_closed": check.theta_closed,
        "theta_nondegenerate": check.theta_nondegenerate,
        "roundtrip_identity": check.roundtrip_identity,
    }
    if not (check.compatible and check.theta_nondegenerate and check.roundtrip_identity):
        raise ComputationError(json.dumps(result, sort_keys=True))
    return result


def _groupoid_cohomology(ctx, comp, settings):
    G = ctx.ref("groupoid", comp["groupoid"])
    rep = gp.FiniteRep.trivial(G, comp.get("fiber_dim", 1))
    return {"betti": gp.groupoid_cohomology(G, rep, comp.get("max_degree", 2))}


def _convolution_table(ctx, comp, settings):
    # delta_g1 * delta_g2 is delta_(g1 g2) when g1, g2 compose, and 0 otherwise
    G = ctx.ref("groupoid", comp["groupoid"])
    return {"table": {f"{g1}*{g2}": {str(G.compose(g1, g2)): "1"}
                      for g1 in G.arrows for g2 in G.leaving[G.target[g1]]}}


def _trace(ctx, comp, settings):
    G = ctx.ref("groupoid", comp["groupoid"])
    for key, labels, noun in (("weights", G.objects, "object"), ("function", G.arrows, "arrow")):
        if len(comp[key]) != len(labels):
            raise DocumentError(
                f"trace {key}: need {len(labels)}, one per {noun}, got {len(comp[key])}"
            )
    weights = {x: as_fraction(str(w)) for x, w in zip(G.objects, comp["weights"])}
    f = {g: as_fraction(str(v)) for g, v in zip(G.arrows, comp["function"])}
    return {"trace": str(gp.trace(f, weights, G))}


_HANDLERS = {
    "validate": _validate,
    "cohomology": _cohomology,
    "curvature": _curvature,
    "charclass": _charclass,
    "index": _index,
    "modular-cocycle": _modular_cocycle,
    "thom-check": _thom_check,
    "groupoid-cohomology": _groupoid_cohomology,
    "convolution-table": _convolution_table,
    "trace": _trace,
}


def run_document(ctx: JobContext, families=None, overrides=None):
    """Execute the document's computations (optionally one family only).

    A library error fails its own computation and the next one still runs;
    a ``DocumentError`` stops the document.
    """
    overrides = overrides or {}
    computations = ctx.document.get("computations", [])
    if families is not None:
        computations = [c for c in computations if c["op"] in families]
        if not computations and "validate" in families:
            # bare `validate` runs every declared algebroid
            computations = [
                {"op": "validate", "algebroid": name, "label": name}
                for name in sorted(ctx.tables["algebroid"])
            ]
    results = []
    failures = 0
    for position, comp in enumerate(computations):
        comp = _Fields(comp)
        op = comp["op"]
        label = comp.get("label", f"{op}#{position}")
        if op not in _HANDLERS:
            raise DocumentError(f"unknown operation {op!r}")
        try:
            outcome = _HANDLERS[op](ctx, comp, _settings(comp, overrides))
            results.append({"label": label, "op": op, "ok": True, "result": outcome})
        except AlgindexError as exc:
            failures += 1
            results.append({"label": label, "op": op, "ok": False, "error": str(exc)})
    return results, failures


def _emit(results, failures, fmt, out=None):
    out = out or sys.stdout
    if fmt == "json":
        payload = {"results": results, "failures": failures}
        out.write(json.dumps(payload, sort_keys=True, indent=2))
        out.write("\n")
        return
    for item in results:
        status = "ok" if item["ok"] else "FAIL"
        body = json.dumps(item.get("result", item.get("error")), sort_keys=True)
        out.write(f"{status} {item['op']} {item['label']}: {body}\n")
    out.write(f"{len(results) - failures}/{len(results)} computations succeeded\n")


def _ranged(convert, accept, requirement):
    """An argparse type: ``convert`` the text, then reject values out of range."""

    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="algindex",
        description="Lie algebroid characteristic calculus: batch computations "
        "from a YAML job document.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in list(_OP_FAMILIES) + ["run"]:
        p = sub.add_parser(command)
        p.add_argument("document", help="job document path, or - for stdin")
        p.add_argument("--truncate", type=_ranged(int, lambda v: v >= 0, "an integer >= 0"))
        p.add_argument("--tolerance", type=_ranged(
            float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0"))
        p.add_argument("--budget", type=_ranged(int, lambda v: v >= 1, "an integer >= 1"))
    args = parser.parse_args(argv)

    families = None if args.command == "run" else _OP_FAMILIES[args.command]
    overrides = {"truncate": args.truncate, "tolerance": args.tolerance,
                 "budget": args.budget}
    try:
        ctx = JobContext(load_document(args.document))
        results, failures = run_document(ctx, families, overrides)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(results, failures, args.format)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
