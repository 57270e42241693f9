"""Documents built from the fragments of schema.json: whatever they hold, the
CLI exits 0, 1 or 2 and never shows a traceback.

Every object and computation takes its keys, enums and integer minimums from
the schema; now and then an integer is an integral float.  Integers stay small
(ranks at most 4, degrees at most 3), but a groupoid's order goes up to 64 and
its size up to 32, and every document that loads must build within 1 s.  References name declared objects or a missing
one, and scalars come from a pool that holds poles, a division by zero, a
syntax error, values beyond float range and quotients over reducible and
repeated factors.  A computation declares only the references its operation
reads.
"""

import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from algindex import cli

SCHEMA = cli.load_schema()
NAMES = ["a", "b"]
COORDINATES = ["x", "y"]
# properties that refer to a declared object, most often the first name (each
# section declares it); "missing" is never declared
REFERENCES = {"algebroid", "metric", "connection", "representation", "density", "form",
              "domain", "groupoid", "parent", "left", "right", "nu"}
# the section each reference of a computation names
SECTION_OF = {"algebroid": "algebroids", "metric": "metrics", "connection": "connections",
              "representation": "representations", "density": "densities", "form": "forms",
              "nu": "forms", "domain": "domains", "groupoid": "groupoids"}
# the properties each kind of declared object needs to be built; the schema
# requires fewer
BUILD_FIELDS = {"algebroids": ["rank"], "metrics": ["kind", "factor"], "connections": ["matrices"],
                "representations": ["matrices"], "domains": ["bounds"],
                "groupoids": ["size", "order"]}
# the largest value of each integer property; 4 for the others
INTEGER_CAPS = {"degree": 3, "max_degree": 3, "truncate": 3, "order": 64, "size": 32}

scalars = st.sampled_from(
    ["0", "1", "-2", "1/2", "x", "y", "x*y", "1+x^2", "1/(1+x^2)", 0, 1, -1] * 2
    + ["1/x", "1/0", "x +", 0.5, "x^400", "exp(100000*x^2)",
       "(x^2 - 1)/((x - 1)*(1 + y^2))", "x/(x^2 - y^2)", "1/((1 + x^2)^2*(2 + x^2 + y^2))"])
indices = st.sampled_from([1, 2, 3, 4, 1, 2, 3, 4, 0, 5])  # now and then out of range


def _index_key(size):
    return st.lists(indices, min_size=size, max_size=size).map(
        lambda items: ",".join(str(i) for i in items))


def _matrix(entries):
    return st.lists(st.lists(entries, max_size=4), max_size=4)


# properties the schema leaves loose, or whose values need a shape of their own
SPECIAL = {
    "structure": st.dictionaries(_index_key(2), st.dictionaries(indices.map(str), scalars,
                                                                 max_size=3), max_size=4),
    "coefficients": st.dictionaries(st.integers(0, 3).flatmap(_index_key), scalars,
                                    max_size=3),
    "anchor": _matrix(scalars),
    "entries": _matrix(scalars),
    "matrices": st.lists(_matrix(scalars), max_size=4),
    "bounds": st.lists(st.lists(scalars, min_size=2, max_size=2), max_size=3),
    "weights": st.lists(scalars, max_size=5),
    "function": st.lists(scalars, max_size=10),
    "coordinates": st.lists(st.sampled_from(COORDINATES), max_size=2, unique=True),
    "label": st.sampled_from(["one", "two"]),
    "kind": st.sampled_from(["euler", "signature", "dirac", "todd"]),
    # in range: test_cli pins the rejection of the others
    "tolerance": st.sampled_from([1e-3, 1e-6]),
    "budget": st.integers(1, 4),
}

# the fields each operation reads; the schema requires only "op"
OP_FIELDS = {
    "validate": [],
    "cohomology": ["algebroid"],
    "charclass": ["genus"],
    "curvature": ["connection"],
    "index": ["algebroid", "metric", "density", "kind"],
    "modular-cocycle": ["algebroid", "density"],
    "thom-check": ["algebroid", "form", "density"],
    "groupoid-cohomology": ["groupoid"],
    "convolution-table": ["groupoid"],
    "trace": ["groupoid", "weights", "function"],
}


def from_fragment(key, fragment):
    """A strategy for the value of one schema property."""
    if key in SPECIAL and "enum" not in fragment:
        return SPECIAL[key]
    if key in REFERENCES:
        return st.sampled_from(NAMES[:1] * 8 + NAMES[1:] + ["missing"])
    if "enum" in fragment:
        # the first values (tangent, abelian and lie_algebra, pair and cyclic,
        # identity and conformal, ...) build most often, so they come more often
        return st.sampled_from(fragment["enum"][:3] * 3 + fragment["enum"])
    if "const" in fragment:
        return st.just(fragment["const"])
    kind = fragment.get("type")
    if kind == "integer":
        low = fragment.get("minimum", 0)
        # one value in ten an integral float, such as 2.0, which the schema refuses
        return st.integers(low, max(low, INTEGER_CAPS.get(key, 4))).flatmap(
            lambda n: st.sampled_from([n] * 9 + [float(n)]))
    if kind == "object" and "properties" in fragment:
        return from_object(fragment)
    return scalars


def from_object(fragment, required=()):
    """A mapping with every required property of the fragment, and of ``required``,
    and some of the others."""
    properties = fragment.get("properties", {})
    required = set(fragment.get("required", ())) | set(required)
    return st.fixed_dictionaries(
        {key: from_fragment(key, properties.get(key, {})) for key in sorted(required)},
        optional={key: from_fragment(key, value)
                  for key, value in properties.items() if key not in required},
    )


def _section(name):
    entry = SCHEMA["properties"][name]["additionalProperties"]
    declared = from_object(entry, BUILD_FIELDS.get(name, ()))
    return st.fixed_dictionaries({NAMES[0]: declared}, optional={NAMES[1]: declared})


# the references each operation reads when they are given
OPTIONAL_REFERENCES = {"validate": ["algebroid"], "cohomology": ["representation"],
                       "charclass": ["metric", "connection"],
                       "index": ["connection", "nu", "domain"], "thom-check": ["domain"]}

_COMPUTATION = SCHEMA["properties"]["computations"]["items"]


def _computation(op):
    """The fields ``op`` reads, and some optional ones: any that is not a
    reference, and the references it reads, so that a document declares no
    section that its operations never read."""
    reads = set(OP_FIELDS[op]) | set(OPTIONAL_REFERENCES.get(op, ()))
    properties = {key: value for key, value in _COMPUTATION["properties"].items()
                  if key not in REFERENCES or key in reads}
    return from_object({**_COMPUTATION, "properties": properties}, OP_FIELDS[op])


def computations(ops):
    return st.sampled_from(ops).flatmap(
        lambda op: _computation(op).map(lambda comp: {**comp, "op": op}))


@st.composite
def documents(draw):
    """Computations, and the sections their references name.

    Algebroids are built first and most drawn ones fail to build, so they are
    declared only when a computation or another drawn section refers to one;
    otherwise the sections after them would seldom be built at all.
    """
    document = {"version": 1, "coordinates": draw(SPECIAL["coordinates"]),
                "computations": draw(st.lists(computations(sorted(OP_FIELDS)),
                                              min_size=1, max_size=3))}
    if draw(st.booleans()):
        document["backend"] = draw(from_fragment("backend", SCHEMA["properties"]["backend"]))
    named = {SECTION_OF[key] for comp in document["computations"] for key in comp
             if key in SECTION_OF}
    for name in sorted(named - {"algebroids"}):
        document[name] = draw(_section(name))
    if "algebroids" in named or any("algebroid" in entry for name in named
                                    for entry in document[name].values()):
        document["algebroids"] = draw(_section("algebroids"))
    return document


# groupoids alone, so that no other section fails to build before them
groupoid_documents = st.fixed_dictionaries({
    "version": st.just(1),
    "groupoids": _section("groupoids"),
    "computations": st.lists(computations(cli._OP_FAMILIES["groupoid"]), min_size=1, max_size=3),
})

commands = st.sampled_from(["run"] * 4 + sorted(cli._OP_FAMILIES))


def _stdin(text):
    """A text stdin over bytes, as the interpreter opens it."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def build_seconds(text):
    """Seconds cli.JobContext takes on the document, or None if it does not load."""
    stdin, sys.stdin = sys.stdin, _stdin(text)
    try:
        document = cli.load_document("-")
    except cli.DocumentError:
        return None
    finally:
        sys.stdin = stdin
    start = time.perf_counter()
    try:
        cli.JobContext(document)
    except cli.DocumentError:
        pass
    return time.perf_counter() - start


def run_main(argv, text):
    """cli.main on a document read from stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, _stdin(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def check_document(document, argv):
    """A document that loads builds within 1 s, and the CLI exits 0, 1 or 2 on it
    without a traceback."""
    text = yaml.safe_dump(document)
    seconds = build_seconds(text)
    assert seconds is None or seconds < 1.0, f"the document took {seconds:.2f}s to build"
    code, out, err = run_main(argv + ["-"], text)
    assert code in (0, 1, 2), (code, out, err)
    assert "Traceback" not in err


fuzz = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@fuzz
@given(document=documents(), command=commands, fmt=st.sampled_from(["text", "json"]))
def test_schema_documents_exit_cleanly(document, command, fmt):
    check_document(document, ["--format", fmt, command])


@settings(fuzz, max_examples=50)
@given(document=groupoid_documents)
def test_groupoid_documents_build_within_budget(document):
    check_document(document, ["run"])
