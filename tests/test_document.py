"""Reading a document: the two YAML loaders agree, and the schema walk reports
what jsonschema reports.

The corpus is every bundled job, every document under tests/ and the
benchmark documents of every workload for seeds 1, 5 and 7.  The walk's
oracle is jsonschema's draft-7 validator with the one difference the walk
makes on purpose: an ``integer`` is an int, never an integral float.
"""

import copy
import importlib.util
import io
import json
import random
import sys
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from algindex import cli
from test_fuzz import documents

try:
    import jsonschema
except ImportError:  # a test dependency only; the CLI never imports it
    jsonschema = None

needs_jsonschema = pytest.mark.skipif(jsonschema is None, reason="jsonschema is not installed")

TESTS = Path(__file__).parent
ROOT = TESTS.parent
BUNDLED = Path(str(resources.files("algindex").joinpath("jobs")))
SCHEMA = cli.load_schema()


def _workloads():
    """perfbench/workloads.py, imported from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _corpus():
    """(name, YAML text) of every bundled, test and benchmark document."""
    paths = (sorted(BUNDLED.glob("*.yaml")) + sorted((TESTS / "documents").glob("*.yaml"))
             + [TESTS / "charclass" / "genera.yaml"])
    docs = [(path.name, path.read_text()) for path in paths]
    workloads = _workloads()
    for workload in sorted(workloads.WORKLOADS):
        for seed in (1, 5, 7):
            docs.extend((f"{workload}-{seed}-{doc.name}", doc.text)
                        for doc in workloads.generate(workload, seed))
    return docs


CORPUS = _corpus()


# ---------------------------------------------------------------------------
# the YAML loaders
# ---------------------------------------------------------------------------


needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML is built without libyaml")


@needs_libyaml
def test_c_and_pure_loaders_give_equal_data():
    assert len(CORPUS) > 80
    for name, text in CORPUS:
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert json.dumps(fast) == json.dumps(yaml.safe_load(text)), name


# the bundled jobs' exit codes; every document under tests/documents exits 0
EXIT_CODES = {"aff1": 1, "su2-invalid": 1}


def test_pure_loader_output_matches_goldens(monkeypatch, capsys):
    # where PyYAML has no libyaml, cli._Loader is the pure loader
    monkeypatch.setattr(cli, "_Loader", yaml.SafeLoader)
    cases = [(path, TESTS / "goldens" / path.stem) for path in sorted(BUNDLED.glob("*.yaml"))]
    cases += [(path, path.with_suffix("")) for path in sorted((TESTS / "documents").glob("*.yaml"))]
    for path, golden in cases:
        for fmt in ("text", "json"):
            code = cli.main(["--format", fmt, "run", str(path)])
            out, err = capsys.readouterr()
            assert (code, err) == (EXIT_CODES.get(path.stem, 0), ""), path
            assert out == golden.with_suffix(f".{fmt}").read_text(), (path, fmt)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_invalid_utf8_is_a_parse_error(tmp_path, monkeypatch, capsys, source):
    data = b"version: 1\ncomputations: []\n\xff\xfe\n"
    doc = tmp_path / "doc.yaml"
    doc.write_bytes(data)
    # stdin as Python sets it up in a UTF-8 locale
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    name = "<stdin>" if source == "stdin" else str(doc)
    assert cli.main(["run", "-" if source == "stdin" else str(doc)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {name}: YAML parse error: unacceptable character #xdcff: special "
        'characters are not allowed\n  in "<unicode string>", position 28\n'))


@pytest.mark.parametrize("value,error", [
    ("2020-13-01", "month must be in 1..12"),
    ("1" * 4301, "Exceeds the limit (4300 digits) for integer string conversion"),
    # nested past libyaml's C stack: the pure loader parses it, and runs out of depth
    ("[" * 30000 + "]" * 30000, "maximum recursion depth exceeded"),
], ids=["date", "long-integer", "deep-nesting"])
def test_value_the_loader_cannot_build_is_a_parse_error(tmp_path, capsys, value, error):
    doc = tmp_path / "doc.yaml"
    doc.write_text(f"version: 1\ncomputations: []\nx: {value}\n")
    assert cli.main(["run", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {doc}: YAML parse error: {error}")


@needs_libyaml
def test_nesting_within_the_c_loader_bound_loads():
    # deeper than the pure loader's Python recursion reaches
    text = "version: 1\ncomputations: []\nx: " + "[" * 2000 + "]" * 2000 + "\n"
    assert cli._parse(text)["version"] == 1


# ---------------------------------------------------------------------------
# the schema walk
# ---------------------------------------------------------------------------


def _violation(document):
    """The walk's (printed path, message), or None."""
    found = cli.schema_violation(SCHEMA, document)
    return found and ("/".join(map(str, found[0])), found[1])


def test_sibling_violations_report_the_later_one():
    document = {"version": 1, "computations": [{"op": "bad"}, {"op": "worse"}]}
    path, message = _violation(document)
    assert path == "computations/1/op" and message.startswith("'worse' is not one of ")


def test_budget_and_tolerance_violations_report_tolerance():
    document = {"version": 1, "computations": [{"op": "index", "budget": 0, "tolerance": 0}]}
    assert _violation(document) == ("computations/0/tolerance",
                                    "0 is less than or equal to the minimum of 0")


def test_shallower_violation_wins():
    document = {"computations": [{"op": "bad"}]}
    assert _violation(document) == ("", "'version' is a required property")


def test_first_missing_property_is_reported():
    assert _violation({}) == ("", "'version' is a required property")


def test_first_violation_at_one_path_wins():
    document = {"version": 1, "algebroids": {"A": {"kind": "abelian", "rank": -1.5}},
                "computations": []}
    assert _violation(document) == ("algebroids/A/rank", "-1.5 is not of type 'integer'")


def test_keys_that_do_not_compare_give_a_violation():
    # jsonschema's best_match raises TypeError comparing the paths (1, ...) and ("a", ...)
    document = {"version": 1, "algebroids": {1: {"kind": "x"}, "a": {"kind": "y"}},
                "computations": []}
    path, message = _violation(document)
    assert path == "algebroids/a/kind" and message.startswith("'y' is not one of ")


@pytest.mark.parametrize("schema,problem", [
    ({"type": "object", "oneOf": []}, "at <root>: unsupported keyword 'oneOf'"),
    ({"properties": {"a": {"$ref": "#"}}}, "at <root>/properties/a: unsupported keyword '$ref'"),
    ({"items": {"type": "null"}}, "at <root>/items: unsupported type 'null'"),
    ({"additionalProperties": False}, "at <root>/additionalProperties: a schema must be"),
    ({"enum": [[1]]}, "at <root>: enum or const holds a value that is not a scalar"),
])
def test_schema_with_what_the_walk_does_not_check_is_refused(schema, problem):
    with pytest.raises(ValueError, match=problem.replace("$", r"\$")):
        cli._check_schema({"$schema": "http://json-schema.org/draft-07/schema#",
                           "title": "t", **schema})


INTEGRAL_FLOATS = [
    ({"algebroids": {"A": {"kind": "abelian", "rank": 2.0}}}, "algebroids/A/rank: 2.0"),
    ({"groupoids": {"G": {"kind": "pair", "size": 3.0}}}, "groupoids/G/size: 3.0"),
    ({"groupoids": {"G": {"kind": "cyclic", "order": 3.0}}}, "groupoids/G/order: 3.0"),
]


@pytest.mark.parametrize("sections,violation", INTEGRAL_FLOATS)
def test_integral_float_is_not_an_integer(tmp_path, capsys, sections, violation):
    # draft 7 counts 2.0 as an integer, and range() then raised TypeError
    doc = tmp_path / "doc.yaml"
    doc.write_text(yaml.safe_dump({"version": 1, **sections, "computations": []}))
    assert cli.main(["run", str(doc)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {doc}: schema violation at {violation} is not of type 'integer'\n")


@needs_jsonschema
@pytest.mark.parametrize("sections,violation", INTEGRAL_FLOATS)
def test_integral_float_is_the_one_difference_from_draft_7(sections, violation):
    document = {"version": 1, **sections, "computations": []}
    assert jsonschema.Draft7Validator(SCHEMA).is_valid(document)
    assert not ORACLE.is_valid(document)
    assert ": ".join(_violation(document)).startswith(violation)


# values that replace a node: every JSON type, integral floats and bools
# among them, and numbers either side of the schema's bounds
SWAPS = ["x", "", "1x", 0, 1, -1, 2, 2.0, 0.5, -1e-9, 257, 65537, float("nan"), float("inf"),
         True, False, None, [], ["x"], [1, 2, 3], {}, {"kind": "x"}]


def _slots(value, parent=None, key=None):
    """(parent, key, value) of every node below the document root."""
    if parent is not None:
        yield parent, key, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _slots(v, value, k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _slots(v, value, i)


def mutate(document, rng):
    """The document with one to three mutations: fields dropped, a field added, a
    value of another type, a misspelled string, a number across a bound, a bool
    in a number slot, an array made shorter or longer."""
    document = copy.deepcopy(document)
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        slots = list(_slots(document))
        if not slots:
            break
        parent, key, value = rng.choice(slots)
        if isinstance(value, dict) and value and rng.random() < 0.5:
            for k in rng.sample(sorted(value, key=str), rng.randint(1, len(value))):
                del value[k]
        elif isinstance(value, dict):
            value[rng.choice(["extra", "kind", "rank", "op"])] = copy.deepcopy(rng.choice(SWAPS))
        elif isinstance(value, list) and value and rng.random() < 0.5:
            value.pop()
        elif isinstance(value, list) and rng.random() < 0.5:
            value.append(rng.choice(value or ["x"]))
        elif isinstance(value, str) and rng.random() < 0.7:
            parent[key] = rng.choice([value + "x", value.upper(), value[:-1], "1" + value])
        elif isinstance(value, (int, float)) and not isinstance(value, bool) \
                and rng.random() < 0.7:
            parent[key] = rng.choice([-1, 0, 0.0, -1e-9, 257, 65537, True, False,
                                      float(value)])
        else:
            parent[key] = copy.deepcopy(rng.choice(SWAPS))
    return document


if jsonschema is not None:
    ORACLE = jsonschema.validators.extend(
        jsonschema.Draft7Validator,
        type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
            "integer", lambda checker, value: isinstance(value, int)
            and not isinstance(value, bool)),
    )(SCHEMA)


def check_against_oracle(document):
    """Assert that the walk reports what jsonschema reports; the keywords of
    jsonschema's errors, and their number."""
    errors = list(ORACLE.iter_errors(document))
    best = jsonschema.exceptions.best_match(errors)
    found = cli.schema_violation(SCHEMA, document)
    if best is None:
        assert found is None, (document, found)
    else:
        assert found == (tuple(best.absolute_path), best.message), document
    return {error.validator for error in errors}, len(errors)


@needs_jsonschema
def test_walk_matches_jsonschema_on_mutated_documents():
    rng = random.Random(1)
    originals = [yaml.safe_load(text) for _, text in CORPUS]
    originals = [doc for doc in originals if isinstance(doc, dict)]
    keywords, counts = set(), []
    for _ in range(1200):
        seen, count = check_against_oracle(mutate(rng.choice(originals), rng))
        keywords |= seen
        counts.append(count)
    # every keyword that can report an error has, and many documents have one error
    assert keywords == {"type", "required", "enum", "const", "pattern", "minimum",
                        "maximum", "exclusiveMinimum", "minItems", "maxItems"}
    assert counts.count(0) > 100 and counts.count(1) > 400


@needs_jsonschema
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(document=documents(), rng=st.randoms(use_true_random=False))
def test_walk_matches_jsonschema_on_fuzzed_documents(document, rng):
    check_against_oracle(document)
    check_against_oracle(mutate(document, rng))
