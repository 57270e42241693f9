import json
import subprocess
import sys
from importlib import resources

import pytest

from algindex import cli


def job_path(name):
    return str(resources.files("algindex").joinpath(f"jobs/{name}.yaml"))


def run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "algindex"] + argv,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


BUNDLED = [
    ("su2", 0),
    ("aff1", 1),           # contains the deliberate non-invariant-density failure
    ("torus-flat", 0),
    ("sphere-stereographic", 0),
    ("pair-groupoid-3", 0),
    ("z2-group", 0),
    ("su2-invalid", 1),    # genuine Jacobi violation
]


@pytest.mark.parametrize("name,expected_exit", BUNDLED)
def test_bundled_documents_run(name, expected_exit):
    proc = run_cli(["run", job_path(name)])
    assert proc.returncode == expected_exit, proc.stdout + proc.stderr


def test_su2_document_results():
    proc = run_cli(["--format", "json", "run", job_path("su2")])
    payload = json.loads(proc.stdout)
    by_label = {item["label"]: item for item in payload["results"]}
    assert by_label["su2-valid"]["result"]["su2"]["status"] == "valid"
    assert by_label["su2-betti"]["result"]["betti"] == [1, 0, 0, 1]
    assert by_label["su2-adjoint-betti"]["result"]["betti"] == [0, 0, 0, 0]
    assert by_label["su2-unimodular"]["result"]["unimodular"] is True
    thom = by_label["su2-thom-compatibility"]["result"]
    assert thom["compatible"] and thom["theta_closed"]
    assert by_label["su2-euler-index"]["result"]["value"] == "0"


def test_sphere_document_value():
    proc = run_cli(["--format", "json", "run", job_path("sphere-stereographic")])
    payload = json.loads(proc.stdout)
    by_label = {item["label"]: item for item in payload["results"]}
    value = float(by_label["sphere-euler-index"]["result"]["value"])
    assert abs(value - 2.0) <= 1e-6


def test_invalid_document_reports_jacobi_violation():
    proc = run_cli(["run", job_path("su2-invalid")])
    assert proc.returncode == 1
    assert "jacobi" in proc.stdout


@pytest.mark.parametrize("name", ["torus-flat", "sphere-stereographic"])
def test_byte_identical_output(name):
    # the sphere document exercises determinism of the adaptive quadrature
    first = run_cli(["--format", "json", "run", job_path(name)])
    second = run_cli(["--format", "json", "run", job_path(name)])
    assert first.stdout == second.stdout
    assert first.stdout


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 1\ncomputations: [\n")
    proc = run_cli(["run", str(bad)])
    assert proc.returncode == 2
    assert "line" in proc.stderr


def test_schema_violation_exit_code(tmp_path):
    doc = tmp_path / "doc.yaml"
    doc.write_text("version: 1\ncomputations:\n  - op: frobnicate\n")
    proc = run_cli(["run", str(doc)])
    assert proc.returncode == 2
    assert "schema violation" in proc.stderr


@pytest.mark.parametrize("body,message", [
    ("computations:\n  - op: frobnicate\n",
     "computations/0/op: 'frobnicate' is not one of ['validate', 'cohomology', "
     "'charclass', 'curvature', 'index', 'modular-cocycle', 'thom-check', "
     "'groupoid-cohomology', 'convolution-table', 'trace']"),
    ("algebroids:\n  A: {kind: abelian, rank: three}\ncomputations: []\n",
     "algebroids/A/rank: 'three' is not of type 'integer'"),
])
def test_schema_violation_message_is_pinned(tmp_path, body, message):
    doc = tmp_path / "doc.yaml"
    doc.write_text("version: 1\n" + body)
    proc = run_cli(["run", str(doc)])
    assert proc.returncode == 2
    assert proc.stderr == f"error: {doc}: schema violation at {message}\n"


def test_missing_version_rejected(tmp_path):
    doc = tmp_path / "doc.yaml"
    doc.write_text("computations: []\n")
    proc = run_cli(["run", str(doc)])
    assert proc.returncode == 2


def test_unknown_reference_rejected(tmp_path):
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "version: 1\n"
        "groupoids:\n"
        "  pair2: {kind: pair, size: 2}\n"
        "computations:\n"
        "  - op: groupoid-cohomology\n"
        "    groupoid: no_such_groupoid\n"
    )
    proc = run_cli(["run", str(doc)])
    assert proc.returncode == 2
    assert "unknown groupoid" in proc.stderr


def test_scalar_syntax_error_is_positioned(tmp_path):
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "version: 1\n"
        "backend: poly\n"
        "coordinates: [x]\n"
        "algebroids:\n"
        "  a: {kind: tangent}\n"
        "densities:\n"
        "  bad: {algebroid: a, coefficient: 'x + + )'}\n"
        "computations: []\n"
    )
    proc = run_cli(["run", str(doc)])
    assert proc.returncode == 2
    assert "position" in proc.stderr


def test_subcommand_filters_families():
    proc = run_cli(["--format", "json", "validate", job_path("su2")])
    payload = json.loads(proc.stdout)
    assert [item["op"] for item in payload["results"]] == ["validate"]
    proc = run_cli(["--format", "json", "groupoid", job_path("pair-groupoid-3")])
    payload = json.loads(proc.stdout)
    assert all(
        item["op"] in ("groupoid-cohomology", "convolution-table", "trace")
        for item in payload["results"]
    )
    assert payload["results"]


def test_stdin_document():
    doc = (
        "version: 1\n"
        "backend: poly\n"
        "coordinates: []\n"
        "algebroids:\n"
        "  su2:\n"
        "    kind: lie_algebra\n"
        "    rank: 3\n"
        "    structure:\n"
        '      "1,2": {"3": "1"}\n'
        '      "2,3": {"1": "1"}\n'
        '      "3,1": {"2": "1"}\n'
        "computations:\n"
        "  - op: validate\n"
        "    algebroid: su2\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "algindex", "run", "-"],
        input=doc,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout


def test_main_callable_directly(capsys):
    code = cli.main(["cohomology", job_path("aff1")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1, 1, 0]" in out


# Declarations shared by the failure cases below; each case appends one
# computation labelled "bad", then a validate that must still run.
_DECLARATIONS = """\
version: 1
backend: poly
coordinates: [x, y]
algebroids:
  plane: {kind: tangent}
  other: {kind: tangent}
  su2:
    kind: lie_algebra
    rank: 3
    structure: {"1,2": {"3": 1}, "2,3": {"1": 1}, "3,1": {"2": 1}}
metrics:
  flat: {algebroid: plane, kind: identity}
connections:
  line: {algebroid: su2, bundle_rank: 1, matrices: [[[1]], [[0]], [[0]]]}
densities:
  lebesgue: {algebroid: plane, coefficient: 1}
  foreign: {algebroid: other, coefficient: 1}
forms:
  pole: {algebroid: plane, degree: 2, coefficients: {"1,2": "1/x"}}
domains:
  square: {type: box, bounds: [[-1, 1], [-1, 1]]}
groupoids:
  pair2: {kind: pair, size: 2}
"""

_CHERN = "{op: charclass, label: bad, genus: ch, connection: line}"

FAILURE_CASES = {
    # a library error fails its own computation (exit 1); the next one runs
    "pole-in-thom-check": (
        "{op: thom-check, label: bad, algebroid: plane, form: pole, "
        "density: lebesgue, domain: square}", [], 1),
    "dirac-without-connection": (
        "{op: index, label: bad, kind: dirac, algebroid: plane, metric: flat, "
        "density: lebesgue, domain: square}", [], 1),
    "cohomology-of-tangent": ("{op: cohomology, label: bad, algebroid: plane}", [], 1),
    "density-on-other-algebroid": (
        "{op: modular-cocycle, label: bad, algebroid: plane, density: foreign}", [], 1),
    "trace-weight-over-zero": (
        "{op: trace, label: bad, groupoid: pair2, weights: ['1/0', 1], "
        "function: [1, 0, 0, 1]}", [], 1),
    # a build error rejects the document (exit 2)
    "conformal-factor-over-zero": (None, [], 2),
    "conformal-factor-x": (None, [], 2),  # negative for x < 0
    # so does a tolerance field out of the range the flag accepts
    "tolerance-field-zero": (
        "{op: index, label: bad, kind: euler, algebroid: plane, metric: flat, "
        "density: lebesgue, domain: square, tolerance: 0}", [], 2),
    "tolerance-field-negative": (
        "{op: thom-check, label: bad, algebroid: plane, form: pole, "
        "density: lebesgue, domain: square, tolerance: -1.0e-9}", [], 2),
    # out-of-range flags are usage errors (exit 2)
    "truncate-negative": (_CHERN, ["--truncate", "-3"], 2),
    "budget-zero": (_CHERN, ["--budget", "0"], 2),
    "tolerance-nan": (_CHERN, ["--tolerance", "nan"], 2),
    "tolerance-inf": (_CHERN, ["--tolerance", "inf"], 2),
    "tolerance-zero": (_CHERN, ["--tolerance", "0"], 2),
    "tolerance-negative": (_CHERN, ["--tolerance=-1e-9"], 2),
    # a zero override is kept, not dropped: only the degree-0 part remains
    "truncate-zero": (_CHERN, ["--truncate", "0"], 0),
}

# the conformal factor of the metric each build-error case declares
_BAD_FACTORS = {"conformal-factor-over-zero": "'1/0'", "conformal-factor-x": "x"}

# what the error line of an exit-2 case must say
_ERRORS = {
    "conformal-factor-over-zero": "division by the zero polynomial",
    "conformal-factor-x": "not positive definite",
    "tolerance-field-zero": "schema violation at computations/0/tolerance",
    "tolerance-field-negative": "schema violation at computations/0/tolerance",
}


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_failures_are_diagnostics(tmp_path, case):
    computation, flags, expected_exit = FAILURE_CASES[case]
    text = _DECLARATIONS
    if computation is None:
        metric = f"  bad: {{algebroid: plane, kind: conformal, factor: {_BAD_FACTORS[case]}}}\n"
        text = text.replace("metrics:\n", "metrics:\n" + metric)
        computation = "{op: cohomology, label: bad, algebroid: su2}"
    text += (
        "computations:\n"
        f"  - {computation}\n"
        "  - {op: validate, label: after, algebroid: plane}\n"
    )
    doc = tmp_path / "doc.yaml"
    doc.write_text(text)
    proc = run_cli(["--format", "json", "run", str(doc)] + flags)
    assert proc.returncode == expected_exit, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    if expected_exit == 2:
        assert proc.stdout == ""
        assert "error:" in proc.stderr
        assert _ERRORS.get(case, "error:") in proc.stderr
        return
    by_label = {item["label"]: item for item in json.loads(proc.stdout)["results"]}
    assert by_label["bad"]["ok"] is (expected_exit == 0)
    assert by_label["after"]["ok"] is True
    assert by_label["after"]["result"]["plane"]["status"] == "valid"
    if case == "truncate-zero":
        assert by_label["bad"]["result"]["class"] == {"0": [["", "1"]]}


def test_library_errors_share_one_base():
    from algindex import algebroid, groupoid, quadrature, scalars, thom_index

    for error, builtin in [
        (scalars.DomainError, ArithmeticError),
        (quadrature.QuadratureError, RuntimeError),
        (algebroid.PresentationError, ValueError),
        (groupoid.GroupoidError, ValueError),
        (thom_index.NonInvariantDensityError, ValueError),
        (thom_index.UnresolvedEulerDivisionError, ValueError),
        (cli.ComputationError, ValueError),
    ]:
        assert issubclass(error, scalars.AlgindexError)
        assert issubclass(error, builtin)
