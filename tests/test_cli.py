import json
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
import yaml

from algindex import cli

import oracles


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


GOLDENS = Path(__file__).parent / "goldens"  # stdout of each bundled job, byte for byte


@pytest.mark.parametrize("name,expected_exit", BUNDLED)
def test_bundled_documents_run(name, expected_exit):
    proc = run_cli(["run", job_path(name)])
    assert proc.returncode == expected_exit, proc.stdout + proc.stderr
    assert proc.stdout == (GOLDENS / f"{name}.text").read_text()


@pytest.mark.parametrize("name,expected_exit", BUNDLED)
def test_bundled_json_output_matches_golden(name, expected_exit):
    proc = run_cli(["--format", "json", "run", job_path(name)])
    assert proc.returncode == expected_exit, proc.stdout + proc.stderr
    assert proc.stdout == (GOLDENS / f"{name}.json").read_text()


def test_every_bundled_job_has_goldens():
    jobs = resources.files("algindex").joinpath("jobs")
    names = sorted(p.name[:-len(".yaml")] for p in jobs.iterdir() if p.name.endswith(".yaml"))
    assert names == sorted(name for name, _ in BUNDLED)
    assert sorted(p.name for p in GOLDENS.iterdir()) == sorted(
        f"{name}.{fmt}" for name in names for fmt in ("json", "text"))


# documents with their stdout beside them: a numeric-backend chart (printed
# expression trees, transcendental quadrature, sampled zero tests), three
# rational charts of S^2, whose index and thom-check integrate over the plane,
# thom-checks of algebroids with varying structure functions, a quotient
# whose numerator cancels on the box's diagonal, where the panel program falls
# back to the exact quotient, pull-backs and products on either backend,
# which print the scalars each construction lifts onto its chart, a box
# whose two axes share every span but not their powers, on either backend,
# the full Lie algebra cohomology of gl(4) and so(5), the validation
# reports of a presentation that breaks both algebroid identities, on either
# backend, and the L-genus of a 4-D matrix metric without symmetry (the
# conjugate Fubini-Study chart); a document with failed computations exits 1
DOCUMENTS = Path(__file__).parent / "documents"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(p.stem for p in DOCUMENTS.glob("*.yaml")))
def test_document_matches_golden(name, fmt):
    proc = run_cli(["--format", fmt, "run", str(DOCUMENTS / f"{name}.yaml")])
    failures = json.loads((DOCUMENTS / f"{name}.json").read_text())["failures"]
    assert proc.returncode == (1 if failures else 0), proc.stdout + proc.stderr
    assert proc.stdout == (DOCUMENTS / f"{name}.{fmt}").read_text()


def test_lie_weights_golden_has_the_known_betti_numbers():
    # the full complex of gl(4) is refused above degree 4, so this golden
    # could only be recorded from the weight-zero code it checks: hold it to
    # the Poincare polynomials (1+t)(1+t^3)(1+t^5)(1+t^7) and (1+t^3)(1+t^7)
    payload = json.loads((DOCUMENTS / "lie-weights.json").read_text())
    betti = {item["label"]: item["result"]["betti"] for item in payload["results"]
             if item["op"] == "cohomology"}
    assert betti == {"gl4-betti": oracles.poincare_coefficients((1, 3, 5, 7)),
                     "so5-betti": oracles.poincare_coefficients((3, 7))}


# every charclass genus on one 4-D chart, with its stdout recorded beside it
GENERA = Path(__file__).parent / "charclass" / "genera"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_every_charclass_genus_matches_golden(fmt, capsys):
    code = cli.main(["--format", fmt, "run", str(GENERA.with_suffix(".yaml"))])
    assert code == 0
    assert capsys.readouterr().out == GENERA.with_suffix(f".{fmt}").read_text()


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


@pytest.mark.parametrize("name", ["su2", "aff1"])
def test_cohomology_reuses_the_validation_report(name, capsys, monkeypatch):
    # each runs validate, then cohomology of the same algebroid: one validation
    calls = []
    validate = cli.alg.AlgebroidPresentation.validate
    monkeypatch.setattr(cli.alg.AlgebroidPresentation, "validate",
                        lambda self: calls.append(self.name) or validate(self))
    cli.main(["--format", "json", "run", job_path(name)])
    capsys.readouterr()
    assert len(calls) == 1


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


def test_exhausted_quadrature_budget_fails_its_own_computations():
    proc = run_cli(["run", job_path("sphere-stereographic"), "--budget", "1"])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    charclass, index, thom, summary = proc.stdout.splitlines()
    assert charclass.startswith("ok charclass gauss-curvature-form: ")
    for line, computation in [(index, "index sphere-euler-index"),
                              (thom, "thom-check sphere-thom-compatibility")]:
        assert line.startswith(f"FAIL {computation}: ")
        assert "quadrature budget 1 exhausted" in line
    assert summary == "1/3 computations succeeded"
    assert proc.stderr == ""


LINE_TIMES_AFF1 = """version: 1
backend: {backend}
coordinates: [x]
algebroids:
  line: {{kind: tangent}}
  aff1:
    kind: lie_algebra
    rank: 2
    structure: {{'1,2': {{'2': '1'}}}}
  both: {{kind: product, left: line, right: aff1}}
  flipped: {{kind: product, left: aff1, right: line}}
densities:
  unit: {{algebroid: both, coefficient: '1'}}
  flipped_unit: {{algebroid: flipped, coefficient: '1'}}
computations:
- {{op: validate, label: both-valid, algebroid: both}}
- {{op: validate, label: flipped-valid, algebroid: flipped}}
- {{op: modular-cocycle, label: both-cocycle, algebroid: both, density: unit}}
- {{op: modular-cocycle, label: flipped-cocycle, algebroid: flipped, density: flipped_unit}}
"""


def test_a_lie_algebra_takes_a_product_on_either_backend(tmp_path, capsys):
    # a lie_algebra is built on the document's backend, so it multiplies
    # with a chart's algebroid on the numeric backend too, with the same results
    printed = []
    for backend in ("poly", "numeric"):
        doc = tmp_path / f"{backend}.yaml"
        doc.write_text(LINE_TIMES_AFF1.format(backend=backend))
        assert cli.main(["--format", "json", "run", str(doc)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        printed.append(out)
    results = {item["label"]: item["result"] for item in json.loads(printed[0])["results"]}
    assert results["both-valid"]["both"]["status"] == "valid"
    # e1 of aff1 is e2 of line x aff1 and e1 of aff1 x line: tr ad e1 = 1
    assert results["both-cocycle"]["cocycle"] == [["2", "1"]]
    assert results["flipped-cocycle"]["cocycle"] == [["1", "1"]]
    assert printed[0] == printed[1]


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 1\ncomputations: [\n")
    proc = run_cli(["run", str(bad)])
    assert proc.returncode == 2
    # the pure-Python loader's words, also where libyaml parsed first
    assert proc.stderr == (
        f"error: {bad}: YAML parse error at line 3, column 1: while parsing a flow node\n"
        "expected the node content, but found '<stream end>'\n"
        '  in "<unicode string>", line 3, column 1:\n'
        "    \n"
        "    ^\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stdout_closed_by_the_reader_exits_3_without_a_traceback(fmt):
    # the reader is gone before the job prints: a write to the pipe raises
    # BrokenPipeError, which used to print a traceback and exit 1
    proc = subprocess.Popen([sys.executable, "-m", "algindex", "--format", fmt, "run",
                             job_path("aff1")], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=300), stderr) == (3, b"")


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
    # a representation's kind is checked as a connection's is, not read as matrices
    ("algebroids:\n  g: {kind: lie_algebra, rank: 1}\n"
     "representations:\n  r: {algebroid: g, kind: adjiont, matrices: [[['0']]]}\n"
     "computations:\n  - {op: cohomology, label: c, algebroid: g, representation: r}\n",
     "representations/r/kind: 'adjiont' is not one of ['zero', 'levi_civita', "
     "'adjoint', 'matrices']"),
    # a key that no kind reads is refused, not ignored
    ("algebroids:\n  g: {kind: lie_algebra, rank: 1}\n"
     "representations:\n  r: {algebroid: g, kind: adjoint, bogus: 1}\n"
     "computations:\n  - {op: cohomology, label: c, algebroid: g, representation: r}\n",
     "representations/r: Additional properties are not allowed ('bogus' was unexpected)"),
    ("algebroids:\n  g: {kind: lie_algebra, rank: 1}\n"
     "connections:\n  r: {algebroid: g, kind: adjoint, bogus: 1, extra: 2}\n"
     "computations:\n  - {op: validate, label: v, algebroid: g}\n",
     "connections/r: Additional properties are not allowed ('bogus', 'extra' were unexpected)"),
])
def test_schema_violation_message_is_pinned(tmp_path, body, message):
    doc = tmp_path / "doc.yaml"
    doc.write_text("version: 1\n" + body)
    proc = run_cli(["run", str(doc)])
    assert proc.returncode == 2
    assert proc.stderr == f"error: {doc}: schema violation at {message}\n"


def _tangent_density(coordinates, coefficient):
    """A document of one modular-cocycle of the tangent algebroid."""
    return {"version": 1, "coordinates": coordinates, "algebroids": {"T": {"kind": "tangent"}},
            "densities": {"mu": {"algebroid": "T", "coefficient": coefficient}},
            "computations": [{"op": "modular-cocycle", "label": "m", "algebroid": "T",
                              "density": "mu"}]}


def test_polynomial_growth_is_refused_before_the_product_is_built(tmp_path):
    # squaring reaches a 4495 x 6545-term product of (1 + x + y + z)^60
    proc, elapsed = _run_document(tmp_path, _tangent_density(["x", "y", "z"],
                                                             "(1 + x + y + z)^60"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr == (
        "error: document error: a product of a 4495-term and a 6545-term polynomial would "
        "have 29419775 entries, above the limit of 2^24 = 16777216\n")
    assert elapsed < 2.0, f"took {elapsed:.2f}s (budget 2s)"


def test_four_variable_quotient_document_within_budget(tmp_path, capsys):
    # its gcds ran without bound over the rationals; printing the cocycle takes them
    numerator = "1/4*x^3*y^3*z^3 + w^3*x^2*z + 2/3*x^2*y^2*z^2 + 3*y^3*z^2 + 5/8*w^2*y^2"
    doc = tmp_path / "doc.yaml"
    doc.write_text(yaml.safe_dump(_tangent_density(
        ["w", "x", "y", "z"], f"({numerator})/(w^2 + 3/2*x^2 + y^2 + 3/2*z^2 + 1/2)")))
    start = time.monotonic()
    code = cli.main(["--format", "json", "run", str(doc)])
    elapsed = time.monotonic() - start
    assert code == 0
    cocycle = json.loads(capsys.readouterr().out)["results"][0]["result"]["cocycle"]
    assert [index for index, _ in cocycle] == ["1", "2", "3", "4"]
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"


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


def _algebroids_document(tmp_path, algebroids, rest="computations:\n  - {op: validate}\n"):
    doc = tmp_path / "doc.yaml"
    doc.write_text("version: 1\ncoordinates: [x]\nalgebroids:\n" + algebroids + rest)
    return str(doc)


def test_algebroids_may_name_one_declared_after_them(tmp_path, capsys):
    # built in name order, "both" and "dual" come before the "line" they name
    doc = _algebroids_document(tmp_path, (
        "  line: {kind: tangent}\n"
        "  dual: {kind: pullback, parent: line}\n"
        "  both: {kind: product, left: line, right: dual}\n"))
    assert cli.main(["--format", "json", "run", doc]) == 0
    reports = json.loads(capsys.readouterr().out)["results"][0]["result"]
    assert {name: report["status"] for name, report in reports.items()} == {
        "both": "valid", "dual": "valid", "line": "valid"}


def test_validate_of_a_chain_of_100_pullbacks_within_budget(tmp_path):
    # each level adds a coordinate and a vertical field, so the top one has
    # rank 101 over 100 coordinates; its validation must not grow with the
    # cube of the rank
    names = [f"a{k:03d}" for k in range(101)]
    doc = _algebroids_document(
        tmp_path,
        f"  {names[0]}: {{kind: lie_algebra, rank: 1}}\n" + "".join(
            f"  {b}: {{kind: pullback, parent: {a}, fiber_dim: 1}}\n"
            for a, b in zip(names, names[1:])),
        f"computations:\n  - {{op: validate, algebroid: {names[-1]}}}\n")
    start = time.monotonic()
    proc = run_cli(["--format", "json", "run", doc])
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["results"][0]["result"] == {
        names[-1]: {"status": "valid", "violations": []}}
    assert elapsed < 6.0, f"the 100-level chain took {elapsed:.2f}s (budget 6s)"


@pytest.mark.parametrize("algebroids", [
    "  a: {kind: pullback, parent: b}\n  b: {kind: product, left: x, right: a}\n"
    "  x: {kind: tangent}\n",
    "  a: {kind: pullback, parent: a}\n",
])
def test_algebroid_defined_through_itself_is_a_document_error(tmp_path, capsys, algebroids):
    assert cli.main(["run", _algebroids_document(tmp_path, algebroids)]) == 2
    assert capsys.readouterr() == ("", "error: algebroid 'a' is defined through itself\n")


def test_algebroid_chain_deeper_than_the_stack_is_a_document_error(tmp_path):
    # 60 pull-backs, each naming the next; the low recursion limit stands in
    # for a chain of some 500 at the default one
    names = [f"a{k:02d}" for k in range(61)]
    doc = _algebroids_document(tmp_path, f"  {names[-1]}: {{kind: abelian, rank: 0}}\n" + "".join(
        f"  {a}: {{kind: pullback, parent: {b}, fiber_dim: 1}}\n" for a, b in zip(names, names[1:])))
    code = ("import sys; from algindex import cli; sys.setrecursionlimit(100); "
            "sys.exit(cli.main(['run', sys.argv[1]]))")
    proc = subprocess.run([sys.executable, "-c", code, doc], capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: document error: maximum recursion depth exceeded")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("declared,message", [
    ("algebroids: {E: {kind: pullback}}", "pullback algebroid 'E' is missing the 'parent' field"),
    ("algebroids: {T: {kind: tangent}, P: {kind: product, left: T}}",
     "product algebroid 'P' is missing the 'right' field"),
    ("algebroids: {A: {kind: action, rank: 1}}",
     "action algebroid 'A' is missing the 'anchor' field"),
    ("algebroids: {A: {kind: explicit, rank: 1}}",
     "explicit algebroid 'A' is missing the 'anchor' field"),
    ("algebroids: {A: {kind: abelian}}", "abelian algebroid 'A' is missing the 'rank' field"),
    ("algebroids: {A: {kind: lie_algebra}}",
     "lie_algebra algebroid 'A' is missing the 'rank' field"),
    # a metric names no kind: it is a matrix
    ("algebroids: {T: {kind: tangent}}\nmetrics: {g: {algebroid: T}}",
     "matrix metric 'g' is missing the 'entries' field"),
    ("algebroids: {T: {kind: tangent}}\nconnections: {c: {algebroid: T, kind: levi_civita}}",
     "levi_civita connection 'c' is missing the 'metric' field"),
    ("domains: {d: {type: box}}", "box domain 'd' is missing the 'bounds' field"),
    ("groupoids: {G: {kind: explicit}}", "explicit groupoid 'G' is missing the 'objects' field"),
], ids=["pullback", "product", "action", "explicit", "abelian", "lie_algebra", "matrix-metric",
        "levi_civita", "box", "explicit-groupoid"])
def test_a_missing_per_kind_field_is_a_named_document_error(tmp_path, capsys, declared, message):
    # the schema requires these fields of no kind; each is named with its object and kind
    doc = tmp_path / "doc.yaml"
    doc.write_text(f"version: 1\ncoordinates: [x]\n{declared}\ncomputations: []\n")
    assert cli.main(["run", str(doc)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_pullback_of_a_chart_holding_a_fiber_name(tmp_path, capsys):
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "version: 1\n"
        "coordinates: [u1, v]\n"
        "algebroids:\n"
        "  plane: {kind: tangent}\n"
        "  up: {kind: pullback, parent: plane}\n"
        "densities:\n"
        "  unit: {algebroid: plane}\n"
        "forms:\n"
        "  top: {algebroid: plane, degree: 2, coefficients: {'1,2': '1'}}\n"
        "domains:\n"
        "  cell: {type: box, bounds: [['0', '1'], ['0', '1']]}\n"
        "computations:\n"
        "  - {op: thom-check, algebroid: plane, form: top, density: unit, domain: cell}\n"
        "  - {op: validate, algebroid: up}\n"
    )
    assert cli.main(["--format", "json", "run", str(doc)]) == 0
    thom, valid = (item["result"] for item in json.loads(capsys.readouterr().out)["results"])
    exact_one = {"error": "0", "exact": True, "value": "1"}
    assert thom["base"] == thom["mapped"] == exact_one and thom["theta_closed"]
    assert valid["up"]["status"] == "valid"


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


def test_float_literal_beyond_float_range_is_a_syntax_error(tmp_path, capsys):
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "version: 1\n"
        "backend: numeric\n"
        "coordinates: [x, y]\n"
        "algebroids:\n"
        "  plane: {kind: tangent}\n"
        "forms:\n"
        f"  wave: {{algebroid: plane, degree: 2, coefficients: {{'1,2': 'sin({'1' * 400}.0) + x'}}}}\n"
        "computations: []\n"
    )
    assert cli.main(["run", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: document error: scalar syntax error at position ")
    assert err.endswith(": float literal beyond float range\n")


def test_two_dot_float_literal_is_a_positioned_syntax_error(tmp_path, capsys):
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "version: 1\n"
        "backend: numeric\n"
        "coordinates: [x]\n"
        "algebroids:\n"
        "  line: {kind: tangent}\n"
        "densities:\n"
        "  bad: {algebroid: line, coefficient: '1.2.3'}\n"
        "computations: []\n"
    )
    assert cli.main(["run", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: document error: scalar syntax error at position 5: malformed number '1.2.3'\n"


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


def test_reused_parser_leaks_nothing_between_calls(capsys, monkeypatch):
    # main keeps one parser for the process: each call in this sequence must
    # give the exit code, stdout and stderr of the same call in a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    genera, sphere = str(GENERA.with_suffix(".yaml")), job_path("sphere-stereographic")
    flags = ["--truncate", "0", "--tolerance", "1e-6"]
    sequence = [
        ["run", *flags, genera], ["run", genera],
        ["run", *flags, sphere], ["run", sphere],
        ["run", "--budget", "0", sphere], ["run", sphere],
        ["--format", "json", "run", job_path("su2")], ["run", job_path("su2")],
        ["--format", "json", "run", job_path("su2-invalid")], ["run", job_path("su2-invalid")],
    ]
    seen = []
    for argv in sequence:
        fresh = run_cli(argv)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, *capsys.readouterr()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        seen.append(fresh.stdout)
    # the flags change what the first two documents print, so a leaked one would show
    assert seen[0] != seen[1] and seen[2] != seen[3]
    assert seen[4] == "" and seen[6] != seen[7]


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
  rank30: {kind: lie_algebra, rank: 30, structure: {"1,2": {"3": 1}}}
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
  pair4: {kind: pair, size: 4}
  cyclic1: {kind: cyclic, order: 1}
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
    # a dense matrix above 2^24 entries is refused before it is allocated
    "groupoid-degree-12": (
        "{op: groupoid-cohomology, label: bad, groupoid: pair4, max_degree: 12}", [], 1),
    "lie-rank-30": ("{op: cohomology, label: bad, algebroid: rank30}", [], 1),
    "fiber-dim-100000": (
        "{op: groupoid-cohomology, label: bad, groupoid: pair2, fiber_dim: 100000}", [], 1),
    # every differential is 1 x 1, but degree k rebuilds chains of k arrows
    "cyclic1-degree-3200": (
        "{op: groupoid-cohomology, label: bad, groupoid: cyclic1, max_degree: 3200}", [], 1),
    # a trace needs one weight per object and one function value per arrow
    "trace-weights-short": (
        "{op: trace, label: bad, groupoid: pair2, weights: [1], function: [1, 0, 0, 1]}", [], 2),
    "trace-weights-long": (
        "{op: trace, label: bad, groupoid: pair2, weights: [1, 1, 1], "
        "function: [1, 0, 0, 1]}", [], 2),
    "trace-function-short": (
        "{op: trace, label: bad, groupoid: pair2, weights: [1, 1], function: [1, 0]}", [], 2),
    # a build error rejects the document (exit 2)
    "conformal-factor-over-zero": (None, [], 2),
    "conformal-factor-x": (None, [], 2),  # negative for x < 0
    "structure-index-above-rank": (None, [], 2),
    "structure-index-zero": (None, [], 2),  # once read as the last basis element
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

# the declaration each build-error case adds: a metric, or a rank-2 Lie algebra
_BAD_DECLARATIONS = {
    "conformal-factor-over-zero": ("metrics", "{algebroid: plane, kind: conformal, factor: '1/0'}"),
    "conformal-factor-x": ("metrics", "{algebroid: plane, kind: conformal, factor: x}"),
    "structure-index-above-rank": (
        "algebroids", '{kind: lie_algebra, rank: 2, structure: {"1,2": {"5": 1}}}'),
    "structure-index-zero": (
        "algebroids", '{kind: lie_algebra, rank: 2, structure: {"1,2": {"0": 1}}}'),
}

# what the error line of an exit-2 case must say
_ERRORS = {
    "conformal-factor-over-zero": "division by the zero polynomial",
    "conformal-factor-x": "not positive definite",
    "structure-index-above-rank": "structure coefficient index 5 of [1,2] is outside 1..2",
    "structure-index-zero": "structure coefficient index 0 of [1,2] is outside 1..2",
    "trace-weights-short": "trace weights: need 2, one per object, got 1",
    "trace-weights-long": "trace weights: need 2, one per object, got 3",
    "trace-function-short": "trace function: need 4, one per arrow, got 2",
    "tolerance-field-zero": "schema violation at computations/0/tolerance",
    "tolerance-field-negative": "schema violation at computations/0/tolerance",
}


# what the error of an oversized case must say; these fail within 2 s
_SIZE_ERRORS = {
    "groupoid-degree-12": "the degree-5 differential matrix would have 67108864 entries, "
                          "above the limit of 2^24",
    "lie-rank-30": "the degree-3 differential matrix would have 111264300 entries, "
                   "above the limit of 2^24",
    "fiber-dim-100000": "the 100000 x 100000 identity of every arrow would have "
                        "40000000000 entries, above the limit of 2^24",
    "cyclic1-degree-3200": "the face chains of the differentials up to degree 368 would "
                           "have 16884210 entries, above the limit of 2^24",
}


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_failures_are_diagnostics(tmp_path, case):
    computation, flags, expected_exit = FAILURE_CASES[case]
    text = _DECLARATIONS
    if computation is None:
        section, declaration = _BAD_DECLARATIONS[case]
        text = text.replace(f"{section}:\n", f"{section}:\n  bad: {declaration}\n")
        computation = "{op: cohomology, label: bad, algebroid: su2}"
    text += (
        "computations:\n"
        f"  - {computation}\n"
        "  - {op: validate, label: after, algebroid: plane}\n"
    )
    doc = tmp_path / "doc.yaml"
    doc.write_text(text)
    start = time.monotonic()
    proc = run_cli(["--format", "json", "run", str(doc)] + flags)
    elapsed = time.monotonic() - start
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
    if case in _SIZE_ERRORS:
        assert _SIZE_ERRORS[case] in by_label["bad"]["error"]
        assert elapsed < 2.0, f"{case} took {elapsed:.2f}s (budget 2s)"
    if case == "truncate-zero":
        assert by_label["bad"]["result"]["class"] == {"0": [["", "1"]]}


def test_wide_fiber_groupoid_cohomology_within_budget(tmp_path):
    # the functoriality check multiplies 48 x 48 identities for every composable pair
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "version: 1\n"
        "groupoids:\n"
        "  pair3: {kind: pair, size: 3}\n"
        "computations:\n"
        "  - {op: groupoid-cohomology, label: wide, groupoid: pair3, fiber_dim: 48}\n"
    )
    start = time.monotonic()
    proc = run_cli(["--format", "json", "run", str(doc)])
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["results"][0]["result"]["betti"] == [48, 0, 0]
    assert elapsed < 5.0, f"pair(3) with fiber 48 took {elapsed:.2f}s (budget 5s)"


def test_rank_30_with_a_skewed_torus_within_budget(tmp_path):
    # R x| R^29, [e1, e_i] = w_i e_i: with every w_i = 1 the weight-zero dims
    # are 1, 1, 0, ..., which pass every size check, and the basis walk must
    # not visit the 2^30 subsets; with w_i = 2^(i-2) the weight sums are all
    # distinct, the torus is dropped, and the whole complex is refused
    def semidirect(weight):
        return {f"1,{i}": {str(i): weight(i)} for i in range(2, 31)}

    doc = tmp_path / "doc.yaml"
    doc.write_text(yaml.safe_dump({
        "version": 1,
        "algebroids": {
            "ones": {"kind": "lie_algebra", "rank": 30, "structure": semidirect(lambda i: 1)},
            "powers": {"kind": "lie_algebra", "rank": 30,
                       "structure": semidirect(lambda i: 2 ** (i - 2))},
        },
        "computations": [{"op": "cohomology", "label": "ones", "algebroid": "ones"},
                         {"op": "cohomology", "label": "powers", "algebroid": "powers"}],
    }))
    start = time.monotonic()
    proc = run_cli(["--format", "json", "run", str(doc)])
    elapsed = time.monotonic() - start
    assert proc.returncode == 1, proc.stdout + proc.stderr
    ones, powers = json.loads(proc.stdout)["results"]
    assert ones["result"]["betti"] == [1, 1] + [0] * 29
    assert _SIZE_ERRORS["lie-rank-30"] in powers["error"]
    assert elapsed < 2.0, f"two rank-30 algebras took {elapsed:.2f}s (budget 2s)"


@pytest.mark.parametrize("domain", ["cube", "space"])
def test_three_dimensional_quadrature_fails_its_own_computation(tmp_path, domain):
    # quadrature stops at base dimension 2; a polynomial over a 3-D box stays exact
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "version: 1\n"
        "coordinates: [x, y, z]\n"
        "algebroids: {space: {kind: tangent}}\n"
        "densities: {one: {algebroid: space, coefficient: 1}}\n"
        "forms:\n"
        "  quadric: {algebroid: space, degree: 3, coefficients: {'1,2,3': '1/(1+x^2+y^2+z^2)'}}\n"
        "  cubic: {algebroid: space, degree: 3, coefficients: {'1,2,3': 'x*y^2+z'}}\n"
        "domains:\n"
        "  cube: {type: box, bounds: [[0, 1], [0, 2], [0, 3]]}\n"
        "  space: {type: plane}\n"
        "computations:\n"
        f"  - {{op: thom-check, label: bad, algebroid: space, form: quadric, density: one, "
        f"domain: {domain}}}\n"
        "  - {op: thom-check, label: exact, algebroid: space, form: cubic, density: one, "
        "domain: cube}\n"
    )
    proc = run_cli(["run", str(doc)])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    failures = [line for line in lines if line.startswith("FAIL")]
    assert len(failures) == 1 and failures[0].startswith("FAIL thom-check bad: ")
    assert "base dimension <= 2" in failures[0]
    assert lines[1].startswith('ok thom-check exact: {"base": {"error": "0", "exact": true, '
                               '"value": "13"}')


@pytest.mark.parametrize("backend,form", [
    ("numeric", "1 + exp(x*100)"),      # overflows in the quadrature
    ("poly", "x^400/(1 + x^2)"),        # overflows in the exact fallback too
    ("numeric", "exp(100000*x^2)"),     # overflows at most sample points of its zero test too
])
def test_value_beyond_float_range_fails_its_own_computation(tmp_path, backend, form):
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "version: 1\n"
        f"backend: {backend}\n"
        "coordinates: [x, y]\n"
        "algebroids: {plane: {kind: tangent}}\n"
        "densities: {one: {algebroid: plane, coefficient: 1}}\n"
        f"forms: {{big: {{algebroid: plane, degree: 2, coefficients: {{'1,2': '{form}'}}}}}}\n"
        "domains: {wide: {type: box, bounds: [[0, 10], [0, 1]]}}\n"
        "computations:\n"
        "  - {op: thom-check, label: big, algebroid: plane, form: big, density: one, "
        "domain: wide}\n"
        "  - {op: validate, label: after, algebroid: plane}\n"
    )
    start = time.monotonic()
    proc = run_cli(["run", str(doc)])
    elapsed = time.monotonic() - start
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    failures = [line for line in lines if line.startswith("FAIL")]
    assert len(failures) == 1 and failures[0].startswith("FAIL thom-check big: ")
    assert "beyond float range" in failures[0]
    assert lines[1].startswith("ok validate after: ")
    assert elapsed < 2.0, f"{form} took {elapsed:.2f}s (budget 2s)"


def test_box_bound_beyond_float_range_fails_its_own_computation(tmp_path):
    # quadrature needs float bounds; a polynomial over the same box stays exact
    doc = tmp_path / "doc.yaml"
    doc.write_text(
        "version: 1\n"
        "coordinates: [x, y]\n"
        "algebroids: {plane: {kind: tangent}}\n"
        "densities: {one: {algebroid: plane, coefficient: 1}}\n"
        "forms:\n"
        "  bump: {algebroid: plane, degree: 2, coefficients: {'1,2': '1/(1 + x^2 + y^2)'}}\n"
        "  unit: {algebroid: plane, degree: 2, coefficients: {'1,2': '1'}}\n"
        "domains: {far: {type: box, bounds: [['1e400', 2], [0, 1]]}}\n"
        "computations:\n"
        "  - {op: thom-check, label: bump, algebroid: plane, form: bump, density: one, "
        "domain: far}\n"
        "  - {op: thom-check, label: unit, algebroid: plane, form: unit, density: one, "
        "domain: far}\n"
    )
    proc = run_cli(["--format", "json", "run", str(doc)])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    bump, unit = json.loads(proc.stdout)["results"]
    assert not bump["ok"]
    assert bump["error"] == "the lower box bound of x is beyond float range"
    assert unit["ok"]
    assert unit["result"]["base"] == {"error": "0", "exact": True, "value": str(2 - 10**400)}


def _explicit_group(n, table):
    """A document declaring a group of order n on arrows g0..g(n-1) by its table."""
    arrows = [f"g{i}" for i in range(n)]
    return {
        "version": 1,
        "groupoids": {"G": {
            "kind": "explicit", "objects": ["*"], "arrows": arrows,
            "source": dict.fromkeys(arrows, "*"), "target": dict.fromkeys(arrows, "*"),
            "unit": {"*": "g0"},
            "inverse": {f"g{i}": f"g{-i % n}" for i in range(n)},
            "compose": {f"{a}|{b}": c for (a, b), c in table.items()},
        }},
        "computations": [{"op": "groupoid-cohomology", "label": "G", "groupoid": "G"}],
    }


def _cyclic_table(n):
    return {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}


def _run_document(tmp_path, document, fmt="text"):
    doc = tmp_path / "doc.yaml"
    doc.write_text(yaml.safe_dump(document))
    start = time.monotonic()
    proc = run_cli(["--format", fmt, "run", str(doc)])
    return proc, time.monotonic() - start


def test_explicit_groupoid_from_a_table(tmp_path):
    proc, _ = _run_document(tmp_path, _explicit_group(3, _cyclic_table(3)), "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["results"][0]["result"]["betti"] == [1, 0, 0]


def test_explicit_groupoid_with_broken_associativity_is_rejected(tmp_path):
    table = _cyclic_table(3)
    table[("g1", "g1")] = "g0"  # should be g2
    proc, _ = _run_document(tmp_path, _explicit_group(3, table))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "associativity fails" in lines[0]


@pytest.mark.parametrize("field,value", [("compose", {"g0|g0": ["g0"]}),
                                         ("source", {"g0": ["*"]}),
                                         ("compose", {1: "g0"})])
def test_malformed_explicit_groupoid_is_a_document_error(tmp_path, field, value):
    document = _explicit_group(1, _cyclic_table(1))
    document["groupoids"]["G"][field] = value
    proc, _ = _run_document(tmp_path, document)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: document error: ") and "Traceback" not in proc.stderr


def test_oversized_explicit_groupoid_is_refused_before_its_check(tmp_path):
    # 257 loops at one object: 257^3 composable triples, counted before the table is read
    proc, elapsed = _run_document(tmp_path, _explicit_group(257, {("g0", "g0"): "g0"}))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert ("the associativity check of the composition table would have 16974593 entries, "
            "above the limit of 2^24") in proc.stderr
    assert elapsed < 2.0, f"257 loops took {elapsed:.2f}s (budget 2s)"


def test_large_formula_groupoids_build_quickly(tmp_path):
    # pair and cyclic compose by formula: no table, no associativity check
    proc, elapsed = _run_document(tmp_path, {
        "version": 1,
        "groupoids": {"z1000": {"kind": "cyclic", "order": 1000},
                      "pair100": {"kind": "pair", "size": 100}},
        "computations": [{"op": "groupoid-cohomology", "label": "z1000",
                          "groupoid": "z1000", "max_degree": 0}],
    })
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith('ok groupoid-cohomology z1000: {"betti": [1]}\n')
    assert elapsed < 2.0, f"cyclic(1000) and pair(100) took {elapsed:.2f}s (budget 2s)"


def test_oversized_pair_groupoid_is_a_schema_violation(tmp_path):
    # pair(3000) would hold 9 million arrows; the schema stops it before any build
    proc, elapsed = _run_document(tmp_path, {
        "version": 1,
        "groupoids": {"big": {"kind": "pair", "size": 3000}},
        "computations": [{"op": "groupoid-cohomology", "label": "big", "groupoid": "big"}],
    })
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "groupoids/big/size" in lines[0]
    assert elapsed < 1.0, f"size 3000 took {elapsed:.2f}s to refuse (budget 1s)"


def test_euler_index_of_a_point(tmp_path):
    # the tangent algebroid of a chart without coordinates has rank 0; chi(point) = 1
    proc, _ = _run_document(tmp_path, {
        "version": 1, "coordinates": [],
        "algebroids": {"point": {"kind": "tangent"}},
        "metrics": {"g": {"algebroid": "point", "kind": "identity"}},
        "densities": {"one": {"algebroid": "point", "coefficient": 1}},
        "computations": [{"op": "index", "label": "chi", "kind": "euler",
                          "algebroid": "point", "metric": "g", "density": "one"}],
    }, "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["results"][0]["result"]["value"] == "1"


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


# the round chart of S^2 over the plane, with nu the area form of the round metric
_ROUND_CHART = {
    "version": 1, "coordinates": ["x", "y"],
    "algebroids": {"sphere": {"kind": "tangent"}},
    "metrics": {"round": {"algebroid": "sphere", "kind": "conformal",
                          "factor": "4/(1 + x^2 + y^2)^2"}},
    "connections": {"line": {"algebroid": "sphere", "kind": "zero", "bundle_rank": 1},
                    "lc": {"algebroid": "sphere", "kind": "levi_civita", "metric": "round"}},
    "densities": {"one": {"algebroid": "sphere", "coefficient": 1}},
    "forms": {"area": {"algebroid": "sphere", "degree": 2,
                       "coefficients": {"1,2": "4/(1 + x^2 + y^2)^2"}}},
    "domains": {"plane": {"type": "plane"}},
}


def _round_chart_indices(tmp_path, capsys, *fields):
    """Run one index computation per dict of ``fields`` in-process; the JSON
    results and the exit code."""
    base = {"op": "index", "algebroid": "sphere", "metric": "round", "density": "one",
            "domain": "plane", "tolerance": 1.0e-8, "budget": 6000}
    doc = tmp_path / "doc.yaml"
    doc.write_text(yaml.safe_dump({**_ROUND_CHART, "computations": [
        {**base, **extra} for extra in fields
    ] + [{"op": "validate", "label": "after", "algebroid": "sphere"}]}))
    code = cli.main(["--format", "json", "run", str(doc)])
    return json.loads(capsys.readouterr().out)["results"], code


def test_signature_and_dirac_indices_of_the_round_sphere(tmp_path, capsys):
    # nu ^ genus has top part nu, times ch = rank for a flat line bundle; the
    # Levi-Civita connection has tr R = 0, so ch = 2
    results, code = _round_chart_indices(
        tmp_path, capsys,
        {"label": "signature", "kind": "signature", "nu": "area"},
        {"label": "dirac-line", "kind": "dirac", "nu": "area", "connection": "line"},
        {"label": "dirac-lc", "kind": "dirac", "nu": "area", "connection": "lc"},
    )
    assert code == 0
    for item, expected in zip(results, (2, 2, 4)):
        assert item["ok"], item
        assert abs(float(item["result"]["value"]) - expected) <= 1e-6, item
        assert item["result"]["i_power"] == 1


def test_euler_index_refuses_nu_and_connection(tmp_path, capsys):
    results, code = _round_chart_indices(
        tmp_path, capsys,
        {"label": "nu", "kind": "euler", "nu": "area"},
        {"label": "connection", "kind": "euler", "connection": "line"},
    )
    assert code == 1
    nu, connection, after = results
    assert not nu["ok"] and nu["error"] == "the Euler index takes no nu"
    assert not connection["ok"]
    assert connection["error"] == "the Euler index takes no coefficient-bundle connection E"
    assert after["ok"] and after["result"]["sphere"]["status"] == "valid"


def test_all_zero_forms_have_degree_zero(tmp_path, capsys):
    # an all-zero form has degree 0 whatever degree it is declared with: as nu
    # it contributes no (sqrt(-1))^j, and its thom-check integrates to exact zeros
    doc = tmp_path / "doc.yaml"
    doc.write_text(yaml.safe_dump({
        **_ROUND_CHART,
        "forms": {"zero2": {"algebroid": "sphere", "degree": 2},
                  "zero1": {"algebroid": "sphere", "degree": 1}},
        "computations": [
            {"op": "index", "label": "nu", "kind": "signature", "algebroid": "sphere",
             "metric": "round", "density": "one", "domain": "plane", "nu": "zero2"},
            {"op": "thom-check", "label": "thom", "algebroid": "sphere", "form": "zero1",
             "density": "one", "domain": "plane"},
        ],
    }))
    assert cli.main(["run", str(doc)]) == 0
    zero = '{"error": "0", "exact": true, "value": "0"}'
    assert capsys.readouterr().out.splitlines() == [
        'ok index nu: {"error": "0", "exact": true, "i_power": 0, '
        '"note": "degree mismatch: no top-degree component", "value": "0"}',
        f'ok thom-check thom: {{"base": {zero}, "compatible": true, "mapped": {zero}, '
        '"roundtrip_identity": true, "theta_closed": true, "theta_nondegenerate": true}',
        "2/2 computations succeeded",
    ]


def test_pfaffian_with_a_metric_of_another_algebroid_fails_its_computation(tmp_path, capsys):
    # two tangent algebroids on one chart: the metric of one cannot lower the
    # curvature of a connection on the other, whatever its rank
    doc = tmp_path / "doc.yaml"
    doc.write_text(yaml.safe_dump({
        "version": 1, "coordinates": ["x", "y"],
        "algebroids": {"plane": {"kind": "tangent"}, "other": {"kind": "tangent"}},
        "metrics": {"bumpy": {"algebroid": "plane", "kind": "conformal", "factor": "1 + x^2 + y^2"},
                    "seven": {"algebroid": "other", "kind": "conformal", "factor": "7"}},
        "connections": {"lc": {"algebroid": "plane", "kind": "levi_civita", "metric": "bumpy"}},
        "computations": [
            {"op": "charclass", "label": "pf-foreign", "genus": "pfaffian",
             "connection": "lc", "metric": "seven"},
            {"op": "charclass", "label": "pf-own", "genus": "pfaffian",
             "connection": "lc", "metric": "bumpy"},
        ],
    }))
    assert cli.main(["run", str(doc)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        'FAIL charclass pf-foreign: "metric lives on a different algebroid"',
        'ok charclass pf-own: {"class": {"2": [["1,2", "(-2)/(x^2 + y^2 + 1)"]]}}',
        "1/2 computations succeeded",
    ]


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_non_finite_document_tolerance_is_a_document_error(tmp_path, tolerance):
    # the schema's exclusiveMinimum lets NaN and infinity through
    with open(job_path("torus-flat")) as handle:
        document = yaml.safe_load(handle)
    document["computations"][-1]["tolerance"] = tolerance
    proc, _ = _run_document(tmp_path, document)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: thom-check computation: tolerance must be finite, got {tolerance}"
    ]
