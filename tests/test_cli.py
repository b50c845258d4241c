import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from grover_lab.grover_diagram import build_grover_diagram, indicator_box, register_space
from grover_lab.serialize import dumps

CLI = [sys.executable, "-m", "grover_lab.cli"]


def run_cli(*argv, env=None):
    return subprocess.run(
        CLI + list(argv), capture_output=True, text=True, env=env
    )


def load_schema(name):
    text = resources.files("grover_lab").joinpath("schemas", name).read_text()
    return json.loads(text)


def check_against_schema(stdout, schema_name):
    payload = json.loads(stdout)
    jsonschema.validate(payload, load_schema(schema_name))
    return payload


@pytest.fixture
def diagram_file(tmp_path):
    s = register_space(2)
    d = build_grover_diagram(2, indicator_box(s, {3}), 1)
    path = tmp_path / "grover2.json"
    path.write_text(dumps(d))
    return str(path)


def test_simulate_exact_hit():
    proc = run_cli("simulate", "--n", "2", "--marked", "3", "--iterations", "1")
    assert proc.returncode == 0
    payload = check_against_schema(proc.stdout, "simulate.json")
    probs = payload["result"]["probabilities"]
    assert probs[3] == pytest.approx(1.0, abs=1e-12)
    assert payload["result"]["k"] == 1
    assert payload["schema_version"] == 1


def test_simulate_csv():
    proc = run_cli(
        "simulate", "--n", "2", "--marked", "3", "--iterations", "1", "--format", "csv"
    )
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "element,probability,is_marked"
    assert len(lines) == 5
    assert lines[4].split(",")[2] == "1"


def test_formula_zero_at_n2():
    proc = run_cli("formula", "--n", "2", "--k", "2")
    payload = check_against_schema(proc.stdout, "formula.json")
    assert payload["result"]["A"] == 0.0


def test_formula_requires_exactly_one_size_flag():
    both = run_cli("formula", "--n", "2", "--N", "4")
    neither = run_cli("formula")
    for proc in (both, neither):
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert "exactly one" in err["message"]


def test_claims_schema_and_verdicts():
    proc = run_cli("claims", "--n-min", "2", "--n-max", "8")
    payload = check_against_schema(proc.stdout, "claims.json")
    verdicts = payload["result"]["verdicts"]
    assert verdicts["A_squared_below_half"] is True
    assert verdicts["simulator_marked_ge_half"] is False


def test_compare_schema():
    proc = run_cli("compare", "--n", "4")
    payload = check_against_schema(proc.stdout, "compare.json")
    assert payload["result"]["discrepancy_ratio"] == pytest.approx(63.0105, rel=1e-4)


def test_compare_csv_header_sorted():
    proc = run_cli("compare", "--n", "3", "--format", "csv")
    header = proc.stdout.split("\n")[0].split(",")
    assert header == sorted(header)
    assert "simulator_marked" in header


def test_diagram_eval(diagram_file):
    proc = run_cli("diagram-eval", diagram_file)
    payload = check_against_schema(proc.stdout, "diagram_eval.json")
    assert payload["result"]["rows"] == 4 and payload["result"]["cols"] == 1
    entries = payload["result"]["entries"]  # row-major [re, im] pairs
    assert entries[3] == pytest.approx([1.0, 0.0], abs=1e-10)
    assert entries[0] == pytest.approx([0.0, 0.0], abs=1e-10)


def test_diagram_normalize(diagram_file):
    proc = run_cli("diagram-normalize", diagram_file)
    payload = check_against_schema(proc.stdout, "diagram_normalize.json")
    assert payload["result"]["trace"]["truncated"] is False
    jsonschema.validate(payload["result"]["diagram"], load_schema("diagram.json"))


def test_rules_check_all_pass():
    proc = run_cli("rules-check", "--sizes", "2,3")
    payload = check_against_schema(proc.stdout, "rules_check.json")
    reports = payload["result"]["reports"]
    assert len(reports) == 12
    assert all(r["pass"] for r in reports)
    assert all(r["max_deviation"] <= 1e-12 for r in reports)


def test_missing_file_is_io_error(tmp_path):
    proc = run_cli("diagram-eval", str(tmp_path / "nope.json"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["code"] == "io-not-found"


def test_type_error_reports_mismatch(tmp_path):
    doc = {
        "version": 1,
        "spaces": [
            {"name": "S", "kind": "set", "dimension": 2},
            {"name": "T", "kind": "set", "dimension": 3},
        ],
        "inputs": ["S"],
        "outputs": ["T"],
        "slices": [
            [{"variant": "Identity", "space": "S"}],
            [{"variant": "Identity", "space": "T"}],
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("diagram-eval", str(path))
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["code"] == "type-mismatch"
    assert err["mismatches"][0] == {
        "slice": 1,
        "wire": 0,
        "expected": "S",
        "found": "T",
    }


def test_type_error_without_slices_lists_every_mismatch(tmp_path):
    doc = {
        "version": 1,
        "spaces": [{"name": n, "kind": "set", "dimension": 2} for n in "ABC"],
        "inputs": ["A", "B"],
        "outputs": ["C", "C"],
        "slices": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for cmd in ("diagram-eval", "diagram-normalize"):
        proc = run_cli(cmd, str(path))
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["mismatches"] == [
            {"slice": 0, "wire": 0, "expected": "A", "found": "C"},
            {"slice": 0, "wire": 1, "expected": "B", "found": "C"},
        ]


def _one_slice_doc(space, inputs, outputs, record):
    return {
        "version": 1,
        "spaces": [space],
        "inputs": inputs,
        "outputs": outputs,
        "slices": [[record]],
    }


S2 = {"name": "S", "kind": "set", "dimension": 2}
NON_INTEGER_DOCUMENTS = {
    "dimension-2.5": _one_slice_doc(
        dict(S2, dimension=2.5), ["S"], ["S"], {"variant": "Identity", "space": "S"}
    ),
    "dimension-true": _one_slice_doc(
        dict(S2, dimension=True), ["S"], ["S"], {"variant": "Identity", "space": "S"}
    ),
    "point-index-float": _one_slice_doc(
        S2, ["S"], [], {"variant": "PointEffect", "space": "S", "index": 1.0}
    ),
    "function-table-float": _one_slice_doc(
        S2, ["S"], ["S"],
        {"variant": "FunctionBox", "domain": "S", "codomain": "S", "table": [0.5, 1]},
    ),
    "group-table-float": _one_slice_doc(
        {
            "name": "Z2", "kind": "group", "dimension": 2,
            "group": {
                "order": 2,
                "multiplication_table": [[0.0, 1.0], [1.0, 0.0]],
                "identity_index": 0,
                "character_table": None,
            },
        },
        ["Z2", "Z2"], ["Z2"], {"variant": "GroupMult", "group": "Z2"},
    ),
}


@pytest.mark.parametrize("doc", NON_INTEGER_DOCUMENTS.values(), ids=NON_INTEGER_DOCUMENTS)
def test_non_integer_field_is_a_parse_error(doc, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for cmd in ("diagram-eval", "diagram-normalize"):
        proc = run_cli(cmd, str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["code"] == "parse-error"
        assert "expected an integer" in err["message"]


def test_unknown_flag_exits_2():
    proc = run_cli("simulate", "--n", "2", "--marked", "0", "--frobnicate")
    assert proc.returncode == 2


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_domain_error_exits_1():
    proc = run_cli("simulate", "--n", "2", "--marked", "7")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["code"] == "invalid-argument"


BAD_NUMBERS = [
    (["formula", "--N", "nan"], "domain-error"),
    (["formula", "--N", "inf"], "domain-error"),
    (["formula", "--N", "8", "--k", "inf"], "domain-error"),
    (["formula", "--N", "8", "--k", "nan"], "domain-error"),
    (["formula", "--N", "8", "--k", "abc"], "invalid-argument"),
    (["formula", "--N", "3", "--k", "-5"], "domain-error"),
    (["formula", "--n", "2000"], "domain-error"),
    (["rules-check", "--sizes", "1,x"], "invalid-argument"),
    (["diagram-normalize", "{diagram}", "--max-steps", "0"], "invalid-argument"),
    (["diagram-normalize", "{diagram}", "--max-steps", "-3"], "invalid-argument"),
]


@pytest.mark.parametrize("argv, code", BAD_NUMBERS, ids=[" ".join(a) for a, _ in BAD_NUMBERS])
def test_bad_number_is_a_coded_error(argv, code, diagram_file):
    proc = run_cli(*[a.format(diagram=diagram_file) for a in argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["code"] == code


def test_output_is_byte_identical_across_runs():
    a = run_cli("claims", "--n-min", "2", "--n-max", "10")
    b = run_cli("claims", "--n-min", "2", "--n-max", "10")
    assert a.stdout == b.stdout and a.stdout


def test_normalize_output_round_trips(diagram_file):
    proc = run_cli("diagram-normalize", diagram_file)
    doc = json.loads(proc.stdout)["result"]["diagram"]
    from grover_lab.serialize import dumps_canonical, from_document, to_document

    assert dumps_canonical(to_document(from_document(doc))) == dumps_canonical(doc)


def test_env_var_caps_register_size():
    import os

    env = dict(os.environ, GROVER_LAB_MAX_QUBITS="3")
    proc = run_cli("simulate", "--n", "4", "--marked", "0", env=env)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["code"] == "cap-exceeded"
