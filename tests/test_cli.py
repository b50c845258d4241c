import io
import itertools
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from grover_lab import __version__, cli
from grover_lab.diagram import identity_diagram
from grover_lab.errors import DomainError
from grover_lab.grover_diagram import build_grover_diagram, indicator_box, register_space
from grover_lab.serialize import dumps
from grover_lab.simulator import OracleFunction, ProbabilityTable, grover_run, optimal_iterations
from grover_lab.spaces import set_space

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


@pytest.fixture
def wide_file(tmp_path):
    """A document whose first slice has 70 wires of a one-dimensional set."""
    path = tmp_path / "wide.json"
    path.write_text(dumps(identity_diagram([set_space("W", 1)] * 70)))
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


def test_compare_at_n1_leaves_the_formula_fields_null():
    """The model needs N > 2; the simulator and diagram routes still run."""
    proc = run_cli("compare", "--n", "1")
    result = check_against_schema(proc.stdout, "compare.json")["result"]
    formula = ("discrepancy_ratio", "formula_A", "formula_A_squared", "formula_k")
    assert [result[f] for f in formula] == [None] * 4
    assert result["simulator_marked"] == pytest.approx(0.5, abs=1e-12)
    assert result["diagram_marked"] == pytest.approx(0.5, abs=1e-12)
    proc = run_cli("compare", "--n", "1", "--format", "csv")
    header, row, end = proc.stdout.split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert (proc.returncode, end) == (0, "")
    assert [cells[f] for f in formula] == [""] * 4
    assert cells["simulator_marked"] == repr(result["simulator_marked"])


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


def test_rules_check_on_a_40_state_wire():
    proc = run_cli("rules-check", "--sizes", "40", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 12 and all(r.endswith(",True") for r in rows)


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


Z2_CHARACTERS = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]]
MALFORMED_DOCUMENTS = {
    # to_document sorted the names 3 and "S" and raised a TypeError
    "space-name-not-a-string": {
        "version": 1,
        "spaces": [dict(S2, name=3), S2],
        "inputs": [3, "S"],
        "outputs": [3, "S"],
        "slices": [[{"variant": "Identity", "space": 3}, {"variant": "Identity", "space": "S"}]],
    },
    # the last record won
    "space-name-twice": {
        "version": 1,
        "spaces": [S2, dict(S2, dimension=3)],
        "inputs": ["S"],
        "outputs": ["S"],
        "slices": [[{"variant": "Identity", "space": "S"}]],
    },
    # the generators carried the group's order-2 space, the document another
    "group-order-not-its-dimension": {
        "version": 1,
        "spaces": [{
            "name": "Z2", "kind": "group", "dimension": 3,
            "group": {
                "order": 2,
                "multiplication_table": [[0, 1], [1, 0]],
                "identity_index": 0,
                "character_table": Z2_CHARACTERS,
            },
        }],
        "inputs": [],
        "outputs": [],
        "slices": [
            [{"variant": "GroupUnit", "group": "Z2"}],
            [{"variant": "RepBox", "group": "Z2", "irrep_index": 1}],
        ],
    },
    # the entry after [re, im] was ignored
    "matrix-entry-not-a-pair": _one_slice_doc(
        S2, ["S"], [],
        {"variant": "CustomBox", "name": "b", "dom": ["S"], "cod": [],
         "matrix": [[[1.0, 0.0], [1.0, 0.0, 7.0]]]},
    ),
    # complex() raised an uncoded OverflowError
    "matrix-entry-beyond-float": _one_slice_doc(
        S2, ["S"], [],
        {"variant": "CustomBox", "name": "b", "dom": ["S"], "cod": [],
         "matrix": [[[10**400, 0.0], [1.0, 0.0]]]},
    ),
    "character-entry-not-a-pair": _one_slice_doc(
        {
            "name": "Z2", "kind": "group", "dimension": 2,
            "group": {
                "order": 2,
                "multiplication_table": [[0, 1], [1, 0]],
                "identity_index": 0,
                "character_table": [Z2_CHARACTERS[0], [[1.0, 0.0], [-1.0, 0.0, 7.0]]],
            },
        },
        ["Z2"], [], {"variant": "RepBox", "group": "Z2", "irrep_index": 1},
    ),
}


@pytest.mark.parametrize("doc", MALFORMED_DOCUMENTS.values(), ids=MALFORMED_DOCUMENTS)
def test_malformed_space_records_are_a_parse_error(doc, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for cmd in ("diagram-eval", "diagram-normalize"):
        proc = run_cli(cmd, str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["code"] == "parse-error"


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
    (["simulate", "--n", "1100", "--marked", "1"], "domain-error"),
    (["simulate", "--n", "1100", "--marked", "1", "--iterations", "optimal"], "domain-error"),
    (["compare", "--n", "1100"], "domain-error"),
    (["compare", "--n", "1100", "--k-mode", "optimal"], "domain-error"),
    (["rules-check", "--sizes", "1,x"], "invalid-argument"),
    (["diagram-normalize", "{diagram}", "--max-steps", "0"], "invalid-argument"),
    (["diagram-normalize", "{diagram}", "--max-steps", "-3"], "invalid-argument"),
    (["diagram-eval", "{wide}"], "cap-exceeded"),
]


@pytest.mark.parametrize("argv, code", BAD_NUMBERS, ids=[" ".join(a) for a, _ in BAD_NUMBERS])
def test_bad_number_is_a_coded_error(argv, code, diagram_file, wide_file):
    proc = run_cli(*[a.format(diagram=diagram_file, wide=wide_file) for a in argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["code"] == code


BAD_ARGUMENTS = [
    ["simulate", "--n", "2", "--marked", "x"],
    ["simulate", "--n", "2", "--marked", "0", "--iterations", "1e3"],
    ["formula", "--n", "2", "--N", "4"],
    ["formula"],
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=" ".join)
def test_bad_argument_is_invalid_argument(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["code"] == "invalid-argument"


def test_failed_allocation_is_a_coded_error(capsys, monkeypatch):
    def out_of_memory(n, f, k, oracle_mode):
        raise MemoryError("Unable to allocate 2.00 TiB")

    monkeypatch.setattr(cli, "grover_run", out_of_memory)
    code, out, err = _in_process(["simulate", "--n", "38", "--marked", "1"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "cap-exceeded", "message": "Unable to allocate 2.00 TiB"}


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


def test_successive_in_process_calls_print_what_each_prints_alone(capsys):
    argvs = [["compare", "--n", "3"], ["formula", "--n", "4"],
             ["simulate", "--n", "3", "--marked", "5", "--format", "csv"]]
    alone = [run_cli(*argv).stdout for argv in argvs]
    for argv, want in zip(argvs, alone):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want


# --- the streamed probability writer ----------------------------------------


def _in_process(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reference_json(argv):
    """json.dumps of the envelope, with the probability list as Python floats."""
    args = cli.build_parser().parse_args(argv)
    counts = optimal_iterations(args.n)
    k = {"paper": counts.paper_mode, "optimal": counts.optimal_mode}.get(args.iterations)
    k = int(args.iterations) if k is None else k
    f = OracleFunction(args.n, frozenset(int(x) for x in args.marked.split(",")))
    table = grover_run(args.n, f, k, oracle_mode=args.oracle_mode)
    config = {key: v for key, v in vars(args).items() if key != "func"}
    result = {**table.to_json_dict(), "k": k, "mode": args.oracle_mode}
    envelope = {"tool_version": __version__, "schema_version": 1, "config": config, "result": result}
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n", table


def _reference_csv(table):
    """The per-cell CSV rendering: repr of each float, str of each int."""
    rows = ["element,probability,is_marked"]
    for x, p in enumerate(table.probabilities):
        rows.append(f"{x},{float(p)!r},{int(x in table.marked)}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("n", range(1, 11))
def test_simulate_output_equals_json_dumps_and_per_cell_csv(n, capsys):
    marked_sets = {"0", str(2**n - 1), "1,2" if n > 1 else "0,1", "0,1,2,3" if n > 1 else "1"}
    for marked, it, mode in itertools.product(
        sorted(marked_sets), ("paper", "optimal", "0", "3"), ("phase", "ancilla")
    ):
        argv = ["simulate", "--n", str(n), "--marked", marked, "--iterations", it, "--oracle-mode", mode]
        want_json, table = _reference_json(argv)
        assert _in_process(argv, capsys) == (0, want_json, "")
        assert _in_process(argv + ["--format", "csv"], capsys) == (0, _reference_csv(table), "")


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 6, 7])
def test_writer_at_chunk_edges(size, monkeypatch):
    """Empty, one-element and chunk-boundary lists, with chunks of three."""
    monkeypatch.setattr(cli, "CHUNK", 3)
    values = np.array([0.25, -0.0, 0.0, 1e-300, 0.25, 3.0, 2.5e16][:size])
    doc = {"b": {"probabilities": cli._LIST_SLOT, "z": [1, 2]}, "a": 1}
    out = io.StringIO()
    cli._write_json_with_list(out, doc, values)
    want = {"b": {"probabilities": [float(v) for v in values], "z": [1, 2]}, "a": 1}
    assert out.getvalue() == json.dumps(want, sort_keys=True, indent=2) + "\n"
    # marked rows first and inside a chunk, last in a chunk, and every row
    for marked in ((0, 4), (2, 5), range(size)):
        out = io.StringIO()
        cli._write_csv_table(out, values, [x for x in marked if x < size])
        rows = [f"{x},{float(v)!r},{int(x in marked)}" for x, v in enumerate(values)]
        assert out.getvalue() == "\n".join(["element,probability,is_marked", *rows]) + "\n"


def test_writer_with_every_value_distinct():
    values = np.random.default_rng(3).random(3 * cli.CHUNK + 5)
    out = io.StringIO()
    cli._write_json_with_list(out, {"p": cli._LIST_SLOT}, values)
    assert out.getvalue() == json.dumps({"p": values.tolist()}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_probability_is_a_domain_error(bad, capsys, monkeypatch):
    values = np.array([0.5, bad, 0.25, 0.25])
    for write in (
        lambda out: cli._write_json_with_list(out, {"p": cli._LIST_SLOT}, values),
        lambda out: cli._write_csv_table(out, values, [0]),
    ):
        out = io.StringIO()
        with pytest.raises(DomainError):
            write(out)
        assert out.getvalue() == ""

    monkeypatch.setattr(cli, "grover_run", lambda n, f, k, oracle_mode: ProbabilityTable(2, values, (0,)))
    for fmt in ("json", "csv"):
        code, out, err = _in_process(["simulate", "--n", "2", "--marked", "0", "--format", fmt], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["code"] == "domain-error"
