"""Single executable exposing the simulator, the amplitude model, the
claims sweep, the three-way comparison, diagram evaluation/normalization,
and the rule soundness harness as subcommands.

Output is deterministic: JSON with sorted keys (canonical format), or CSV
with one record per row.  Domain errors exit 1 with {"code", "message"} on
stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from bisect import bisect_left
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import compare, paper_amplitude, paper_claims_check
from .diagram import check_typing
from .errors import (
    DimensionCapError,
    DomainError,
    GroverLabError,
    InvalidArgumentError,
    IONotFoundError,
    TypeMismatchError,
)
from .rewrite import check_rule_soundness, normalize, rules_catalog
from .serialize import dumps_canonical, loads, to_document
from .simulator import OracleFunction, grover_run, optimal_iterations
from .tensor_eval import evaluate

SCHEMA_VERSION = 1
# Items per write of a streamed float list: enough to amortise the work per
# chunk, few enough that each chunk's arrays and text stay small.
CHUNK = 1024
# Stands for the streamed list inside a JSON document.  Command-line
# strings cannot hold a NUL, so its JSON form occurs nowhere else.
_LIST_SLOT = "\0"


def _envelope(args, result) -> dict:
    return {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "result": result,
    }


def _float_tokens(values: np.ndarray):
    """The repr of every float in `values`, as lists of at most CHUNK strings.

    A chunk takes repr once per distinct value in it (a fast-path table has
    two), told apart by their bits so that -0.0 keeps its sign.  Only
    chunk-sized arrays are made per chunk: table-sized temporaries, such as
    np.unique's inverse over the whole table, leave the heap fragmented
    between requests.  A NaN or infinity raises a coded error before any
    chunk is made, as strict JSON cannot hold it.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    finite = np.isfinite(values)
    if not finite.all():
        raise DomainError(f"result is not finite: {float(values[~finite][0])!r}")
    return (_chunk_tokens(values[start : start + CHUNK]) for start in range(0, len(values), CHUNK))


def _chunk_tokens(chunk: np.ndarray) -> list:
    bits, inverse = np.unique(chunk.view(np.int64), return_inverse=True)
    tokens = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return tokens[inverse.reshape(-1)].tolist()


def _write_json_with_list(out, document, values: np.ndarray) -> None:
    """Write dumps_canonical(document) with the floats of `values` as the
    list that stands where `document` holds _LIST_SLOT.  The bytes are those
    of json.dumps(indent=2, sort_keys=True); the list is written a chunk at
    a time and never held whole as text or as Python floats."""
    chunks = _float_tokens(values)
    head, _, tail = dumps_canonical(document).partition(json.dumps(_LIST_SLOT))
    if not len(values):
        out.write(head + "[]" + tail)
        return
    line = head[head.rfind("\n") + 1 :]
    indent = "\n" + " " * (len(line) - len(line.lstrip(" ")))
    item = indent + "  "
    out.write(head + "[")
    for i, tokens in enumerate(chunks):
        out.write(("," if i else "") + item)
        out.write(("," + item).join(tokens))
    out.write(indent + "]" + tail)


def _write_csv_table(out, values: np.ndarray, marked) -> None:
    """The element,probability,is_marked rows of a probability table, in the
    bytes _emit prints for such records, a chunk at a time."""
    chunks = _float_tokens(values)
    marked = sorted(marked)
    out.write("element,probability,is_marked\n")
    for start, tokens in zip(range(0, len(values), CHUNK), chunks):
        stop = start + len(tokens)
        cells = [None, ",", None, ",0\n"] * len(tokens)  # element "," probability ",flag\n"
        cells[::4] = map(str, range(start, stop))
        cells[2::4] = tokens
        for x in marked[bisect_left(marked, start) : bisect_left(marked, stop)]:
            cells[4 * (x - start) + 3] = ",1\n"
        out.write("".join(cells))


def _emit(args, result, header=(), records=()) -> None:
    """Print `result` in the JSON envelope or, for --format csv, the
    `records` (dicts) as rows of their `header` columns.  A None cell is
    empty, and str of a float is its repr."""
    if args.format == "csv":
        rows = [header] + [["" if r[c] is None else str(r[c]) for c in header] for r in records]
        sys.stdout.write("".join(",".join(row) + "\n" for row in rows))
    else:
        sys.stdout.write(dumps_canonical(_envelope(args, result)))


def _parse_marked(raw: str):
    try:
        return frozenset(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise InvalidArgumentError(f"--marked must be a comma list of integers, got {raw!r}") from exc


def _cmd_simulate(args) -> None:
    f = OracleFunction(args.n, _parse_marked(args.marked))
    if args.iterations in ("paper", "optimal"):
        counts = optimal_iterations(args.n)
        k = counts.paper_mode if args.iterations == "paper" else counts.optimal_mode
    else:
        try:
            k = int(args.iterations)
        except ValueError as exc:
            raise InvalidArgumentError(
                f"--iterations must be an integer, 'paper' or 'optimal', got {args.iterations!r}"
            ) from exc
    table = grover_run(args.n, f, k, oracle_mode=args.oracle_mode)
    if args.format == "csv":
        _write_csv_table(sys.stdout, table.probabilities, table.marked)
        return
    result = {**table.summary(), "probabilities": _LIST_SLOT, "k": k, "mode": args.oracle_mode}
    _write_json_with_list(sys.stdout, _envelope(args, result), table.probabilities)


def _cmd_formula(args) -> None:
    if (args.n is None) == (args.N is None):
        raise InvalidArgumentError("give exactly one of --n or --N")
    try:
        N = 2.0**args.n if args.n is not None else args.N
    except OverflowError as exc:
        raise DomainError(f"N = 2^{args.n} overflows a float") from exc
    k = None
    if args.k != "sqrt":
        try:
            k = float(args.k)
        except ValueError as exc:
            raise InvalidArgumentError(f"--k must be a number or 'sqrt', got {args.k!r}") from exc
    amp = paper_amplitude(N, k)
    result = {**asdict(amp), "A": amp.amplitude, "A_squared": amp.squared}
    _emit(args, result, list(result), [result])


def _cmd_claims(args) -> None:
    report = paper_claims_check(args.n_min, args.n_max)
    result = report.to_json_dict()
    header = ["n", "A", "A_squared", "total_unmarked", "simulator_marked",
              "simulator_unmarked_each", "marked_ge_half"]
    _emit(args, result, header, result["records"])


def _cmd_compare(args) -> None:
    report = compare(args.n, k_mode=args.k_mode)
    result = report.to_json_dict()
    _emit(args, result, sorted(result), [result])


def _load_diagram(path: str):
    p = Path(path)
    if not p.is_file():
        raise IONotFoundError(f"no such file: {path}")
    return loads(p.read_text(encoding="utf-8"))


def _cmd_diagram_eval(args) -> None:
    d = _load_diagram(args.path)
    tensor = evaluate(d)  # evaluate checks the typing
    _emit(args, tensor.to_json_dict())


def _cmd_diagram_normalize(args) -> None:
    d = _load_diagram(args.path)
    check_typing(d)
    final, trace = normalize(d, max_steps=args.max_steps)
    result = {"diagram": to_document(final), "trace": trace.to_json_dict()}
    _emit(args, result)


def _cmd_rules_check(args) -> None:
    try:
        sizes = [int(x) for x in args.sizes.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(
            f"--sizes must be a comma list of integers, got {args.sizes!r}"
        ) from exc
    records = [
        check_rule_soundness(rule, sizes, seed=args.seed).to_json_dict() for rule in rules_catalog()
    ]
    _emit(args, {"reports": records}, ["rule", "instantiations", "max_deviation", "pass"], records)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grover-lab",
        description="Grover search under circuit, diagram, and closed-form semantics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, about, formats=("json", "csv")):
        p = sub.add_parser(name, help=about)
        p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(func=func)
        return p

    p = command("simulate", _cmd_simulate, "exact state-vector simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", required=True, help="comma list of marked elements")
    p.add_argument("--iterations", default="paper", help="integer, 'paper' or 'optimal'")
    p.add_argument("--oracle-mode", choices=["phase", "ancilla"], default="phase")

    p = command("formula", _cmd_formula, "closed-form unmarked amplitude")
    p.add_argument("--n", type=int, help="register size as qubit count (N = 2^n)")
    p.add_argument("--N", type=float, help="set size directly")
    p.add_argument("--k", default="sqrt", help="real exponent, or 'sqrt' for sqrt(N)")

    p = command("claims", _cmd_claims, "sweep the formula-level claims over n")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=20)

    p = command("compare", _cmd_compare, "simulator vs diagram vs formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-mode", choices=["paper", "optimal"], default="paper")

    p = command("diagram-eval", _cmd_diagram_eval, "evaluate a serialized diagram", ["json"])
    p.add_argument("path")

    p = command("diagram-normalize", _cmd_diagram_normalize, "normalize a serialized diagram",
                ["json"])
    p.add_argument("path")
    p.add_argument("--max-steps", type=int, default=1000)

    p = command("rules-check", _cmd_rules_check, "certify every rewrite rule sound")
    p.add_argument("--sizes", default="2,3,4,8")
    p.add_argument("--seed", type=int, default=0)

    return parser


_PARSER = build_parser()  # built once per process; parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
    except (GroverLabError, MemoryError) as exc:
        # a failed allocation is the host's own register cap
        code = exc.code if isinstance(exc, GroverLabError) else DimensionCapError.code
        err = {"code": code, "message": str(exc) or "out of memory"}
        if isinstance(exc, TypeMismatchError) and exc.report is not None:
            err["mismatches"] = [
                {
                    "slice": m.slice_index,
                    "wire": m.wire_position,
                    "expected": None if m.expected is None else m.expected.name,
                    "found": None if m.found is None else m.found.name,
                }
                for m in exc.report.mismatches
            ]
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
