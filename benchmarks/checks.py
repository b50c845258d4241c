"""Reference checks for the benchmark's requests.

Nothing here imports grover_lab or the test suite.  The references are the
multi-marked closed form of Boyer, Brassard, Hoyer and Tapp
(quant-ph/9605034): after k iterations with m of N elements marked, the
marked set holds probability sin^2((2k+1)theta) with sin^2(theta) = m/N;
the normal forms of the rewrite chains are written out by hand in
workloads.py.  Each check returns None on success or a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

TOL = 1e-9

# Instantiation counts of `rules-check` at its default sizes 2,3,4,8, worked
# out by hand from the catalog: points give sum(d) = 17 or sum(d^2) = 93
# instances; function boxes are enumerated exhaustively at sizes 2 and 3
# (2^2 + 3^3 = 31) plus 100 random ones at each of sizes 4 and 8; group
# rules give one instance per irrep of Z_2, Z_3, Z_4, Z_8 (17); the algebra
# laws give one instance per size (4).
RULE_INSTANTIATIONS = {
    "copy-point": 17,
    "delete-point": 17,
    "point-inner-product": 93,
    "comonoid-hom-copy": 231,
    "comonoid-hom-delete": 231,
    "rep-merge": 17,
    "rep-at-unit": 17,
    "irrep-sum": 17,
    "special": 4,
    "unit-left": 4,
    "unit-right": 4,
    "associativity": 4,
}

# The claims sweep simulates at least n <= 12 with one marked element at
# paper k.  At n = 2 and 3 the marked probability is 0.25 and about 0.330,
# so the sweep's verdict that it always reaches 1/2 is false.
CLAIMS_SIMULATED_MIN_N = 12


def paper_k(n: int) -> int:
    return max(1, round(math.sqrt(2.0**n)))


def optimal_k(n: int) -> int:
    return max(1, math.floor(math.pi / 4.0 * math.sqrt(2.0**n)))


def iterations(n: int, mode: str) -> int:
    return paper_k(n) if mode == "paper" else optimal_k(n)


def bbht_marked_prob(N: int, m: int, k: int) -> float:
    theta = math.asin(math.sqrt(m / N))
    return math.sin((2 * k + 1) * theta) ** 2


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _result(output: str) -> dict:
    return json.loads(output)["result"]


def _csv(output: str):
    """(header, rows) of a CSV output."""
    header, *rows = csv.reader(io.StringIO(output))
    return header, rows


def check_simulate(expect: dict, output: str):
    n, marked = expect["n"], set(expect["marked"])
    k = iterations(n, expect["iterations"])
    want = bbht_marked_prob(2**n, len(marked), k)
    if expect["format"] == "json":
        res = _result(output)
        if res["k"] != k:
            return f"k is {res['k']}, expected {k}"
        probs = res["probabilities"]
        if sorted(res["marked"]) != sorted(marked):
            return "marked set differs from the request"
    else:
        header, rows = _csv(output)
        el, pr, mk = (header.index(c) for c in ("element", "probability", "is_marked"))
        probs = [float(r[pr]) for r in rows]
        flagged = {int(r[el]) for r in rows if r[mk] == "1"}
        if flagged != marked:
            return "is_marked column differs from the request"
    if len(probs) != 2**n:
        return f"{len(probs)} probabilities for n={n}"
    got = math.fsum(probs[x] for x in marked)
    if not _close(got, want):
        return f"marked probability {got!r}, closed form {want!r}"
    total = math.fsum(probs)
    if not _close(total, 1.0):
        return f"probabilities sum to {total!r}"
    return None


def check_claims(expect: dict, output: str):
    res = _result(output)
    records = res["records"]
    if [r["n"] for r in records] != list(range(expect["n_min"], expect["n_max"] + 1)):
        return "claims records do not cover the requested range"
    for r in records:
        if r["simulator_marked"] is None:
            if r["n"] <= CLAIMS_SIMULATED_MIN_N:
                return f"n={r['n']} was not simulated"
            continue
        want = bbht_marked_prob(2 ** r["n"], 1, paper_k(r["n"]))
        if not _close(r["simulator_marked"], want):
            return f"n={r['n']}: simulator_marked {r['simulator_marked']!r}, closed form {want!r}"
    if res["verdicts"]["simulator_marked_ge_half"] is not False:
        return "simulator_marked_ge_half should be false (n = 2 and 3)"
    return None


def _check_marked_amplitudes(n, marked, k, amplitudes):
    """amplitudes: [re, im] pairs of the register state."""
    if len(amplitudes) != 2**n:
        return f"{len(amplitudes)} amplitudes for n={n}"
    want = bbht_marked_prob(2**n, len(marked), k) / len(marked)
    for x in marked:
        re, im = amplitudes[x]
        got = re * re + im * im
        if not _close(got, want):
            return f"element {x}: probability {got!r}, closed form / m {want!r}"
    return None


def check_diagram_eval(expect: dict, output: str):
    res = _result(output)
    if (res["rows"], res["cols"]) != (2 ** expect["n"], 1):
        return f"tensor shape {res['rows']}x{res['cols']}"
    return _check_marked_amplitudes(expect["n"], expect["marked"], expect["k"], res["entries"])


def check_build_evaluate(expect: dict, output):
    return _check_marked_amplitudes(expect["n"], expect["marked"], expect["k"], output)


def check_compare(expect: dict, output: str):
    n = expect["n"]
    k = iterations(n, expect["k_mode"])
    if expect["format"] == "json":
        res = _result(output)
    else:
        header, (row,) = _csv(output)
        res = dict(zip(header, row))
    if int(res["k"]) != k:
        return f"k is {res['k']}, expected {k}"
    want = bbht_marked_prob(2**n, 1, k)
    for key in ("diagram_marked", "simulator_marked"):
        if not _close(float(res[key]), want):
            return f"{key} {res[key]!r}, closed form {want!r}"
    return None


def _canon(record) -> str:
    return json.dumps(record, sort_keys=True)


def check_normalize(expect: dict, output: str):
    res = _result(output)
    doc, trace = res["diagram"], res["trace"]
    if trace["truncated"]:
        return "normalization was truncated"
    if len(trace["steps"]) != expect["steps"]:
        return f"{len(trace['steps'])} steps, expected {expect['steps']}"
    if Counter(s["rule"] for s in trace["steps"]) != Counter(expect["rules"]):
        return "rules fired differ from the chain families"
    if doc["inputs"] != expect["inputs"] or doc["outputs"] != expect["outputs"]:
        return "normal form has another interface"
    found = Counter(
        _canon(g) for sl in doc["slices"] for g in sl if g["variant"] != "Identity"
    )
    if found != Counter(_canon(g) for g in expect["generators"]):
        return "normal form has other generators than the chain families reach"
    return None


def check_rules(expect: dict, output: str):
    if expect["format"] == "json":
        reports = {
            r["rule"]: (r["instantiations"], r["pass"]) for r in _result(output)["reports"]
        }
    else:
        header, rows = _csv(output)
        reports = {
            r["rule"]: (int(r["instantiations"]), r["pass"] == "True")
            for r in (dict(zip(header, row)) for row in rows)
        }
    want = {rule: (count, True) for rule, count in RULE_INSTANTIATIONS.items()}
    if reports != want:
        return f"rule reports {reports} differ from {want}"
    return None


CHECKS = {
    "simulate": check_simulate,
    "claims": check_claims,
    "diagram-eval": check_diagram_eval,
    "build-evaluate": check_build_evaluate,
    "compare": check_compare,
    "diagram-normalize": check_normalize,
    "rules-check": check_rules,
}


def check(expect: dict, exit_code: int, output):
    """None when the request succeeded and its output is right."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return CHECKS[expect["type"]](expect, output)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
