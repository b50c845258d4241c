"""Seeded requests for the benchmark's two workloads.

A workload is a sequence of cycles.  Every cycle holds the same fixed mix
of request classes (the parameters that set a request's cost: register
size, iteration mode, output format, diagram width), so the run's latency
distribution does not depend on how many cycles fit in the run.  The seed
chooses everything else: marked sets, chain families and sizes, rule-check
seeds, and the order of the requests within each cycle.

The classes of a cycle are graded in cost, with no long run of identical
ones around the median or the tail percentile: the host's speed drifts
during a run, and a quantile taken inside a block of equal requests jumps
between the block's fast and slow samples, where one taken from graded
requests moves smoothly with the drift.

Nothing here imports grover_lab: the program sees only the argv values and
the files made here or, for the serialized diagrams of diagram-mix, by
``worker.py prepare``.
"""

from __future__ import annotations

import cmath
import json
import random
from pathlib import Path

from checks import optimal_k

WORKLOADS = ("sim-large", "diagram-mix")

# Cycles each measuring run completes at least; it runs more while the
# requests have taken less than --seconds.  At the seed's speed these fill
# about 30 s.
MIN_CYCLES = {"sim-large": 3, "diagram-mix": 6}

# simulate classes: (n, iterations, format, oracle mode).  The median falls
# among the four n = 15 requests and the tail (p81) among the four requests
# of n = 16 optimal and n = 17.
SIM_CLASSES = [
    *[(14, it, fmt, "phase") for it in ("paper", "optimal") for fmt in ("json", "csv")],
    *[(15, it, fmt, "phase") for it in ("paper", "optimal") for fmt in ("json", "csv")],
    (16, "paper", "json", "phase"),
    (16, "optimal", "csv", "phase"),
    (17, "paper", "csv", "phase"),
    (17, "optimal", "json", "phase"),
    (17, "optimal", "csv", "phase"),
    (18, "paper", "json", "phase"),
    (12, "paper", "json", "ancilla"),
    (16, "paper", "json", "ancilla"),
]
CLAIMS_PER_CYCLE = 2

# Grover diagrams serialized at set-up: (n, k), k from 1 up to paper k.
DENSE_FILES = [(5, 1), (5, 6), (6, 2), (6, 4), (6, 6), (6, 8), (7, 4), (7, 8), (7, 11)]
COMPARE_CLASSES = [(4, "paper"), (4, "optimal"), (5, "paper"), (5, "optimal")]
BUILD_EVALUATE_N = (6, 7)

# Width (number of independent chains) of each diagram normalized per cycle.
# The 11 chain families are dealt round-robin, so no family is in a diagram
# more than once more than another: the family mix sets normalize's cost.
WIDE_WIDTHS = (33, 38, 44, 49, 55)
RULES_CHECKS_PER_CYCLE = 2


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(json.dumps([seed, *salt]))


def _marked(rng, n, choices):
    m = rng.choice(choices)
    return sorted(rng.sample(range(2**n), m))


# ---------------------------------------------------------------------------
# sim-large
# ---------------------------------------------------------------------------


def _simulate(rng, n, it, fmt, oracle):
    marked = _marked(rng, n, (1, 2, 4))
    argv = ["simulate", "--n", str(n), "--marked", ",".join(map(str, marked)),
            "--iterations", it, "--format", fmt]
    if oracle != "phase":
        argv += ["--oracle-mode", oracle]
    return {"argv": argv, "expect": {"type": "simulate", "n": n, "marked": marked,
                                     "iterations": it, "format": fmt}}


def _sim_large_cycle(seed, c, work):
    rng = _rng(seed, "sim-large", c)
    reqs = [_simulate(rng, *cls) for cls in SIM_CLASSES]
    reqs += [{"argv": ["claims", "--n-min", "2", "--n-max", "20"],
              "expect": {"type": "claims", "n_min": 2, "n_max": 20}}] * CLAIMS_PER_CYCLE
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# diagram-mix: serialized and in-process Grover diagrams
# ---------------------------------------------------------------------------


def dense_file_specs(seed):
    """What ``worker.py prepare`` builds and serializes: one Grover diagram
    per DENSE_FILES entry with a seeded marked set of size 1 or 2."""
    rng = _rng(seed, "diagram-mix", "files")
    return [{"n": n, "k": k, "marked": _marked(rng, n, (1, 2)), "file": f"grover-n{n}-k{k}.json"}
            for n, k in DENSE_FILES]


def _dense_requests(rng, seed, work):
    reqs = [{"argv": ["diagram-eval", str(work / spec["file"])],
             "expect": {"type": "diagram-eval", **{key: spec[key] for key in ("n", "k", "marked")}}}
            for spec in dense_file_specs(seed)]
    for n, mode in COMPARE_CLASSES:
        fmt = rng.choice(("json", "csv"))
        reqs.append({"argv": ["compare", "--n", str(n), "--k-mode", mode, "--format", fmt],
                     "expect": {"type": "compare", "n": n, "k_mode": mode, "format": fmt}})
    for n in BUILD_EVALUATE_N:
        reqs.append({"call": "build-evaluate",
                     "expect": {"type": "build-evaluate", "n": n, "k": optimal_k(n),
                                "marked": _marked(rng, n, (1, 2))}})
    return reqs


# ---------------------------------------------------------------------------
# diagram-mix: diagrams of independent two-slice chains, and rules-check
# ---------------------------------------------------------------------------

FAMILIES = (
    "copy-point", "delete-point", "point-inner-product", "comonoid-hom-copy",
    "comonoid-hom-delete", "rep-merge", "rep-at-unit", "irrep-sum", "special",
    "unit", "associativity",
)


def _g(variant, **fields):
    return {"variant": variant, **fields}


def _scalar(name, value):
    return _g("CustomBox", name=name, dom=[], cod=[], matrix=[[[float(value), 0.0]]])


def _chain(family, rng):
    """One chain: (inputs, bottom generators, top generators, outputs,
    non-identity generators of its normal form, rule that fires).  Every
    family normalizes in exactly one step."""
    d = rng.randint(4, 8)
    s, g = f"S{d}", f"Z{d}"
    x = rng.randrange(d)
    irrep = rng.randrange(d)
    if family == "copy-point":
        p = _g("Point", space=s, index=x)
        return [], [p], [_g("Comult", space=s)], [s, s], [p, p], family
    if family == "delete-point":
        return [], [_g("Point", space=s, index=x)], [_g("Counit", space=s)], [], [], family
    if family == "point-inner-product":
        y = x if rng.random() < 0.5 else rng.randrange(d)
        final = [] if x == y else [_scalar("0", 0.0)]
        return ([], [_g("Point", space=s, index=x)], [_g("PointEffect", space=s, index=y)],
                [], final, family)
    if family in ("comonoid-hom-copy", "comonoid-hom-delete"):
        c = rng.randint(4, 8)
        t = f"S{c}"
        f = _g("FunctionBox", domain=s, codomain=t, table=[rng.randrange(c) for _ in range(d)])
        if family == "comonoid-hom-copy":
            return [s], [f], [_g("Comult", space=t)], [t, t], [_g("Comult", space=s), f, f], family
        return [s], [f], [_g("Counit", space=t)], [], [_g("Counit", space=s)], family
    rep = _g("RepBox", group=g, irrep_index=irrep, dimension=1)
    if family == "rep-merge":
        return [g, g], [_g("GroupMult", group=g)], [rep], [], [rep, rep], family
    if family == "rep-at-unit":
        return [], [_g("GroupUnit", group=g)], [rep], [], [], family
    if family == "irrep-sum":
        final = _scalar("|G|", d) if irrep == 0 else _scalar("0", 0.0)
        return [], [_g("Unit", space=g)], [rep], [], [final], family
    if family == "special":
        return [s], [_g("Comult", space=s)], [_g("Mult", space=s)], [s], [], family
    if family == "unit":
        unit, ident = _g("Unit", space=s), _g("Identity", space=s)
        if rng.random() < 0.5:
            return [s], [unit, ident], [_g("Mult", space=s)], [s], [], "unit-left"
        return [s], [ident, unit], [_g("Mult", space=s)], [s], [], "unit-right"
    if family == "associativity":
        mult = _g("Mult", space=s)
        return [s, s, s], [mult, _g("Identity", space=s)], [mult], [s], [mult, mult], family
    raise ValueError(family)


def _space_record(name):
    d = int(name[1:])
    rec = {"name": name, "kind": "set" if name[0] == "S" else "group", "dimension": d}
    if name[0] == "Z":
        chars = [[cmath.exp(2j * cmath.pi * ((j * k) % d) / d) for k in range(d)] for j in range(d)]
        rec["group"] = {
            "order": d,
            "multiplication_table": [[(i + j) % d for j in range(d)] for i in range(d)],
            "identity_index": 0,
            "character_table": [[[round(z.real, 15), round(z.imag, 15)] for z in row] for row in chars],
        }
    return rec


def wide_diagram(rng, width):
    """A document of `width` side-by-side chains and what normalize must
    reach: its interface, step count, rules fired and generators."""
    start = rng.randrange(len(FAMILIES))
    families = [FAMILIES[(start + i) % len(FAMILIES)] for i in range(width)]
    rng.shuffle(families)
    chains = [_chain(f, rng) for f in families]
    inputs = [w for ch in chains for w in ch[0]]
    outputs = [w for ch in chains for w in ch[3]]
    names = {w for ch in chains for part in (ch[0], ch[3]) for w in part}
    for ch in chains:
        for gen in ch[1] + ch[2]:
            names.update(gen[key] for key in ("space", "domain", "codomain", "group") if key in gen)
    doc = {
        "version": 1,
        "spaces": [_space_record(n) for n in sorted(names)],
        "inputs": inputs,
        "outputs": outputs,
        "slices": [[gen for ch in chains for gen in ch[1]], [gen for ch in chains for gen in ch[2]]],
    }
    expect = {
        "type": "diagram-normalize",
        "inputs": inputs,
        "outputs": outputs,
        "steps": width,
        "rules": [ch[5] for ch in chains],
        "generators": [gen for ch in chains for gen in ch[4]],
    }
    return doc, expect


def _rewrite_requests(rng, c, work):
    reqs = []
    for i, w in enumerate(WIDE_WIDTHS):
        doc, expect = wide_diagram(rng, w)
        path = work / f"wide-c{c}-{i}-w{w}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        reqs.append({"argv": ["diagram-normalize", str(path)], "expect": expect})
    for _ in range(RULES_CHECKS_PER_CYCLE):
        fmt = rng.choice(("json", "csv"))
        argv = ["rules-check", "--seed", str(rng.randrange(2**31)), "--format", fmt]
        reqs.append({"argv": argv, "expect": {"type": "rules-check", "format": fmt}})
    return reqs


def _diagram_mix_cycle(seed, c, work):
    rng = _rng(seed, "diagram-mix", c)
    reqs = _dense_requests(rng, seed, work) + _rewrite_requests(rng, c, work)
    rng.shuffle(reqs)
    return reqs


_CYCLES = {
    "sim-large": _sim_large_cycle,
    "diagram-mix": _diagram_mix_cycle,
}


def cycle_size(workload: str) -> int:
    return {
        "sim-large": len(SIM_CLASSES) + CLAIMS_PER_CYCLE,
        "diagram-mix": (len(DENSE_FILES) + len(COMPARE_CLASSES) + len(BUILD_EVALUATE_N)
                        + len(WIDE_WIDTHS) + RULES_CHECKS_PER_CYCLE),
    }[workload]


def cycle(workload: str, seed: int, c: int, work: Path) -> list:
    """The requests of cycle `c`; may write the input files they name into
    `work`."""
    return _CYCLES[workload](seed, c, work)


def warmup(workload: str, seed: int, work: Path) -> list:
    """The costliest request of cycle 0, run untimed before measuring so
    that the first timed request does not pay for growing the heap."""
    def cost(req):
        e = req["expect"]
        return e.get("n", 0), e.get("k", 0), e.get("steps", 0)
    return [max(cycle(workload, seed, 0, work), key=cost)]
