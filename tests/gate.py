"""Byte-identity gate for the command line: one fixed list of CLI runs
whose output two versions of the program must print alike.

    python tests/gate.py corpus DIR   # write the diagram documents once
    python tests/gate.py run DIR      # one line per case

`run` calls grover_lab.cli.main in-process, in DIR, on each argv list and
prints the argv, the exit code (or the type of the exception raised) and
the sha256 of stdout and of stderr.  To compare two versions, run it on one
corpus once with PYTHONPATH at each version's src and diff the listings:

    python tests/gate.py corpus CORPUS
    PYTHONPATH=../old/src python tests/gate.py run CORPUS > old.txt
    PYTHONPATH=src python tests/gate.py run CORPUS > new.txt
    diff old.txt new.txt

The corpus holds random_diagram seeds 0-399 and their daggers, Grover
diagrams at n = 2-5 with k = 1, 2 and one or two marked elements, and the
benchmark's wide_diagram documents at w = 33, 55, 96, 128 with seeds 0-2.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def write_corpus(out: Path) -> None:
    from oracles import random_diagram

    from grover_lab.diagram import dagger
    from grover_lab.grover_diagram import build_grover_diagram, indicator_box, register_space
    from grover_lab.serialize import dumps

    sys.dont_write_bytecode = True  # leave benchmarks/ as it is
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import wide_diagram

    out.mkdir(parents=True, exist_ok=True)
    for seed in range(400):
        d = random_diagram(random.Random(seed))
        (out / f"random-{seed:03d}.json").write_text(dumps(d))
        (out / f"random-{seed:03d}-dagger.json").write_text(dumps(dagger(d)))
    for n in range(2, 6):
        for k in (1, 2):
            for marked in ({2**n - 1}, {0, 2**n - 1}):
                d = build_grover_diagram(n, indicator_box(register_space(n), marked), k)
                (out / f"grover-n{n}-k{k}-m{len(marked)}.json").write_text(dumps(d))
    for w in (33, 55, 96, 128):
        for seed in range(3):
            doc, _ = wide_diagram(random.Random(seed), w)
            (out / f"wide-w{w:03d}-s{seed}.json").write_text(json.dumps(doc))


def cases(corpus: Path):
    """The argv lists, in order; document paths are relative to the corpus."""
    for n in range(1, 15):
        for m in (1, 2, 4):
            if m > 2**n:
                continue
            marked = ",".join(str(2**n - 1 - j * 2**n // m) for j in range(m))
            for it in ("0", "1", "3", "paper", "optimal"):
                for fmt in ("json", "csv"):
                    for mode in ("phase", "ancilla"):
                        yield ["simulate", "--n", str(n), "--marked", marked, "--iterations", it,
                               "--format", fmt, "--oracle-mode", mode]
    yield ["claims"]
    for n in range(1, 6):
        for k_mode in ("paper", "optimal"):
            for fmt in ("json", "csv"):
                yield ["compare", "--n", str(n), "--k-mode", k_mode, "--format", fmt]
    for seed in ("0", "7", "12345"):
        for sizes in ([], ["--sizes", "2,3,5"]):
            for fmt in ("json", "csv"):
                yield ["rules-check", "--seed", seed, *sizes, "--format", fmt]
    for path in sorted(p.name for p in corpus.glob("*.json")):
        yield ["diagram-eval", path]
        yield ["diagram-normalize", path]
    # N = 2^1100 overflows a float
    yield ["simulate", "--n", "1100", "--marked", "1"]
    yield ["simulate", "--n", "1100", "--marked", "1", "--iterations", "optimal"]
    yield ["compare", "--n", "1100"]
    yield ["compare", "--n", "1100", "--k-mode", "optimal"]


def run(corpus: Path) -> None:
    from grover_lab import cli

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    argvs = list(cases(corpus))
    os.chdir(corpus)
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:
                status = type(exc).__name__
        print(" ".join(argv), status, sha(out.getvalue()), sha(err.getvalue()), sep="\t")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("corpus", "run"):
        sys.exit("usage: gate.py corpus|run DIR")
    (write_corpus if sys.argv[1] == "corpus" else run)(Path(sys.argv[2]).resolve())
