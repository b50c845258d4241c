"""Independent oracles and generators shared by the tests.

The brute-force circuit and the slice-Kronecker evaluation here are
deliberately written against plain dense matrices so they share no code
with the simulator or the diagram evaluator they are used to check.
"""

import math
import random
from fractions import Fraction

import numpy as np

from grover_lab.diagram import (
    Comult,
    Counit,
    CustomBox,
    Diagram,
    FunctionBox,
    Identity,
    Mult,
    Point,
    PointEffect,
    Swap,
    Unit,
    slice_cod,
    slice_dom,
)
from grover_lab.spaces import set_space

# --- explicit dense-matrix Grover circuit -------------------------------


def oracle_matrix(N, marked):
    signs = np.array([-1.0 if x in marked else 1.0 for x in range(N)])
    return np.diag(signs).astype(complex)


def diffusion_matrix(N):
    return (-np.eye(N) + 2.0 / N).astype(complex)


def brute_force_probs(n, marked, k):
    N = 2**n
    state = np.full(N, 1.0 / math.sqrt(N), dtype=complex)
    step = diffusion_matrix(N) @ oracle_matrix(N, marked)
    for _ in range(k):
        state = step @ state
    return np.abs(state) ** 2


def exact_grover_probs(n, m, k):
    """(probability of each marked element, of each unmarked element) after
    k iterations with m of N = 2^n elements marked, as exact Fractions.

    Runs the two-amplitude recurrence on sqrt(N)-scaled amplitudes, which
    start at 1 and stay rational: the oracle negates the marked amplitude A,
    and the diffusion maps each amplitude x to 2*mean - x.
    """
    N = 2**n
    A = B = Fraction(1)
    for _ in range(k):
        mean = ((N - m) * B - m * A) / N
        A, B = 2 * mean + A, 2 * mean - B
    return A * A / N, B * B / N


def slice_kronecker_matrix(d):
    """The matrix of a diagram as the product over its slices, bottom first,
    of the Kronecker product of each slice's generator matrices."""
    m = np.eye(math.prod(s.dimension for s in d.input_spaces), dtype=complex)
    for sl in d.slices:
        k = np.ones((1, 1), dtype=complex)
        for g in sl:
            k = np.kron(k, g.to_matrix())
        m = k @ m
    return m


# --- random well-typed diagrams -----------------------------------------

SPACE_POOL = (set_space("A", 2), set_space("B", 3))
DIM_LIMIT = 64


def _dims(wires):
    return math.prod(s.dimension for s in wires)


def random_diagram(rng: random.Random, max_slices: int = 4) -> Diagram:
    wires = [rng.choice(SPACE_POOL) for _ in range(rng.randint(0, 2))]
    inputs = tuple(wires)
    slices = []
    for _ in range(rng.randint(1, max_slices)):
        sl, wires = _random_slice(rng, wires)
        slices.append(tuple(sl))
    return Diagram(inputs, tuple(wires), tuple(slices))


def _random_box(rng, dom, cod):
    rows = _dims(cod)
    cols = _dims(dom)
    mat = tuple(
        tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(cols))
        for _ in range(rows)
    )
    return CustomBox(f"b{rng.randrange(10**6)}", tuple(dom), tuple(cod), mat)


def _capped(t, out, rest, fallback):
    """`t` as the next wire of the cut out + [t] + rest, or `fallback` where
    `t` would widen that cut past DIM_LIMIT."""
    return t if _dims(out + [t] + rest) <= DIM_LIMIT else fallback


def _random_slice(rng, wires):
    gens = []
    out = []
    i = 0
    while True:
        if rng.random() < 0.12 and _dims(out + wires[i:]) * 2 <= DIM_LIMIT:
            s = rng.choice(SPACE_POOL + (None,))
            if s is None:
                gens.append(_random_box(rng, (), ()))
            else:
                # the check above admits a 2-state wire, not a 3-state one
                s = _capped(s, out, wires[i:], SPACE_POOL[0])
                g = Point(s, rng.randrange(s.dimension)) if rng.random() < 0.5 else Unit(s)
                gens.append(g)
                out.append(s)
        if i >= len(wires):
            break
        s = wires[i]
        roll = rng.random()
        if roll < 0.10 and i + 1 < len(wires) and wires[i + 1] == s:
            gens.append(Mult(s))
            out.append(s)
            i += 2
        elif roll < 0.18 and i + 1 < len(wires):
            t = wires[i + 1]
            gens.append(Swap(s, t))
            out.extend([t, s])
            i += 2
        elif roll < 0.30 and _dims(out + wires[i:]) * s.dimension <= DIM_LIMIT:
            gens.append(Comult(s))
            out.extend([s, s])
            i += 1
        elif roll < 0.40:
            gens.append(Counit(s) if rng.random() < 0.5 else PointEffect(s, rng.randrange(s.dimension)))
            i += 1
        elif roll < 0.55:
            t = _capped(rng.choice(SPACE_POOL), out, wires[i + 1 :], s)
            table = tuple(rng.randrange(t.dimension) for _ in range(s.dimension))
            gens.append(FunctionBox(s, t, table))
            out.append(t)
            i += 1
        elif roll < 0.70:
            t = _capped(rng.choice(SPACE_POOL), out, wires[i + 1 :], s)
            gens.append(_random_box(rng, (s,), (t,)))
            out.append(t)
            i += 1
        else:
            gens.append(Identity(s))
            out.append(s)
            i += 1
    return gens, out


def split_diagram(d: Diagram, at: int):
    """Cut a diagram at a slice boundary into two composable diagrams."""
    lo, hi = d.slices[:at], d.slices[at:]
    boundary = slice_dom(hi[0]) if hi else d.output_spaces
    first = Diagram(d.input_spaces, boundary, lo)
    second = Diagram(boundary, d.output_spaces, hi)
    return first, second
