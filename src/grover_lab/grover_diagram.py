"""Diagrammatic construction of the Grover search circuit.

The register is the space C[S] with |S| = 2^n.  Preparation is the
all-ones state scaled by 1/sqrt|S|.  The oracle is built from the marking
function's box composed with the sign representation of Z_2 on a copied
wire, which acts as the phase (-1)^f(x) on the register.  The diffusion
step -I + 2A (A the mean projector) enters as a single box whose matrix is
assembled from the Unit/Counit composite scaled by 2/|S|.
"""

from __future__ import annotations

import math

import numpy as np

from .diagram import (
    Comult,
    Counit,
    CustomBox,
    Diagram,
    FunctionBox,
    Identity,
    RepBox,
    Unit,
    compose,
    make_generator,
    scalar_box,
    tensor,
)
from .errors import InvalidArgumentError
from .spaces import Z2, SpaceLabel, qubit_register
from .tensor_eval import evaluate

SIGN_IRREP = 1  # index of the sign representation in Z2's character table


def register_space(n: int) -> SpaceLabel:
    """The register C[S], |S| = 2^n, as a qubit register named "S"."""
    return qubit_register("S", n)


def indicator_box(space: SpaceLabel, marked) -> FunctionBox:
    """The marking function f: S -> Z_2 as a function box."""
    marked = frozenset(marked)
    if not marked:
        raise InvalidArgumentError("marked set must be non-empty")
    if any(not 0 <= x < space.dimension for x in marked):
        raise InvalidArgumentError("marked index out of range")
    table = tuple(1 if i in marked else 0 for i in range(space.dimension))
    return FunctionBox(space, Z2.space(), table)


def diffusion_box(space: SpaceLabel) -> CustomBox:
    """-I + 2A where A = (1/|S|) * (Unit after Counit), built by evaluating
    that small diagram rather than writing the matrix down directly."""
    n = space.dimension
    mean = compose(make_generator(Counit(space)), make_generator(Unit(space)))
    a = evaluate(mean).matrix / n
    d = -np.eye(n, dtype=complex) + 2.0 * a
    return CustomBox("D", (space,), (space,), d)


def oracle_diagram(fbox: FunctionBox) -> Diagram:
    """Phase oracle on the register: copy, apply f on the copy, absorb the
    copy through the sign representation."""
    s = fbox.domain
    copy = make_generator(Comult(s))
    apply_f = tensor(make_generator(Identity(s)), make_generator(fbox))
    sign = tensor(make_generator(Identity(s)), make_generator(RepBox(Z2, SIGN_IRREP)))
    return compose(compose(copy, apply_f), sign)


def build_grover_diagram(n: int, fbox: FunctionBox, k: int) -> Diagram:
    """The full k-iteration search as one diagram with a single output wire.

    Evaluating it yields the register state; squared magnitudes reproduce
    the state-vector simulator's distribution.
    """
    if k < 1:
        raise InvalidArgumentError("iteration count k must be >= 1")
    s = fbox.domain
    if s.dimension != 2**n:
        raise InvalidArgumentError(
            f"function domain has dimension {s.dimension}, expected 2^{n}"
        )
    if fbox.codomain.dimension != 2 or fbox.codomain.kind != "group":
        raise InvalidArgumentError("function codomain must be the group Z_2")

    prep = tensor(
        make_generator(Unit(s)),
        make_generator(scalar_box(1.0 / math.sqrt(s.dimension), "1/sqrt|S|")),
    )
    step = compose(oracle_diagram(fbox), make_generator(diffusion_box(s)))
    d = prep
    for _ in range(k):
        d = compose(d, step)
    return d


def sigma_sum_diagram(fbox: FunctionBox) -> Diagram:
    """Closed diagram for sum_{x in S} sigma(f(x)): all-ones state, then f,
    then the sign representation.  Evaluates to |S| - 2*|marked|."""
    s = fbox.domain
    d = make_generator(Unit(s))
    d = compose(d, make_generator(fbox))
    return compose(d, make_generator(RepBox(Z2, SIGN_IRREP)))
