"""Functorial evaluation of diagrams to dense complex matrices.

Composition goes to matrix product, side-by-side placement to Kronecker
product.  Evaluation runs over integer wire labels, on a state tensor of one
axis per live label.  A spider copies exactly its basis, so all its legs share
one label; a Unit opens one as an axis of ones.  Every other generator is one
``np.einsum`` of its matrix with the state.  A label no wire or input carries
is summed out, and the readout expands wires that share a label.  The cap
applies to each generator matrix and state tensor before allocation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, Generator, Spider, check_typing, dims_product
from .errors import DimensionCapError, NotClosedError

# Cap on the entries of each generator matrix and each tensor evaluate allocates.
DEFAULT_DIMENSION_CAP = 1 << 24
# np.einsum names axes 0..51, which bounds the live labels and a generator's legs.
MAX_LABELS = 52


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """A complex matrix with rows = product of output dims, cols = product
    of input dims.  A closed diagram evaluates to a 1x1 tensor."""

    matrix: np.ndarray

    def to_json_dict(self) -> dict:
        rows, cols = self.matrix.shape
        return {
            "rows": rows,
            "cols": cols,
            "entries": [[z.real, z.imag] for z in self.matrix.reshape(-1)],
        }


def eval_generator(g: Generator) -> np.ndarray:
    """Matrix of a single generator, shape (prod cod dims, prod dom dims)."""
    return g.to_matrix()


def evaluate(d: Diagram, cap: int | None = None) -> DenseTensor:
    """Evaluate a diagram; raises if it fails typing or exceeds the cap."""
    cap = DEFAULT_DIMENSION_CAP if cap is None else cap
    check_typing(d)
    cols, rows = dims_product(d.input_spaces), dims_product(d.output_spaces)
    if rows * cols > cap:
        raise DimensionCapError("diagram interface exceeds dimension cap")
    dims = {}  # the dimension of each live label

    def fresh(space):
        label = min(set(range(len(dims) + 1)) - dims.keys())
        if label >= MAX_LABELS:
            raise DimensionCapError(f"a cut needs more than {MAX_LABELS} live wire labels")
        dims[label] = space.dimension
        return label

    wires = axes = inputs = [fresh(s) for s in d.input_spaces]  # rebound, never changed in place
    t = np.ones([dims[x] for x in axes], dtype=complex)
    # the cut is a queue: a generator takes its inputs from the front, puts its outputs at the back
    for g in itertools.chain.from_iterable(d.slices):
        ins, wires = wires[: len(g.dom)], wires[len(g.dom) :]
        spider = isinstance(g, Spider)
        if spider:
            label = ins[0] if ins else fresh(g.space)
            merged = dict.fromkeys(ins, label)
            wires, inputs, sub = ([merged.get(x, x) for x in ls] for ls in (wires, inputs, axes))
            outs, legs = [label] * len(g.cod), [label]
        else:
            outs = [fresh(s) for s in g.cod]
            sub, legs = axes, outs + ins
        wires = wires + outs
        live = set(wires) | set(inputs)
        axes = [x for x in dict.fromkeys(sub + outs) if x in live]
        if axes != sub or not spider:
            sizes = (math.prod(dims[x] for x in ls) for ls in (legs, axes))  # operand, new state
            if max(sizes) > cap or len(legs) > MAX_LABELS:
                raise DimensionCapError("tensor exceeds dimension cap")
            op = np.ones(dims[label]) if spider else eval_generator(g)
            t = np.einsum(op.reshape([dims[x] for x in legs]), legs, t, sub, axes)
        dims = {x: n for x, n in dims.items() if x in live}
    # each state entry's flat index in the rows x cols matrix
    flat, stride = 0, 1
    for x in reversed(wires + inputs):
        flat = flat + stride * np.arange(dims[x]).reshape([-1 if y == x else 1 for y in axes])
        stride *= dims[x]
    m = np.zeros(rows * cols, dtype=complex)
    m[flat] = t
    return DenseTensor(m.reshape(rows, cols))


def scalar_of(d: Diagram, cap: int | None = None) -> complex:
    """The value of a closed diagram."""
    if d.input_spaces or d.output_spaces:
        raise NotClosedError(
            f"diagram has {len(d.input_spaces)} inputs and "
            f"{len(d.output_spaces)} outputs; expected a closed diagram"
        )
    return complex(evaluate(d, cap=cap).matrix[0, 0])
