"""Functorial evaluation of diagrams to dense complex matrices.

Composition goes to matrix product, side-by-side placement to Kronecker
product.  Evaluation is strictly slice by slice on a state tensor with one
axis per current wire and a last axis over the diagram's inputs.  Within a
slice each non-identity generator is contracted with its own wire axes only
(``np.tensordot`` then ``np.moveaxis``); identity wires are left untouched,
so no Kronecker product of a whole slice is ever built.  The dimension cap
applies to each generator matrix and to each tensor actually allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, Generator, Identity, dims_product
from .errors import DimensionCapError, NotClosedError, TypeMismatchError
from . import diagram as _diagram

# Cap on the entries of each generator matrix and each tensor evaluate allocates.
DEFAULT_DIMENSION_CAP = 1 << 24


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """A complex matrix with rows = product of output dims, cols = product
    of input dims.  A closed diagram evaluates to a 1x1 tensor."""

    matrix: np.ndarray

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[z.real, z.imag] for z in self.matrix.reshape(-1)],
        }


def eval_generator(g: Generator) -> np.ndarray:
    """Matrix of a single generator, shape (prod cod dims, prod dom dims)."""
    return g.to_matrix()


def _apply_slice(t: np.ndarray, sl, cap: int) -> np.ndarray:
    """Apply one slice to a state tensor of axes (wire_1, ..., wire_k, inputs)."""
    axis = 0
    for g in sl:
        if isinstance(g, Identity):
            axis += 1
            continue
        a, b = len(g.dom), len(g.cod)
        dom, cod = dims_product(g.dom), dims_product(g.cod)
        if dom * cod > cap or t.size // dom * cod > cap:
            raise DimensionCapError("slice tensor exceeds dimension cap")
        gm = eval_generator(g).reshape([s.dimension for s in g.cod + g.dom])
        t = np.tensordot(gm, t, axes=(tuple(range(b, b + a)), tuple(range(axis, axis + a))))
        t = np.moveaxis(t, tuple(range(b)), tuple(range(axis, axis + b)))
        axis += b
    return t


def evaluate(d: Diagram, cap: int | None = None) -> DenseTensor:
    """Evaluate a diagram; raises if it fails typing or exceeds the cap."""
    cap = DEFAULT_DIMENSION_CAP if cap is None else cap
    report = _diagram.validate(d)
    if not report.ok:
        mm = report.mismatches[0]
        raise TypeMismatchError(
            f"diagram fails typing at slice {mm.slice_index}, wire {mm.wire_position}: "
            f"expected {mm.expected}, found {mm.found}",
            report=report,
        )
    cols = dims_product(d.input_spaces)
    rows = dims_product(d.output_spaces)
    if rows * cols > cap:
        raise DimensionCapError("diagram interface exceeds dimension cap")
    if cols * cols > cap:
        raise DimensionCapError("input identity exceeds dimension cap")
    t = np.eye(cols, dtype=complex).reshape([s.dimension for s in d.input_spaces] + [cols])
    for sl in d.slices:
        t = _apply_slice(t, sl, cap)
    return DenseTensor(t.reshape(rows, cols))


def scalar_of(d: Diagram, cap: int | None = None) -> complex:
    """The value of a closed diagram."""
    if d.input_spaces or d.output_spaces:
        raise NotClosedError(
            f"diagram has {len(d.input_spaces)} inputs and "
            f"{len(d.output_spaces)} outputs; expected a closed diagram"
        )
    return complex(evaluate(d, cap=cap).matrix[0, 0])
