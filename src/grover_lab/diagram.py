"""Typed string-diagram intermediate representation in slice normal form.

A diagram is an ordered list of slices; each slice is an ordered list of
generators placed side by side.  Wires are typed by :class:`SpaceLabel`.
Slice k's concatenated output spaces must equal slice k+1's concatenated
input spaces.  The empty diagram (no slices, no wires) denotes the scalar 1.

Each generator owns its matrix (:meth:`Generator.to_matrix`) and its adjoint
(:meth:`Generator.adjoint`); its dataclass fields are all that serialization
needs.  Each generator states its wires once, in :meth:`Generator.wires`,
and keeps them as ``dom`` and ``cod`` from their first read.  Identity,
Mult, Comult, Unit and Counit are the :class:`Spider` subclasses; they
differ only in their numbers of input and output legs.

All values are immutable; every operation returns a new diagram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Optional, Tuple

import numpy as np

from .errors import InvalidGeneratorError, TypeMismatchError
from .spaces import GroupSpec, SpaceLabel

Spaces = Tuple[SpaceLabel, ...]


def dims_product(spaces) -> int:
    return math.prod(s.dimension for s in spaces)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


class Generator:
    """Base class for the atomic boxes a slice is built from.

    A subclass states its input and output spaces in :meth:`wires`; the
    first read of ``dom`` or ``cod`` keeps both.  :meth:`to_matrix` and
    :meth:`adjoint` each default to a derivation from the other, so a
    subclass defines at least one of them.  ``variant``, the name that
    serialization records, is the class name.
    """

    variant: ClassVar[str]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.variant = cls.__name__

    def wires(self) -> Tuple[Spaces, Spaces]:
        """The input and output spaces, ``(dom, cod)``."""
        raise NotImplementedError

    @cached_property
    def dom(self) -> Spaces:
        dom, self.__dict__["cod"] = self.wires()
        return dom

    @cached_property
    def cod(self) -> Spaces:
        self.__dict__["dom"], cod = self.wires()
        return cod

    def to_matrix(self) -> np.ndarray:
        """Complex matrix of shape (prod cod dims, prod dom dims).

        The default transposes the adjoint's matrix without conjugating it,
        so it serves only generators whose adjoint's matrix is real.
        """
        return self.adjoint().to_matrix().T

    def adjoint(self) -> "Generator":
        """The default is a box named ``self.name + "†"`` holding the
        conjugate transpose, so a generator relying on it has a ``name``."""
        return CustomBox(self.name + "†", self.cod, self.dom, self.to_matrix().conj().T)


@dataclass(frozen=True)
class Spider(Generator):
    """The classical structure on ``space`` with ``legs = (inputs, outputs)``,
    sending |i>^(x)inputs to |i>^(x)outputs and every other basis input to 0.
    By the spider theorem a connected diagram of spiders is fixed by its leg
    counts alone, so each subclass declares only its ``legs``.  The adjoint
    is the subclass with the legs reversed.
    """

    space: SpaceLabel
    legs: ClassVar[Tuple[int, int]]

    def wires(self):
        return (self.space,) * self.legs[0], (self.space,) * self.legs[1]

    def to_matrix(self):
        d, n = self.space.dimension, sum(self.legs)
        m = np.zeros((d,) * n, dtype=complex)
        m[(np.arange(d),) * n] = 1.0  # 1 where all n wire indices agree
        return m.reshape(d ** self.legs[1], d ** self.legs[0])

    def adjoint(self):
        cls = next(c for c in Spider.__subclasses__() if c.legs == self.legs[::-1])
        return cls(self.space)


class Identity(Spider):
    legs = (1, 1)


class Mult(Spider):
    """Matching multiplication m: S (x) S -> S, m(|i>(x)|j>) = delta_ij |i>."""

    legs = (2, 1)


class Unit(Spider):
    """u: 1 -> S, the unnormalized all-ones state sum_i |i>."""

    legs = (0, 1)


class Comult(Spider):
    """Copying m†: S -> S (x) S."""

    legs = (1, 2)


class Counit(Spider):
    """Deletion u†: S -> 1."""

    legs = (1, 0)


@dataclass(frozen=True)
class FunctionBox(Generator):
    """Linearization of a total function between finite sets.

    The function is stored as an index array: ``table[i]`` is the image of
    basis element i.  The 0/1 matrix is derived on demand; the adjoint is
    its transpose, no longer a function in general.
    """

    domain: SpaceLabel
    codomain: SpaceLabel
    table: Tuple[int, ...]
    name: ClassVar[str] = "function"

    def __post_init__(self):
        if len(self.table) != self.domain.dimension:
            raise InvalidGeneratorError(
                f"function table has {len(self.table)} entries for a "
                f"{self.domain.dimension}-dimensional domain"
            )
        for i, t in enumerate(self.table):
            if not 0 <= t < self.codomain.dimension:
                raise InvalidGeneratorError(f"table entry {t} at {i} out of codomain range")

    def wires(self):
        return (self.domain,), (self.codomain,)

    def to_matrix(self):
        m = np.zeros((self.codomain.dimension, self.domain.dimension), dtype=complex)
        m[list(self.table), np.arange(self.domain.dimension)] = 1.0
        return m


@dataclass(frozen=True)
class Point(Generator):
    """A chosen basis element x: 1 -> S."""

    space: SpaceLabel
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.space.dimension:
            raise InvalidGeneratorError(
                f"point index {self.index} out of range for dimension {self.space.dimension}"
            )

    def wires(self):
        return (), (self.space,)

    def to_matrix(self):
        m = np.zeros((self.space.dimension, 1), dtype=complex)
        m[self.index, 0] = 1.0
        return m

    def adjoint(self):
        return PointEffect(self.space, self.index)


@dataclass(frozen=True)
class PointEffect(Generator):
    """x†: S -> 1, the effect <x|."""

    space: SpaceLabel
    index: int

    __post_init__ = Point.__post_init__

    def wires(self):
        return (self.space,), ()

    def adjoint(self):
        return Point(self.space, self.index)


@dataclass(frozen=True)
class GroupMult(Generator):
    """Linearized group multiplication G (x) G -> G."""

    group: GroupSpec
    name: ClassVar[str] = "groupmult"

    def wires(self):
        g = self.group.space()
        return (g, g), (g,)

    def to_matrix(self):
        n = self.group.order
        m = np.zeros((n, n * n), dtype=complex)
        # column i*n + j holds the product of elements i and j
        m[np.ravel(self.group.multiplication_table), np.arange(n * n)] = 1.0
        return m


@dataclass(frozen=True)
class GroupUnit(Generator):
    """The group unit e as a state 1 -> G."""

    group: GroupSpec

    def wires(self):
        return (), (self.group.space(),)

    def adjoint(self):
        return PointEffect(self.cod[0], self.group.identity_index)


@dataclass(frozen=True)
class RepBox(Generator):
    """An irreducible representation of a finite group, as the effect
    G -> 1 sending |g> to chi(g).

    Only one-dimensional irreps are supported: for those the character row
    of the group's character table *is* the representation.
    """

    group: GroupSpec
    irrep_index: int
    dimension: int = 1
    name: ClassVar[str] = "rep"

    def __post_init__(self):
        if self.group.character_table is None:
            raise InvalidGeneratorError("group has no character table")
        if not 0 <= self.irrep_index < self.group.irrep_count():
            raise InvalidGeneratorError(f"irrep index {self.irrep_index} out of range")
        if self.dimension != 1 or self.group.irrep_dimension(self.irrep_index) != 1:
            raise InvalidGeneratorError("only 1-dimensional irreps are supported")

    def wires(self):
        return (self.group.space(),), ()

    def to_matrix(self):
        return np.array([self.group.character_table[self.irrep_index]], dtype=complex)


@dataclass(frozen=True, eq=False)
class CustomBox(Generator):
    """An arbitrary linear map with an explicit matrix.

    ``matrix`` has shape (product of cod dims, product of dom dims) and is
    stored as a read-only complex array.  Boxes hash by name and spaces and
    compare equal when their matrices are entrywise equal.
    """

    name: str
    # field() keeps dataclass from taking the inherited dom/cod as defaults
    dom: Spaces = field()
    cod: Spaces = field()
    matrix: np.ndarray

    def wires(self):
        return self.dom, self.cod

    def __post_init__(self):
        rows, cols = dims_product(self.cod), dims_product(self.dom)
        # Measured before conversion: np.array raises an uncoded ValueError
        # on ragged rows.
        if len(self.matrix) != rows or any(len(r) != cols for r in self.matrix):
            raise InvalidGeneratorError(
                f"matrix of box {self.name!r} must be {rows}x{cols}"
            )
        m = np.array(self.matrix, dtype=complex, order="C")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other):
        return (
            isinstance(other, CustomBox)
            and (self.name, self.dom, self.cod) == (other.name, other.dom, other.cod)
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.name, self.dom, self.cod))

    def to_matrix(self):
        return self.matrix


@dataclass(frozen=True)
class Swap(Generator):
    left: SpaceLabel
    right: SpaceLabel

    def wires(self):
        return (self.left, self.right), (self.right, self.left)

    def to_matrix(self):
        dl, dr = self.left.dimension, self.right.dimension
        # row j*dl + i is basis column i*dr + j
        eye = np.eye(dl * dr, dtype=complex)
        return eye.reshape(dl, dr, dl * dr).transpose(1, 0, 2).reshape(dr * dl, dl * dr)

    def adjoint(self):
        return Swap(self.right, self.left)


def scalar_box(value: complex, name: str = "scalar") -> CustomBox:
    """A closed box denoting multiplication by a scalar."""
    return CustomBox(name, (), (), ((complex(value),),))


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagram:
    input_spaces: Spaces
    output_spaces: Spaces
    slices: Tuple[Tuple[Generator, ...], ...]


EMPTY = Diagram((), (), ())


def slice_dom(sl) -> Spaces:
    return tuple(s for g in sl for s in g.dom)


def slice_cod(sl) -> Spaces:
    return tuple(s for g in sl for s in g.cod)


def make_generator(g: Generator) -> Diagram:
    """Single-slice diagram for one generator.

    The identity on a trivial (1-dimensional) space is the empty diagram.
    """
    if isinstance(g, Identity) and g.space.kind == "trivial":
        return EMPTY
    return Diagram(g.dom, g.cod, ((g,),))


def identity_diagram(spaces) -> Diagram:
    spaces = tuple(spaces)
    if not spaces:
        return EMPTY
    return Diagram(spaces, spaces, (tuple(Identity(s) for s in spaces),))


def _mismatches(expected: Spaces, found: Spaces):
    """(position, expected, found) of each wire where the two disagree; a
    missing wire is None."""
    for pos, (e, f) in enumerate(itertools.zip_longest(expected, found)):
        if e != f:
            yield pos, e, f


def compose(first: Diagram, then: Diagram) -> Diagram:
    """Sequential composition: `first` below, `then` above.

    eval(compose(a, b)) == eval(b) @ eval(a).
    """
    for pos, e, f in _mismatches(first.output_spaces, then.input_spaces):
        raise TypeMismatchError(f"cannot compose: wire {pos} has output {e} but input {f}")
    return Diagram(first.input_spaces, then.output_spaces, first.slices + then.slices)


def tensor(left: Diagram, right: Diagram) -> Diagram:
    """Side-by-side placement; the shorter diagram is padded with identity
    slices on its outputs so both have the same number of slices."""
    inputs = left.input_spaces + right.input_spaces
    outputs = left.output_spaces + right.output_spaces
    height = max(len(left.slices), len(right.slices))

    def padded(d):
        pad = tuple(Identity(s) for s in d.output_spaces)
        return d.slices + (pad,) * (height - len(d.slices))

    slices = tuple(l + r for l, r in zip(padded(left), padded(right)))
    return Diagram(inputs, outputs, slices)


def dagger(d: Diagram) -> Diagram:
    """Vertical reflection: slice order reversed, every generator adjointed."""
    slices = tuple(tuple(g.adjoint() for g in sl) for sl in reversed(d.slices))
    return Diagram(d.output_spaces, d.input_spaces, slices)


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WireMismatch:
    slice_index: int
    wire_position: int
    expected: Optional[SpaceLabel]
    found: Optional[SpaceLabel]


@dataclass
class TypingReport:
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def validate(d: Diagram) -> TypingReport:
    """Check inter-slice wire typing and the diagram's declared interface.

    Mismatches are reported with the slice index *above* the offending
    boundary (index 0 means the diagram's declared inputs disagree with the
    first slice, or with its declared outputs if it has no slices).
    """
    report = TypingReport()
    below = [d.input_spaces] + [slice_cod(sl) for sl in d.slices]
    above = [slice_dom(sl) for sl in d.slices] + [d.output_spaces]
    for idx, (expected, found) in enumerate(zip(below, above)):
        if expected != found:  # the common, well-typed boundary needs no scan
            report.mismatches += (WireMismatch(idx, *mm) for mm in _mismatches(expected, found))
    return report


def check_typing(d: Diagram) -> None:
    """Raise TypeMismatchError, carrying the whole report, if `d` fails typing."""
    report = validate(d)
    if not report.ok:
        mm = report.mismatches[0]
        raise TypeMismatchError(
            f"diagram fails typing at slice {mm.slice_index}, wire {mm.wire_position}",
            report=report,
        )
