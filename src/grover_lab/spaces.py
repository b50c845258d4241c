"""Wire labels: finite-dimensional spaces and finite group data.

A wire in a diagram is labelled by a :class:`SpaceLabel`.  Group-structured
wires additionally carry a :class:`GroupSpec` holding the multiplication
table and (optionally) the character table of the group's irreducible
representations.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import InvalidArgumentError

SPACE_KINDS = ("set", "group", "qubit-register", "trivial")

ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True)
class SpaceLabel:
    kind: str
    name: str
    dimension: int

    def __post_init__(self):
        if self.kind not in SPACE_KINDS:
            raise InvalidArgumentError(f"unknown space kind {self.kind!r}")
        if self.dimension < 1:
            raise InvalidArgumentError("space dimension must be >= 1")
        if self.kind == "trivial" and self.dimension != 1:
            raise InvalidArgumentError("trivial space must be 1-dimensional")
        if self.kind == "qubit-register" and self.dimension & (self.dimension - 1):
            raise InvalidArgumentError(
                f"qubit-register dimension {self.dimension} is not a power of two"
            )


TRIVIAL = SpaceLabel("trivial", "1", 1)


def set_space(name: str, dimension: int) -> SpaceLabel:
    return SpaceLabel("set", name, dimension)


def qubit_register(name: str, n: int) -> SpaceLabel:
    if n < 1:
        raise InvalidArgumentError("qubit count must be >= 1")
    return SpaceLabel("qubit-register", name, 2**n)


@dataclass(frozen=True)
class GroupSpec:
    """A finite group given by its multiplication table.

    ``multiplication_table[i][j]`` is the index of the product of elements
    ``i`` and ``j``.  When present, ``character_table[s][g]`` is the character
    of irrep ``s`` at element ``g``; rows must satisfy the orthogonality
    relation sum_g chi_i(g) * conj(chi_j(g)) == |G| * delta_ij.
    """

    name: str
    order: int
    multiplication_table: Tuple[Tuple[int, ...], ...]
    identity_index: int
    character_table: Optional[Tuple[Tuple[complex, ...], ...]] = None

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise InvalidArgumentError("group order must be >= 1")
        table = self.multiplication_table
        if len(table) != n or any(len(row) != n for row in table):
            raise InvalidArgumentError("multiplication table must be order x order")
        full = set(range(n))
        for i in range(n):
            if set(table[i]) != full:
                raise InvalidArgumentError(f"row {i} of multiplication table is not a permutation")
            if {table[j][i] for j in range(n)} != full:
                raise InvalidArgumentError(f"column {i} of multiplication table is not a permutation")
        e = self.identity_index
        if not 0 <= e < n:
            raise InvalidArgumentError("identity index out of range")
        for i in range(n):
            if table[e][i] != i or table[i][e] != i:
                raise InvalidArgumentError(f"element {e} is not a two-sided unit")
        if self.character_table is not None:
            self._check_orthogonality()

    def _check_orthogonality(self):
        chars = self.character_table
        for i in range(len(chars)):
            if len(chars[i]) != self.order:
                raise InvalidArgumentError("character table row length must equal group order")
            for j in range(len(chars)):
                inner = sum(chars[i][g] * chars[j][g].conjugate() for g in range(self.order))
                want = self.order if i == j else 0.0
                if abs(inner - want) > ORTHOGONALITY_TOL * max(1.0, self.order):
                    raise InvalidArgumentError(
                        f"character rows {i},{j} violate orthogonality: got {inner}"
                    )

    def space(self) -> SpaceLabel:
        return SpaceLabel("group", self.name, self.order)

    def multiply(self, i: int, j: int) -> int:
        return self.multiplication_table[i][j]

    def irrep_count(self) -> int:
        return 0 if self.character_table is None else len(self.character_table)

    def irrep_dimension(self, s: int) -> int:
        # chi(e) is the dimension of the irrep.
        return round(self.character_table[s][self.identity_index].real)

    def is_trivial_irrep(self, s: int) -> bool:
        return all(abs(c - 1) <= 1e-12 for c in self.character_table[s])

    def character_column_sum(self, g: int) -> complex:
        """sum_s d_s * chi_s(g); equals |G| at the unit and 0 elsewhere
        whenever the character table is complete."""
        return sum(
            self.irrep_dimension(s) * self.character_table[s][g]
            for s in range(self.irrep_count())
        )


def cyclic_group(n: int) -> GroupSpec:
    """Z_n, named "Z<n>", with its n one-dimensional irreps
    chi_j(k) = exp(2*pi*i*j*k/n)."""
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    omega = 2j * cmath.pi / n
    chars = tuple(
        tuple(_snap(cmath.exp(omega * ((j * k) % n))) for k in range(n))
        for j in range(n)
    )
    return GroupSpec(f"Z{n}", n, table, 0, chars)


def _snap(z: complex) -> complex:
    """Snap real/imaginary parts within 1e-12 of an integer so that roots of
    unity like -1 and i come out exact."""

    def part(x):
        r = round(x)
        return float(r) if abs(x - r) <= 1e-12 else x

    return complex(part(z.real), part(z.imag))


Z2 = cyclic_group(2)
