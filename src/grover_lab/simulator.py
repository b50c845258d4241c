"""Exact state-vector simulation of the Grover search circuit.

Probabilities are exact (squared magnitudes); no sampling.  The observable
contract of every operation is pure: input states are never mutated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, InvalidArgumentError

DEFAULT_MAX_QUBITS = 24
MAX_QUBITS_ENV = "GROVER_LAB_MAX_QUBITS"


def max_qubits() -> int:
    """Simulator cap, overridable via the GROVER_LAB_MAX_QUBITS env var."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidArgumentError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidArgumentError(f"{MAX_QUBITS_ENV} must be >= 1")
    return value


@dataclass(frozen=True)
class OracleFunction:
    """Indicator function of the marked set: f(x) = 1 iff x is marked."""

    n: int
    marked: frozenset

    def __post_init__(self):
        if not self.marked:
            raise InvalidArgumentError("marked set must be non-empty")
        if any(not 0 <= x < 2**self.n for x in self.marked):
            raise InvalidArgumentError("marked index out of range")

    @classmethod
    def single(cls, n: int, x0: int) -> "OracleFunction":
        return cls(n, frozenset({x0}))

    def indicator(self) -> np.ndarray:
        ind = np.zeros(2**self.n, dtype=np.int64)
        ind[sorted(self.marked)] = 1
        return ind


@dataclass(frozen=True, eq=False)
class StateVector:
    n: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    n: int
    probabilities: np.ndarray
    marked: tuple

    @property
    def marked_probability(self) -> float:
        return float(sum(self.probabilities[x] for x in self.marked))

    @property
    def max_unmarked_probability(self) -> float:
        return float(np.delete(self.probabilities, self.marked).max(initial=0.0))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "probabilities": [float(p) for p in self.probabilities],
            "marked": sorted(self.marked),
            "marked_probability": self.marked_probability,
            "max_unmarked_probability": self.max_unmarked_probability,
        }


def uniform_state(n: int) -> StateVector:
    cap = max_qubits()
    if n < 1:
        raise InvalidArgumentError("qubit count must be >= 1")
    if n > cap:
        raise DimensionCapError(f"{n} qubits exceeds simulator cap {cap}")
    amps = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    return StateVector(n, amps)


def apply_oracle(state: StateVector, f: OracleFunction, mode: str = "phase") -> StateVector:
    """Oracle application.

    phase mode multiplies amplitude x by (-1)^f(x).  ancilla mode extends
    the register by a Z_2 wire in |->, applies |x>|y> -> |x>|y xor f(x)>,
    and strips the ancilla again (it stays a product factor).  Both modes
    agree on the register state.
    """
    if state.n != f.n:
        raise InvalidArgumentError(
            f"state has {state.n} qubits but oracle expects {f.n}"
        )
    ind = f.indicator()
    if mode == "phase":
        return StateVector(state.n, state.amplitudes * (1 - 2 * ind))
    if mode == "ancilla":
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        joint = np.kron(state.amplitudes, minus).reshape(-1, 2)
        flipped = joint.copy()
        flip = ind.astype(bool)
        flipped[flip] = joint[flip, ::-1]  # y -> y xor 1 where f(x) = 1
        register = flipped @ minus  # project the ancilla back out
        return StateVector(state.n, register)
    raise InvalidArgumentError(f"unknown oracle mode {mode!r}")


def apply_diffusion(state: StateVector) -> StateVector:
    """Inversion about the mean: a_x -> 2*mean - a_x, i.e. -I + 2A."""
    mean = np.mean(state.amplitudes)
    return StateVector(state.n, 2.0 * mean - state.amplitudes)


def grover_run(n: int, f: OracleFunction, k: int, oracle_mode: str = "phase") -> ProbabilityTable:
    """k Grover iterations from the uniform state; exact probabilities."""
    if k < 0:
        raise InvalidArgumentError("iteration count must be >= 0")
    state = uniform_state(n)
    for _ in range(k):
        state = apply_oracle(state, f, mode=oracle_mode)
        state = apply_diffusion(state)
    return ProbabilityTable(n, state.probabilities(), tuple(sorted(f.marked)))


def closed_form_marked_prob(n: int, k: int) -> float:
    """Textbook value sin^2((2k+1) * arcsin(2^(-n/2))) for a single marked
    element; internal oracle for the simulator."""
    theta = math.asin(2.0 ** (-n / 2))
    return math.sin((2 * k + 1) * theta) ** 2


@dataclass(frozen=True)
class IterationCounts:
    paper_mode: int
    optimal_mode: int


def optimal_iterations(n: int) -> IterationCounts:
    """Two iteration counts: round(sqrt(2^n)) (the count the amplitude
    formula uses) and floor(pi/4 * sqrt(2^n)) (the textbook optimum)."""
    if n < 1:
        raise InvalidArgumentError("qubit count must be >= 1")
    root = math.sqrt(2.0**n)
    paper = max(1, round(root))
    optimal = max(1, math.floor(math.pi / 4.0 * root))
    return IterationCounts(paper, optimal)
