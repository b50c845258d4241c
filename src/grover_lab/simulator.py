"""Exact state-vector simulation of the Grover search circuit.

Probabilities are exact (squared magnitudes); no sampling.  The observable
contract of every operation is pure: input states are never mutated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionCapError, DomainError, InvalidArgumentError

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

    @cached_property
    def rows(self) -> np.ndarray:
        """The marked elements as one sorted, read-only index array, built once."""
        rows = np.array(sorted(self.marked), dtype=np.intp)
        rows.flags.writeable = False
        return rows


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

    def summary(self) -> dict:
        """to_json_dict without the probability list, for writers that
        print the list themselves."""
        return {
            "n": self.n,
            "marked": sorted(self.marked),
            "marked_probability": self.marked_probability,
            "max_unmarked_probability": self.max_unmarked_probability,
        }

    def to_json_dict(self) -> dict:
        return {**self.summary(), "probabilities": [float(p) for p in self.probabilities]}


def _register_size(n: int) -> int:
    """N = 2^n for an n-qubit register within the simulator cap."""
    cap = max_qubits()
    if n < 1:
        raise InvalidArgumentError("qubit count must be >= 1")
    if n > cap:
        raise DimensionCapError(f"{n} qubits exceeds simulator cap {cap}")
    return 2**n


def uniform_state(n: int) -> StateVector:
    amps = np.full(_register_size(n), 2.0 ** (-n / 2), dtype=complex)
    return StateVector(n, amps)


def apply_oracle(state: StateVector, f: OracleFunction, mode: str = "phase") -> StateVector:
    """Oracle application, on the marked rows by index.

    phase mode multiplies amplitude x by (-1)^f(x).  ancilla mode extends
    the register by a Z_2 wire in |->, applies |x>|y> -> |x>|y xor f(x)>,
    and strips the ancilla again (it stays a product factor).  Both modes
    agree on the register state.
    """
    _check_oracle(state.n, f, mode)
    rows = f.rows
    if mode == "phase":
        amplitudes = state.amplitudes.copy()
        amplitudes[rows] = -amplitudes[rows]
        return StateVector(state.n, amplitudes)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    joint = np.kron(state.amplitudes, minus).reshape(-1, 2)
    joint[rows] = joint[rows, ::-1]  # y -> y xor 1 where f(x) = 1
    return StateVector(state.n, joint @ minus)  # project the ancilla back out


def _check_oracle(n: int, f: OracleFunction, mode: str) -> None:
    if n != f.n:
        raise InvalidArgumentError(f"state has {n} qubits but oracle expects {f.n}")
    if mode not in ("phase", "ancilla"):
        raise InvalidArgumentError(f"unknown oracle mode {mode!r}")


def apply_diffusion(state: StateVector) -> StateVector:
    """Inversion about the mean: a_x -> 2*mean - a_x, i.e. -I + 2A."""
    mean = np.mean(state.amplitudes)
    return StateVector(state.n, 2.0 * mean - state.amplitudes)


def grover_amplitudes(n: int, m: int, k: int) -> tuple:
    """The amplitudes (a, b) of each marked and each unmarked element after
    k phase-oracle Grover iterations from the uniform state, m of 2^n marked.

    From the uniform state all marked amplitudes stay equal, and so do all
    unmarked ones, so a round takes the marked a to 2*mean + a and the
    unmarked b to 2*mean - b, where mean = ((N - m)*b - m*a)/N.  It is
    computed as b - m*(a + b)/N, which keeps exact the rounds the vector
    computes exactly: with m = N/4 the first round leaves every unmarked
    amplitude exactly 0.
    """
    if k < 0:
        raise InvalidArgumentError("iteration count must be >= 0")
    N = _register_size(n)
    a = b = 2.0 ** (-n / 2)
    for _ in range(k):
        mean = b - m * (a + b) / N
        a, b = 2.0 * mean + a, 2.0 * mean - b
    return a, b


def grover_run(n: int, f: OracleFunction, k: int, oracle_mode: str = "phase") -> ProbabilityTable:
    """k Grover iterations from the uniform state; exact probabilities.
    Phase mode fills the table from grover_amplitudes; ancilla mode runs the
    whole state vector through apply_oracle and apply_diffusion each round
    and is the reference."""
    _check_oracle(n, f, oracle_mode)
    marked = tuple(f.rows.tolist())
    if oracle_mode == "phase":
        a, b = grover_amplitudes(n, len(marked), k)
        probabilities = np.full(2**n, b * b)
        probabilities[f.rows] = a * a
        return ProbabilityTable(n, probabilities, marked)
    if k < 0:
        raise InvalidArgumentError("iteration count must be >= 0")
    state = uniform_state(n)
    for _ in range(k):
        state = apply_diffusion(apply_oracle(state, f, oracle_mode))
    return ProbabilityTable(n, state.probabilities(), marked)


def closed_form_marked_prob(n: int, k: int, m: int = 1) -> float:
    """Marked-set probability sin^2((2k+1)*theta) with sin^2(theta) = m/N
    after k iterations with m of N = 2^n elements marked (Boyer, Brassard,
    Hoyer & Tapp); internal oracle for the simulator."""
    if not 1 <= m <= 2**n:
        raise InvalidArgumentError(f"need 1 <= m <= 2^n marked elements, got {m}")
    theta = math.asin(math.sqrt(m) * 2.0 ** (-n / 2))
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
    try:
        root = math.sqrt(2.0**n)
    except OverflowError as exc:
        raise DomainError(f"N = 2^{n} overflows a float") from exc
    paper = max(1, round(root))
    optimal = max(1, math.floor(math.pi / 4.0 * root))
    return IterationCounts(paper, optimal)
