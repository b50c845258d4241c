"""Closed-form unmarked-amplitude model and the three-way comparison.

The model gives, for a set of size N after k iterations, the unmarked
amplitude

    A = (1/N)^k * (1 - 2/N)^(k-1) * (N - 2)^(k-1) * (-1 + 4/N)

equivalently written as a difference of two summands.  The exponent k is
real valued and defaults to sqrt(N).  Both forms are computed in log space
(magnitude logarithms with the sign tracked separately) so large N does not
underflow.

The model's A^2 and the exact simulator's per-unmarked-element probability
demonstrably differ (N=4 at k=2: 0 versus 0.25); :func:`compare` therefore
reports the discrepancy and never asserts the two agree.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from .errors import DomainError, InvalidArgumentError
from .grover_diagram import build_grover_diagram, indicator_box, register_space
from .simulator import grover_amplitudes, max_qubits, optimal_iterations
from .tensor_eval import evaluate

DIAGRAM_MAX_QUBITS = 5  # diagram evaluation route is exercised up to here


@dataclass(frozen=True)
class PaperAmplitude:
    N: float
    k: float
    two_summand_value: float
    simplified_value: float

    @property
    def amplitude(self) -> float:
        return self.simplified_value

    @property
    def squared(self) -> float:
        return self.simplified_value**2


def sigma_sum(N: int, marked_count: int) -> int:
    """Signed sum over S of the oracle's sign: (N - m) - m = N - 2m.

    For a single marked element this is N - 2, matching the scalar value of
    the closed sign-sum diagram.
    """
    if not 1 <= marked_count < N:
        raise InvalidArgumentError(
            f"marked_count must be in [1, N), got {marked_count} for N={N}"
        )
    return N - 2 * marked_count


def paper_amplitude(N: float, k: Optional[float] = None) -> PaperAmplitude:
    """Evaluate the closed-form unmarked amplitude; k defaults to sqrt(N)."""
    if not 2 < N < math.inf:
        raise DomainError(f"N must be finite and > 2, got {N}")
    if k is None:
        k = math.sqrt(N)
    if not 0 <= k < math.inf:
        raise DomainError(f"k must be finite and >= 0, got {k}")

    # log-magnitude of the common factor (1/N)^k (1-2/N)^(k-1) (N-2)^(k-1),
    # written as (1/N) (1-2/N)^(2(k-1)) so that no two terms of size k log N
    # cancel
    l1 = -math.log(N) + 2.0 * (k - 1.0) * math.log1p(-2.0 / N)
    t1 = math.exp(l1)
    # second summand is t1 * (2/N) * (N-2) = t1 * (2 - 4/N)
    t2 = math.exp(l1 + math.log(2.0 - 4.0 / N))
    two_summand = t1 - t2

    tail = -1.0 + 4.0 / N
    if tail == 0.0:
        simplified = 0.0
    else:
        simplified = math.copysign(math.exp(l1 + math.log(abs(tail))), tail)
    return PaperAmplitude(float(N), float(k), two_summand, simplified)


def _ratio(r: Optional[float]):
    """A ratio as strict JSON can hold it: infinity becomes the string "inf"."""
    return "inf" if r is not None and math.isinf(r) else r


@dataclass
class ClaimRecord:
    n: int
    A: float
    A_squared: float
    total_unmarked: float
    simulator_marked: Optional[float] = None
    simulator_unmarked_each: Optional[float] = None
    discrepancy_ratio: Optional[float] = None
    marked_ge_half: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return {**asdict(self), "discrepancy_ratio": _ratio(self.discrepancy_ratio)}


@dataclass
class ClaimsReport:
    n_min: int
    n_max: int
    records: List[ClaimRecord] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "records": [r.to_json_dict() for r in self.records]}


def _discrepancy_ratio(sim_unmarked: float, a_squared: float) -> float:
    if a_squared == 0.0:
        return math.inf if sim_unmarked > 0.0 else 0.0
    return sim_unmarked / a_squared


def paper_claims_check(n_min: int = 2, n_max: int = 20) -> ClaimsReport:
    """Check the formula-level claims per n and, for every n within the
    simulator's register cap, record the simulated probabilities as well."""
    if not 2 <= n_min <= n_max <= 64:
        raise InvalidArgumentError("need 2 <= n_min <= n_max <= 64")
    cap = max_qubits()

    report = ClaimsReport(n_min, n_max)
    for n in range(n_min, n_max + 1):
        N = 2.0**n
        amp = paper_amplitude(N)
        rec = ClaimRecord(
            n=n,
            A=amp.amplitude,
            A_squared=amp.squared,
            total_unmarked=(2**n - 1) * amp.squared,
        )
        if n <= cap:
            a, b = grover_amplitudes(n, 1, optimal_iterations(n).paper_mode)
            rec.simulator_marked, rec.simulator_unmarked_each = a * a, b * b
            rec.discrepancy_ratio = _discrepancy_ratio(rec.simulator_unmarked_each, amp.squared)
            rec.marked_ge_half = rec.simulator_marked >= 0.5
        report.records.append(rec)

    by_n = {r.n: r for r in report.records}
    report.verdicts["A_squared_below_half"] = all(
        r.A_squared < 0.5 for r in report.records
    )
    report.verdicts["total_unmarked_below_half"] = all(
        r.total_unmarked < 0.5 for r in report.records
    )
    trend_anchor = max(n_min, 6)
    if trend_anchor in by_n and n_max in by_n and n_max > trend_anchor:
        report.verdicts["total_unmarked_vanishing"] = (
            by_n[n_max].total_unmarked < by_n[trend_anchor].total_unmarked
        )
    checked = [r for r in report.records if r.marked_ge_half is not None]
    report.verdicts["simulator_marked_ge_half"] = (
        all(r.marked_ge_half for r in checked) if checked else None
    )
    return report


@dataclass
class ComparisonReport:
    n: int
    k: int
    k_mode: str
    simulator_marked: float
    simulator_unmarked_each: float
    diagram_marked: Optional[float]
    diagram_unmarked_each: Optional[float]
    diagram_skipped: bool
    formula_k: Optional[float] = None  # the four formula fields stay None for N < 3
    formula_A: Optional[float] = None
    formula_A_squared: Optional[float] = None
    discrepancy_ratio: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {**asdict(self), "discrepancy_ratio": _ratio(self.discrepancy_ratio)}


def compare(n: int, k_mode: str = "paper") -> ComparisonReport:
    """Run the simulator, the diagram evaluation (for n small enough), and
    the closed-form model (for N > 2) at matching iteration counts, and
    report the gaps.  The marked element is 2^n - 1.  Formula-vs-simulator
    equality is measured, never asserted."""
    if k_mode not in ("paper", "optimal"):
        raise InvalidArgumentError(f"unknown k mode {k_mode!r}")
    counts = optimal_iterations(n)
    k = counts.paper_mode if k_mode == "paper" else counts.optimal_mode
    N = 2**n
    x0 = N - 1

    a, b = grover_amplitudes(n, 1, k)

    diagram_marked = None
    diagram_unmarked_each = None
    skipped = n > DIAGRAM_MAX_QUBITS
    if not skipped:
        space = register_space(n)
        d = build_grover_diagram(n, indicator_box(space, {x0}), k)
        probs = np.abs(evaluate(d).matrix[:, 0]) ** 2
        # read each off the vector: (1 - p)/(N - 1) cancels near p = 1
        diagram_marked, diagram_unmarked_each = float(probs[x0]), float(probs[0])

    report = ComparisonReport(
        n=n,
        k=k,
        k_mode=k_mode,
        simulator_marked=a * a,
        simulator_unmarked_each=b * b,
        diagram_marked=diagram_marked,
        diagram_unmarked_each=diagram_unmarked_each,
        diagram_skipped=skipped,
    )
    if N > 2:
        amp = paper_amplitude(float(N))  # real-valued exponent sqrt(N)
        report.formula_k, report.formula_A = amp.k, amp.amplitude
        report.formula_A_squared = amp.squared
        report.discrepancy_ratio = _discrepancy_ratio(b * b, amp.squared)
    return report
