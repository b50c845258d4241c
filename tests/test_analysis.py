import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_lab.analysis import (
    compare,
    paper_amplitude,
    paper_claims_check,
    sigma_sum,
)
from grover_lab.errors import DimensionCapError, DomainError, InvalidArgumentError
from grover_lab.grover_diagram import indicator_box, sigma_sum_diagram
from grover_lab.simulator import optimal_iterations
from grover_lab.spaces import set_space
from grover_lab.tensor_eval import scalar_of

from oracles import exact_grover_probs


def test_sigma_sum_examples():
    assert sigma_sum(4, 1) == 2
    assert sigma_sum(16, 1) == 14
    assert sigma_sum(8, 4) == 0


def test_sigma_sum_validation():
    with pytest.raises(InvalidArgumentError):
        sigma_sum(4, 0)
    with pytest.raises(InvalidArgumentError):
        sigma_sum(4, 4)


@pytest.mark.parametrize("N", [3, 4, 7, 16, 64])
def test_sigma_sum_agrees_with_diagram(N):
    s = set_space("S", N)
    d = sigma_sum_diagram(indicator_box(s, {0}))
    assert scalar_of(d) == pytest.approx(sigma_sum(N, 1), abs=1e-12)


def test_amplitude_vanishes_at_N4():
    amp = paper_amplitude(4.0, 2.0)
    assert amp.simplified_value == 0.0
    assert amp.two_summand_value == pytest.approx(0.0, abs=1e-15)


def test_amplitude_N16_k4():
    amp = paper_amplitude(16.0, 4.0)
    assert amp.amplitude == pytest.approx(-0.021037280559539795, rel=1e-10)
    assert amp.squared == pytest.approx(amp.amplitude**2, rel=1e-12)


def test_amplitude_default_k_is_sqrt_N():
    amp = paper_amplitude(16.0)
    assert amp.k == 4.0


def test_amplitude_domain():
    with pytest.raises(DomainError):
        paper_amplitude(2.0)
    with pytest.raises(DomainError):
        paper_amplitude(1.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 20), st.sampled_from(["one", "sqrt", "twice"]))
def test_two_summand_form_matches_simplified(n, mode):
    N = 2.0**n
    k = {"one": 1.0, "sqrt": math.sqrt(N), "twice": 2.0 * math.sqrt(N)}[mode]
    amp = paper_amplitude(N, k)
    scale = max(abs(amp.simplified_value), 1e-300)
    assert abs(amp.two_summand_value - amp.simplified_value) / scale < 1e-12


def _closed_form_amplitude(N, k):
    """-(1/N) (1-2/N)^(2(k-1)) (1-4/N) in 50-digit decimal arithmetic, with
    ln(1-2/N) summed as a series so that 2/N is not lost next to 1."""
    with localcontext() as ctx:
        ctx.prec = 50
        N, k = Decimal(N), Decimal(k)
        x = 2 / N
        log1p = -sum(x**m / m for m in range(1, 80))
        return -(1 / N) * (2 * (k - 1) * log1p).exp() * (1 - 4 / N)


@pytest.mark.parametrize("n", [10, 30, 60, 200, 1023])
def test_amplitude_keeps_relative_precision_at_large_n(n):
    N = 2.0**n
    amp = paper_amplitude(N)
    want = _closed_form_amplitude(N, amp.k)
    assert abs((Decimal(amp.simplified_value) - want) / want) < Decimal("1e-12")


def test_amplitude_decays_roughly_like_inverse_N():
    # |A| ~ c/N for large N, so N*|A| should stabilize
    vals = [2.0**n * abs(paper_amplitude(2.0**n).amplitude) for n in (14, 16, 18, 20)]
    assert max(vals) / min(vals) < 1.2


def test_claims_report_formula_verdicts():
    report = paper_claims_check(2, 20)
    assert report.verdicts["A_squared_below_half"] is True
    assert report.verdicts["total_unmarked_below_half"] is True
    assert report.verdicts["total_unmarked_vanishing"] is True


def test_claims_report_simulator_verdict_is_measured_false():
    # exact runs at n=2 and n=3 land below 1/2, so the blanket success
    # verdict over the whole range comes out false
    report = paper_claims_check(2, 12)
    by_n = {r.n: r for r in report.records}
    assert by_n[2].simulator_marked == pytest.approx(0.25, abs=1e-12)
    assert by_n[3].simulator_marked == pytest.approx(0.3301, abs=5e-4)
    assert by_n[2].marked_ge_half is False
    assert by_n[3].marked_ge_half is False
    assert all(by_n[n].marked_ge_half for n in range(4, 13))
    assert report.verdicts["simulator_marked_ge_half"] is False


def test_claims_simulates_past_n_12_exactly():
    by_n = {r.n: r for r in paper_claims_check(2, 20).records}
    for n in range(13, 21):
        marked, unmarked = exact_grover_probs(n, 1, optimal_iterations(n).paper_mode)
        assert by_n[n].simulator_marked == pytest.approx(float(marked), rel=1e-12, abs=0)
        assert by_n[n].simulator_unmarked_each == pytest.approx(float(unmarked), rel=1e-12, abs=0)


def test_register_cap_is_the_only_simulator_bound(monkeypatch):
    monkeypatch.setenv("GROVER_LAB_MAX_QUBITS", "3")
    report = paper_claims_check(2, 6)
    assert [r.n for r in report.records if r.simulator_marked is not None] == [2, 3]
    with pytest.raises(DimensionCapError):
        compare(4)


def test_claims_total_unmarked_monotone_decreasing_for_even_n():
    report = paper_claims_check(6, 20)
    by_n = {r.n: r for r in report.records}
    for n in range(6, 20, 2):
        assert by_n[n + 2].total_unmarked < by_n[n].total_unmarked


def test_claims_range_validation():
    with pytest.raises(InvalidArgumentError):
        paper_claims_check(5, 3)
    with pytest.raises(InvalidArgumentError):
        paper_claims_check(1, 4)


def test_compare_n2_paper_mode():
    rep = compare(2)
    assert rep.k == 2
    assert rep.simulator_marked == pytest.approx(0.25, abs=1e-12)
    assert not rep.diagram_skipped
    assert rep.diagram_marked == pytest.approx(rep.simulator_marked, abs=1e-10)
    assert rep.formula_A == 0.0
    assert math.isinf(rep.discrepancy_ratio)


def test_compare_n4_reference_values():
    rep = compare(4)
    assert rep.k == 4
    assert rep.simulator_unmarked_each == pytest.approx(0.027886390686035156, abs=1e-12)
    assert rep.formula_A_squared == pytest.approx(4.425671733407903e-4, rel=1e-9)
    assert rep.discrepancy_ratio == pytest.approx(63.0105266857, rel=1e-8)
    assert rep.diagram_unmarked_each == pytest.approx(
        rep.simulator_unmarked_each, abs=1e-10
    )


def test_compare_diagram_skipped_above_limit():
    rep = compare(6)
    assert rep.diagram_skipped
    assert rep.diagram_marked is None


def test_compare_optimal_mode():
    rep = compare(4, k_mode="optimal")
    assert rep.k == 3
    assert rep.simulator_marked > 0.9


@pytest.mark.parametrize("k_mode", ["paper", "optimal"])
def test_simulator_unmarked_each_is_exact_to_1e_12(k_mode):
    # near the optimum (1 - p)/(N - 1) cancels; the table's own b^2 does not
    claims = {r.n: r for r in paper_claims_check(2, 12).records}
    for n in range(2, 13):
        rep = compare(n, k_mode=k_mode)
        _, exact = exact_grover_probs(n, 1, rep.k)
        assert rep.simulator_unmarked_each == pytest.approx(float(exact), rel=1e-12, abs=0)
        if k_mode == "paper":
            assert claims[n].simulator_unmarked_each == rep.simulator_unmarked_each


@pytest.mark.parametrize("k_mode", ["paper", "optimal"])
def test_diagram_unmarked_each_is_exact_to_2e_14(k_mode):
    # (sum - p)/(N - 1) read 1.4e-13 off at n = 5, optimal k
    for n in range(2, 6):
        rep = compare(n, k_mode=k_mode)
        _, exact = exact_grover_probs(n, 1, rep.k)
        assert rep.diagram_unmarked_each == pytest.approx(float(exact), rel=2e-14, abs=0)


def test_compare_rejects_unknown_mode():
    with pytest.raises(InvalidArgumentError):
        compare(4, k_mode="banana")


def test_report_json_shapes():
    rep = compare(2).to_json_dict()
    assert rep["discrepancy_ratio"] == "inf"
    claims = paper_claims_check(2, 4).to_json_dict()
    assert {"n_min", "n_max", "records", "verdicts"} <= set(claims)
    assert claims["records"][0]["n"] == 2
