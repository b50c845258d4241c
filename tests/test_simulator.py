import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_lab import simulator
from grover_lab.errors import DimensionCapError, InvalidArgumentError
from grover_lab.simulator import (
    OracleFunction,
    ProbabilityTable,
    StateVector,
    apply_diffusion,
    apply_oracle,
    closed_form_marked_prob,
    grover_amplitudes,
    grover_run,
    optimal_iterations,
    uniform_state,
)

from conftest import assert_close
from oracles import brute_force_probs, exact_grover_probs


def random_state(rng, n):
    amps = np.array(
        [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2**n)]
    )
    return StateVector(n, amps / np.linalg.norm(amps))


def test_uniform_state_amplitudes():
    assert_close(uniform_state(1).amplitudes, [1 / math.sqrt(2)] * 2)
    assert_close(uniform_state(2).amplitudes, [0.5] * 4)


def test_uniform_state_cap():
    with pytest.raises(DimensionCapError):
        uniform_state(25)
    with pytest.raises(InvalidArgumentError):
        uniform_state(0)


def test_oracle_function_invariants():
    with pytest.raises(InvalidArgumentError):
        OracleFunction(2, frozenset())
    with pytest.raises(InvalidArgumentError):
        OracleFunction(2, frozenset({4}))


def test_phase_oracle_on_uniform_state():
    s = apply_oracle(uniform_state(2), OracleFunction.single(2, 3))
    assert_close(s.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_oracle_fixes_states_with_no_marked_weight():
    amps = np.array([1.0, 0.0], dtype=complex)
    s = apply_oracle(StateVector(1, amps), OracleFunction.single(1, 1))
    assert_close(s.amplitudes, amps)


def test_oracle_does_not_mutate_input():
    state = uniform_state(2)
    before = state.amplitudes.copy()
    apply_oracle(state, OracleFunction.single(2, 0))
    apply_oracle(state, OracleFunction.single(2, 0), mode="ancilla")
    apply_diffusion(state)
    assert_close(state.amplitudes, before)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_phase_and_ancilla_modes_agree(n, seed):
    rng = random.Random(seed)
    state = random_state(rng, n)
    f = OracleFunction(n, frozenset(rng.sample(range(2**n), rng.randint(1, 2**n))))
    a = apply_oracle(state, f, mode="phase")
    b = apply_oracle(state, f, mode="ancilla")
    assert_close(a.amplitudes, b.amplitudes)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6))
def test_unitarity_on_random_states(n, seed):
    rng = random.Random(seed)
    state = random_state(rng, n)
    f = OracleFunction.single(n, rng.randrange(2**n))
    assert abs(apply_oracle(state, f).norm() - 1.0) < 1e-12
    assert abs(apply_oracle(state, f, mode="ancilla").norm() - 1.0) < 1e-12
    assert abs(apply_diffusion(state).norm() - 1.0) < 1e-12


def test_diffusion_fixes_uniform_state():
    s = uniform_state(3)
    assert_close(apply_diffusion(s).amplitudes, s.amplitudes)


def test_diffusion_after_oracle_n2():
    s = StateVector(2, np.array([0.5, 0.5, 0.5, -0.5], dtype=complex))
    assert_close(apply_diffusion(s).amplitudes, [0, 0, 0, 1])


def test_diffusion_on_basis_state_n1():
    s = StateVector(1, np.array([1.0, 0.0], dtype=complex))
    assert_close(apply_diffusion(s).amplitudes, [0, 1])


def test_grover_run_n2_one_iteration_is_exact():
    table = grover_run(2, OracleFunction.single(2, 3), 1)
    assert_close(table.probabilities, [0, 0, 0, 1], tol=1e-12)
    assert table.marked_probability == pytest.approx(1.0, abs=1e-12)


def test_grover_run_zero_iterations_is_uniform():
    table = grover_run(2, OracleFunction.single(2, 3), 0)
    assert_close(table.probabilities, [0.25] * 4)


def test_grover_run_matches_closed_form():
    table = grover_run(4, OracleFunction.single(4, 5), 3)
    want = math.sin(7 * math.asin(0.25)) ** 2
    assert table.probabilities[5] == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grover_run_matches_brute_force(n):
    for x0 in range(2**n):
        for k in range(0, 6):
            table = grover_run(n, OracleFunction.single(n, x0), k)
            assert_close(table.probabilities, brute_force_probs(n, {x0}, k), tol=1e-12)


def test_marked_element_symmetry():
    base = grover_run(3, OracleFunction.single(3, 0), 2).probabilities
    for x0 in range(8):
        probs = grover_run(3, OracleFunction.single(3, x0), 2).probabilities
        perm = np.array(base)
        perm[[0, x0]] = perm[[x0, 0]]
        assert_close(probs, perm, tol=1e-12)


def test_ancilla_mode_full_run_matches_phase_mode():
    for k in range(4):
        a = grover_run(3, OracleFunction.single(3, 5), k, oracle_mode="phase")
        b = grover_run(3, OracleFunction.single(3, 5), k, oracle_mode="ancilla")
        assert_close(a.probabilities, b.probabilities)


def test_max_unmarked_probability_matches_a_loop():
    rng = np.random.default_rng(5)
    probs = rng.random(16)
    probs[9] = 2.0  # the largest entry is marked, so it must be skipped
    table = ProbabilityTable(4, probs, (0, 3, 9, 15))
    want = max(p for x, p in enumerate(probs) if x not in (0, 3, 9, 15))
    assert table.max_unmarked_probability == want


def test_max_unmarked_probability_with_every_element_marked():
    table = grover_run(1, OracleFunction(1, frozenset({0, 1})), 1)
    assert table.max_unmarked_probability == 0.0


def _marked_set(n, m):
    """m marked elements spread over the register, the last one included."""
    N = 2**n
    return frozenset(N - 1 - (j * N) // m for j in range(m))


def _iteration_counts(n):
    counts = optimal_iterations(n)
    return sorted({0, counts.paper_mode, counts.optimal_mode})


def _exact_deviation(table, m, k):
    """Largest distance of the table's probabilities from the exact ones."""
    marked_p, unmarked_p = exact_grover_probs(table.n, m, k)
    want = np.full(2**table.n, float(unmarked_p))
    want[list(table.marked)] = float(marked_p)
    return float(np.max(np.abs(table.probabilities - want)))


@pytest.mark.parametrize("n", range(1, 21))
def test_two_amplitude_run_matches_exact_oracle(n):
    for m in (1, 2, 4):
        if m > 2**n:
            continue
        f = OracleFunction(n, _marked_set(n, m))
        for k in _iteration_counts(n):
            assert _exact_deviation(grover_run(n, f, k), m, k) <= 1e-12, (m, k)


@pytest.mark.parametrize("n", range(1, 21))
def test_grover_amplitudes_squared_are_the_table_entries(n):
    for m in (1, 2, 4):
        if m > 2**n:
            continue
        f = OracleFunction(n, _marked_set(n, m))
        for k in _iteration_counts(n):
            a, b = grover_amplitudes(n, m, k)
            want = np.full(2**n, b * b)
            want[sorted(f.marked)] = a * a
            assert np.array_equal(grover_run(n, f, k).probabilities, want), (m, k)


def test_two_amplitude_run_with_every_element_marked():
    f = OracleFunction(1, frozenset({0, 1}))
    for k in range(4):
        assert _exact_deviation(grover_run(1, f, k), 2, k) <= 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_ancilla_vector_run_matches_exact_oracle(n):
    for m in (1, 2, 4):
        if m > 2**n:
            continue
        f = OracleFunction(n, _marked_set(n, m))
        for k in _iteration_counts(n):
            table = grover_run(n, f, k, oracle_mode="ancilla")
            assert _exact_deviation(table, m, k) <= 1e-12, (m, k)


def test_ancilla_run_calls_apply_oracle_and_apply_diffusion_each_round(monkeypatch):
    calls = []

    def counted(name, func):
        return lambda *args, **kwargs: calls.append(name) or func(*args, **kwargs)

    for name in ("apply_oracle", "apply_diffusion"):
        monkeypatch.setattr(simulator, name, counted(name, getattr(simulator, name)))
    f = OracleFunction.single(4, 5)
    grover_run(4, f, 6, oracle_mode="ancilla")
    assert calls == ["apply_oracle", "apply_diffusion"] * 6
    assert f.rows is f.rows  # the marked rows are sorted once per oracle
    calls.clear()
    grover_run(4, f, 6)
    assert calls == []


def _mask_ancilla_run(n, marked, k):
    """The ancilla round written with a boolean mask over all 2^n rows: an
    independent reference that grover_run's by-index round matches bit for
    bit."""
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    flip = np.zeros(2**n, dtype=bool)
    flip[sorted(marked)] = True
    a = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    for _ in range(k):
        joint = np.kron(a, minus).reshape(-1, 2)
        joint[flip] = joint[flip, ::-1]
        a = joint @ minus
        a = 2.0 * np.mean(a) - a
    return np.abs(a) ** 2


@pytest.mark.parametrize("n", range(1, 13))
def test_ancilla_run_is_bit_identical_to_the_boolean_mask_round(n):
    N = 2**n
    for m in sorted({m for m in (1, 2, 4, N // 2, N) if m <= N}):
        marked = _marked_set(n, m)
        for k in sorted({0, 1, 3, optimal_iterations(n).paper_mode}):
            table = grover_run(n, OracleFunction(n, marked), k, oracle_mode="ancilla")
            assert np.array_equal(table.probabilities, _mask_ancilla_run(n, marked, k)), (m, k)


def test_grover_run_checks_its_arguments(monkeypatch):
    f = OracleFunction.single(3, 1)
    with pytest.raises(InvalidArgumentError):
        grover_run(3, f, -1)
    for k in (0, 2):
        with pytest.raises(InvalidArgumentError):
            grover_run(4, f, k)
        with pytest.raises(InvalidArgumentError):
            grover_run(3, f, k, oracle_mode="frobnicate")
    with pytest.raises(InvalidArgumentError):
        grover_run(0, f, 1)
    monkeypatch.setenv("GROVER_LAB_MAX_QUBITS", "2")
    with pytest.raises(DimensionCapError):
        grover_run(3, f, 1)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (5, 4), (8, 2), (12, 4), (20, 4)])
def test_closed_form_with_several_marked_elements(n, m):
    for k in _iteration_counts(n):
        marked_p, _ = exact_grover_probs(n, m, k)
        assert closed_form_marked_prob(n, k, m) == pytest.approx(float(m * marked_p), abs=1e-12)


def test_closed_form_marked_count_domain():
    for m in (0, 9):
        with pytest.raises(InvalidArgumentError):
            closed_form_marked_prob(3, 1, m)


def test_closed_form_values():
    assert closed_form_marked_prob(2, 1) == pytest.approx(1.0, abs=1e-12)
    assert closed_form_marked_prob(6, 0) == pytest.approx(2**-6, abs=1e-15)
    n4_best = closed_form_marked_prob(4, optimal_iterations(4).optimal_mode)
    assert n4_best > 0.9


def test_iteration_counts():
    assert optimal_iterations(4) == type(optimal_iterations(4))(4, 3)
    assert (optimal_iterations(2).paper_mode, optimal_iterations(2).optimal_mode) == (2, 1)
    assert (optimal_iterations(6).paper_mode, optimal_iterations(6).optimal_mode) == (8, 6)


def test_env_var_overrides_cap(monkeypatch):
    monkeypatch.setenv("GROVER_LAB_MAX_QUBITS", "3")
    with pytest.raises(DimensionCapError):
        uniform_state(4)
    uniform_state(3)
