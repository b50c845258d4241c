import numpy as np
import pytest

from grover_lab.diagram import make_generator, validate
from grover_lab.errors import InvalidArgumentError
from grover_lab.grover_diagram import (
    build_grover_diagram,
    diffusion_box,
    indicator_box,
    oracle_diagram,
    register_space,
    sigma_sum_diagram,
)
from grover_lab.simulator import OracleFunction, grover_run, optimal_iterations
from grover_lab.spaces import set_space
from grover_lab.tensor_eval import evaluate, scalar_of

from conftest import assert_close


def test_oracle_diagram_is_phase_flip():
    s = register_space(2)
    d = oracle_diagram(indicator_box(s, {3}))
    assert_close(evaluate(d).matrix, np.diag([1, 1, 1, -1]))


def test_diffusion_box_matrix():
    s = register_space(2)
    m = evaluate(make_generator(diffusion_box(s))).matrix
    assert_close(m, -np.eye(4) + 0.5)


def test_single_iteration_n2_hits_marked_element():
    s = register_space(2)
    d = build_grover_diagram(2, indicator_box(s, {3}), 1)
    assert validate(d).ok
    amps = evaluate(d).matrix[:, 0]
    assert_close(amps, [0, 0, 0, 1], tol=1e-10)


def test_zero_iterations_rejected():
    s = register_space(2)
    with pytest.raises(InvalidArgumentError):
        build_grover_diagram(2, indicator_box(s, {3}), 0)


def test_wrong_domain_dimension_rejected():
    s = register_space(3)
    with pytest.raises(InvalidArgumentError):
        build_grover_diagram(2, indicator_box(s, {0}), 1)


def test_marked_set_validation():
    s = register_space(2)
    with pytest.raises(InvalidArgumentError):
        indicator_box(s, set())
    with pytest.raises(InvalidArgumentError):
        indicator_box(s, {4})


def test_two_iterations_n3_matches_simulator():
    s = register_space(3)
    d = build_grover_diagram(3, indicator_box(s, {0}), 2)
    probs = np.abs(evaluate(d).matrix[:, 0]) ** 2
    table = grover_run(3, OracleFunction.single(3, 0), 2)
    assert_close(probs, table.probabilities, tol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagram_matches_simulator_across_k(n):
    s = register_space(n)
    x0 = 2**n - 1
    for k in range(1, 5):
        d = build_grover_diagram(n, indicator_box(s, {x0}), k)
        probs = np.abs(evaluate(d).matrix[:, 0]) ** 2
        table = grover_run(n, OracleFunction.single(n, x0), k)
        assert_close(probs, table.probabilities, tol=1e-10)


@pytest.mark.parametrize("n", range(6, 11))
@pytest.mark.parametrize("m", [1, 2])
def test_diagram_matches_ancilla_simulator_at_paper_k(n, m):
    N = 2**n
    marked = {N - 1} if m == 1 else {3, N // 2 + 1}
    k = optimal_iterations(n).paper_mode
    d = build_grover_diagram(n, indicator_box(register_space(n), marked), k)
    probs = np.abs(evaluate(d).matrix[:, 0]) ** 2
    table = grover_run(n, OracleFunction(n, frozenset(marked)), k, oracle_mode="ancilla")
    assert_close(probs, table.probabilities, tol=1e-10)


def test_sigma_sum_diagram_value():
    s = set_space("S", 8)
    assert scalar_of(sigma_sum_diagram(indicator_box(s, {0}))) == pytest.approx(6.0, abs=1e-12)
    assert scalar_of(sigma_sum_diagram(indicator_box(s, {0, 1, 2}))) == pytest.approx(
        2.0, abs=1e-12
    )
