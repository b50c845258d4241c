import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_lab.diagram import (
    Comult,
    Counit,
    Diagram,
    Identity,
    Mult,
    Point,
    PointEffect,
    RepBox,
    Spider,
    Unit,
    compose,
    dagger,
    identity_diagram,
    make_generator,
    tensor,
)
from grover_lab.errors import DimensionCapError, NotClosedError
from grover_lab.grover_diagram import build_grover_diagram, indicator_box, register_space
from grover_lab.spaces import Z2, set_space
from grover_lab.tensor_eval import eval_generator, evaluate, scalar_of

from conftest import assert_close
from oracles import random_diagram, slice_kronecker_matrix, split_diagram


def test_mult_matrix():
    s = set_space("S", 2)
    assert_close(eval_generator(Mult(s)), [[1, 0, 0, 0], [0, 0, 0, 1]])


def test_unit_is_all_ones_column():
    s = set_space("S", 3)
    assert_close(eval_generator(Unit(s)), [[1], [1], [1]])


def test_comult_counit_are_transposes():
    s = set_space("S", 3)
    assert_close(eval_generator(Comult(s)), eval_generator(Mult(s)).T)
    assert_close(eval_generator(Counit(s)), eval_generator(Unit(s)).T)


def test_sign_rep_at_element_one_is_minus_one():
    m = eval_generator(RepBox(Z2, 1))
    assert_close(m, [[1, -1]])


def test_point_inner_products():
    s = set_space("S", 4)
    same = compose(make_generator(Point(s, 0)), make_generator(PointEffect(s, 0)))
    other = compose(make_generator(Point(s, 0)), make_generator(PointEffect(s, 2)))
    assert scalar_of(same) == 1.0
    assert scalar_of(other) == 0.0


def test_counit_of_unit_is_set_size():
    s = set_space("S", 4)
    d = compose(make_generator(Unit(s)), make_generator(Counit(s)))
    assert scalar_of(d) == 4.0


def test_empty_diagram_is_scalar_one():
    from grover_lab.diagram import EMPTY

    assert scalar_of(EMPTY) == 1.0


def test_scalar_of_rejects_open_diagram():
    s = set_space("S", 2)
    with pytest.raises(NotClosedError):
        scalar_of(make_generator(Unit(s)))


def test_cap_applies_to_allocated_tensors_not_just_the_interface():
    s = set_space("S", 4)
    units = tensor(make_generator(Unit(s)), make_generator(Unit(s)))
    counits = tensor(make_generator(Counit(s)), make_generator(Counit(s)))
    d = compose(units, counits)  # 1x1 interface, 16-entry intermediate
    assert scalar_of(d, cap=16) == 16.0
    with pytest.raises(DimensionCapError):
        evaluate(d, cap=15)
    with pytest.raises(DimensionCapError):
        evaluate(make_generator(Comult(s)), cap=63)  # 16x4 matrix, 64 entries


def test_identity_wires_do_not_count_against_the_cap():
    s, t = set_space("S", 64), set_space("T", 2)
    d = Diagram(
        (t,),
        (t, t),
        (
            (Unit(s), Unit(s), Identity(t)),
            (Identity(s), Identity(s), Comult(t)),
            (Counit(s), Counit(s), Identity(t), Identity(t)),
        ),
    )
    # the middle slice as one Kronecker product would have 16384 x 8192 entries
    assert_close(evaluate(d).matrix, 64 * 64 * eval_generator(Comult(t)))


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 1024])  # Comult on 1024 states is 2^30 entries
def test_specialness_exact(dim):
    # m after m† is the identity, with exact 0/1 entries
    s = set_space("S", dim)
    d = compose(make_generator(Comult(s)), make_generator(Mult(s)))
    assert np.array_equal(evaluate(d).matrix, np.eye(dim))


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_frobenius_condition_exact(dim):
    s = set_space("S", dim)
    ident = identity_diagram([s])
    left = compose(
        tensor(ident, make_generator(Comult(s))),
        tensor(make_generator(Mult(s)), ident),
    )
    right = compose(make_generator(Mult(s)), make_generator(Comult(s)))
    assert np.array_equal(evaluate(left).matrix, evaluate(right).matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10))
def test_functoriality_over_random_splits(seed, cut):
    d = random_diagram(random.Random(seed))
    a, b = split_diagram(d, cut % (len(d.slices) + 1))
    assert_close(evaluate(compose(a, b)).matrix, evaluate(b).matrix @ evaluate(a).matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_monoidality_is_kronecker(seed_a, seed_b):
    a = random_diagram(random.Random(seed_a), max_slices=3)
    b = random_diagram(random.Random(seed_b), max_slices=3)
    t = tensor(a, b)
    assert_close(evaluate(t).matrix, np.kron(evaluate(a).matrix, evaluate(b).matrix))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_evaluate_matches_the_slice_kronecker_reference(seed):
    d = random_diagram(random.Random(seed))
    for dd in (d, dagger(d)):
        assert_close(evaluate(dd).matrix, slice_kronecker_matrix(dd))


def test_evaluate_builds_no_spider_matrix(monkeypatch):
    s = register_space(4)
    diagrams = [build_grover_diagram(4, indicator_box(s, {5}), 3)]
    diagrams += [random_diagram(random.Random(seed)) for seed in range(40)]
    expected = [slice_kronecker_matrix(d) for d in diagrams]

    def refuse(self):
        raise AssertionError(f"evaluate built the matrix of {self}")

    monkeypatch.setattr(Spider, "to_matrix", refuse)
    for d, want in zip(diagrams, expected):
        assert_close(evaluate(d).matrix, want, tol=1e-10)


def test_associativity_on_a_40_state_wire():
    s = set_space("S", 40)  # an identity on the 64000 input states would exceed the cap
    ident = identity_diagram([s])
    left = compose(tensor(make_generator(Mult(s)), ident), make_generator(Mult(s)))
    right = compose(tensor(ident, make_generator(Mult(s))), make_generator(Mult(s)))
    m = evaluate(left).matrix
    assert m.shape == (40, 40**3)
    assert np.array_equal(m, evaluate(right).matrix)
    assert np.count_nonzero(m) == 40
    assert all(m[i, i * 40 * 40 + i * 40 + i] == 1 for i in range(40))


def test_a_cut_past_the_einsum_labels_is_a_cap_error():
    w = set_space("W", 1)
    with pytest.raises(DimensionCapError, match="52 live wire labels"):
        evaluate(identity_diagram([w] * 53))
    assert evaluate(identity_diagram([w] * 52)).matrix.shape == (1, 1)
    units = Diagram((), (w,) * 60, (tuple(Unit(w) for _ in range(60)),))
    with pytest.raises(DimensionCapError):
        evaluate(units)
