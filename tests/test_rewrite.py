import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_lab.diagram import (
    EMPTY,
    Comult,
    Counit,
    Diagram,
    FunctionBox,
    GroupMult,
    GroupUnit,
    Identity,
    Mult,
    Point,
    PointEffect,
    RepBox,
    Unit,
    compose,
    make_generator,
    slice_cod,
    slice_dom,
    tensor,
)
from grover_lab.errors import NoMatchError
from grover_lab.rewrite import (
    apply_rule,
    check_rule_soundness,
    normalize,
    replay,
    rules_catalog,
)
from grover_lab.spaces import Z2, GroupSpec, cyclic_group, set_space
from grover_lab.tensor_eval import evaluate, scalar_of

from conftest import assert_close
from oracles import random_diagram

S = set_space("S", 3)

RULES = {r.name: r for r in rules_catalog()}


def test_catalog_contents():
    names = [r.name for r in rules_catalog()]
    assert names[:3] == ["copy-point", "delete-point", "point-inner-product"]
    assert "comonoid-hom-copy" in names and "comonoid-hom-delete" in names
    assert "special" in names and "associativity" in names
    assert "rep-merge" in names and "irrep-sum" in names
    # point extraction comes before the algebra laws
    assert names.index("point-inner-product") < names.index("special")


@pytest.mark.parametrize("rule", rules_catalog(), ids=lambda r: r.name)
def test_every_rule_is_sound(rule):
    report = check_rule_soundness(rule, [2, 3], n_random=20)
    assert report.passed, report.failures
    assert report.max_deviation <= 1e-12


def test_interfaces_match_on_instances():
    for rule in rules_catalog():
        for label, lhs, rhs in rule.instances([2, 3], random.Random(0), 5):
            assert lhs.input_spaces == rhs.input_spaces, (rule.name, label)
            assert lhs.output_spaces == rhs.output_spaces, (rule.name, label)


def test_soundness_certifies_the_rule_own_replacement():
    # a copy rule whose builder copies the wrong point fails its own check
    wrong = dataclasses.replace(
        RULES["copy-point"],
        rhs=lambda b, t: ((b[0], Point(b[0].space, (b[0].index + 1) % b[0].space.dimension)),),
    )
    report = check_rule_soundness(wrong, [2, 3])
    assert not report.passed
    assert report.instantiations == 5
    assert report.max_deviation == 1.0
    assert report.failures[0] == "|S|=2, x=0: deviation 1.000e+00"


def test_unmatched_example_is_a_labelled_failure():
    def family(sizes, rng, n_random):
        yield "matched", (Point(S, 0),), Comult(S)
        yield "space differs", (Point(S, 0),), Comult(set_space("T", 3))
        yield "wrong top", (Point(S, 0),), Counit(S)

    report = check_rule_soundness(dataclasses.replace(RULES["copy-point"], family=family), [2])
    assert report.to_json_dict()["pass"] is False
    assert report.instantiations == 3
    assert report.failures == [
        "space differs: not matched by its own rule",
        "wrong top: not matched by its own rule",
    ]


@pytest.mark.parametrize("rule", rules_catalog(), ids=lambda r: r.name)
def test_apply_rule_matches_every_instance_at_origin(rule):
    for label, lhs, rhs in rule.instances([2, 3], random.Random(0), 5):
        assert apply_rule(rule, lhs, (0, 0)) == rhs, label


def test_irrep_sum_values_for_z2():
    # trivial irrep sums to |G| = 2, sign irrep sums to 0
    for irrep, want in [(0, 2.0), (1, 0.0)]:
        _, lhs, rhs = [
            inst
            for inst in RULES["irrep-sum"].instances([2], random.Random(0), 1)
            if inst[0].endswith(f"irrep {irrep}")
        ][0]
        assert scalar_of(lhs) == pytest.approx(want, abs=1e-12)
        assert scalar_of(rhs) == pytest.approx(want, abs=1e-12)


def test_apply_delete_rule_gives_empty_diagram():
    d = compose(make_generator(Point(S, 0)), make_generator(Counit(S)))
    out = apply_rule(RULES["delete-point"], d, (0, 0))
    assert out == EMPTY


def test_apply_inner_product_rule_orthogonal_points():
    d = compose(make_generator(Point(S, 0)), make_generator(PointEffect(S, 1)))
    out = apply_rule(RULES["point-inner-product"], d, (0, 0))
    assert scalar_of(out) == 0.0


def test_apply_rule_no_match():
    d = compose(make_generator(Point(S, 0)), make_generator(Counit(S)))
    with pytest.raises(NoMatchError):
        apply_rule(RULES["copy-point"], d, (0, 0))
    with pytest.raises(NoMatchError):
        apply_rule(RULES["delete-point"], d, (0, 3))


def test_top_is_found_past_a_zero_input_generator_at_its_offset():
    # Point(S, 1) takes no inputs and sits at wire 0, left of the Comult
    d = Diagram((), (S, S, S), ((Point(S, 0),), (Point(S, 1), Comult(S))))
    final, trace = normalize(d)
    assert [(s.rule, s.slice_index, s.wire_offset) for s in trace.steps] == [
        ("copy-point", 0, 0)
    ]
    assert final == Diagram((), (S, S, S), ((Point(S, 1), Point(S, 0), Point(S, 0)),))


def test_apply_rule_finds_the_bottom_past_a_zero_output_generator_at_its_offset():
    # Counit(S) has no outputs, so the Point right of it also starts at wire 0
    d = Diagram((S,), (S, S), ((Counit(S), Point(S, 0)), (Comult(S),)))
    final, trace = normalize(d)
    assert [(s.rule, s.slice_index, s.wire_offset) for s in trace.steps] == [
        ("copy-point", 0, 0)
    ]
    assert apply_rule(RULES["copy-point"], d, (0, 0)) == final


def test_normalize_copy_then_delete():
    # point copied, one branch deleted: normal form is the point itself
    d = compose(
        make_generator(Point(S, 0)),
        compose(
            make_generator(Comult(S)),
            tensor(make_generator(Counit(S)), make_generator(Identity(S))),
        ),
    )
    final, trace = normalize(d)
    assert final == make_generator(Point(S, 0))
    assert [s.rule for s in trace.steps] == ["copy-point", "delete-point"]
    assert not trace.truncated


def test_normalize_fixpoint_has_empty_trace():
    d = make_generator(Point(S, 0))
    final, trace = normalize(d)
    assert final == d
    assert trace.steps == [] and not trace.truncated


def test_normalize_step_budget():
    d = compose(
        make_generator(Point(S, 0)),
        compose(
            make_generator(Comult(S)),
            tensor(make_generator(Counit(S)), make_generator(Identity(S))),
        ),
    )
    final, trace = normalize(d, max_steps=1)
    assert trace.truncated
    assert len(trace.steps) == 1
    # evaluation is still preserved on the partial result
    assert_close(evaluate(final).matrix, evaluate(d).matrix, tol=1e-10)


def test_replay_reproduces_final():
    s2 = set_space("S", 2)
    d = compose(
        make_generator(Point(s2, 1)),
        compose(
            make_generator(Comult(s2)),
            tensor(make_generator(PointEffect(s2, 1)), make_generator(Counit(s2))),
        ),
    )
    final, trace = normalize(d)
    assert replay(trace) == final


def test_normalize_deterministic():
    d = compose(
        make_generator(Point(S, 2)),
        compose(make_generator(Comult(S)), make_generator(Mult(S))),
    )
    f1, t1 = normalize(d)
    f2, t2 = normalize(d)
    assert f1 == f2
    assert t1.steps == t2.steps


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_normalize_preserves_evaluation(seed):
    d = random_diagram(random.Random(seed))
    final, trace = normalize(d, max_steps=200)
    assert_close(evaluate(final).matrix, evaluate(d).matrix, tol=1e-10)
    assert replay(trace) == final


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_normalize_terminates_within_budget(seed):
    d = random_diagram(random.Random(seed))
    _, trace = normalize(d, max_steps=500)
    assert not trace.truncated


S2, S3, T3 = set_space("S2", 2), set_space("S3", 3), set_space("T3", 3)
Z3 = cyclic_group(3)
# Z3 with its two non-trivial irreps swapped: the same space label, another group
Z3_RELABELLED = GroupSpec(
    "Z3", 3, Z3.multiplication_table, 0,
    (Z3.character_table[0], Z3.character_table[2], Z3.character_table[1]),
)
# Per rule, fragments whose generator classes fit but whose wires (or groups) differ.
UNEQUAL_WIRES = [
    ("copy-point", (Point(S3, 0),), Comult(T3)),
    ("delete-point", (Point(S3, 0),), Counit(T3)),
    ("point-inner-product", (Point(S3, 0),), PointEffect(T3, 0)),
    ("comonoid-hom-copy", (FunctionBox(S3, T3, (0, 1, 2)),), Comult(S3)),
    ("comonoid-hom-delete", (FunctionBox(S3, T3, (0, 1, 2)),), Counit(S3)),
    ("rep-merge", (GroupMult(Z2),), RepBox(Z3, 1)),
    ("rep-merge", (GroupMult(Z3),), RepBox(Z3_RELABELLED, 1)),
    ("rep-at-unit", (GroupUnit(Z2),), RepBox(Z3, 1)),
    ("rep-at-unit", (GroupUnit(Z3),), RepBox(Z3_RELABELLED, 1)),
    ("irrep-sum", (Unit(set_space("Z3", 3)),), RepBox(Z3, 0)),
    ("special", (Comult(S3),), Mult(T3)),
    ("unit-left", (Unit(S2), Identity(S3)), Mult(S2)),
    ("unit-right", (Identity(S2), Unit(S3)), Mult(S2)),
    ("associativity", (Mult(S2), Identity(S3)), Mult(S2)),
]


@pytest.mark.parametrize("name, bottom, top", UNEQUAL_WIRES, ids=[c[0] for c in UNEQUAL_WIRES])
def test_rule_refuses_fitting_classes_on_unequal_wires(name, bottom, top):
    rule = RULES[name]
    assert rule.fits_bottom(bottom) and isinstance(top, rule.top)
    assert len(top.dom) == len(slice_cod(bottom))
    d = Diagram(slice_dom(bottom), top.cod, (bottom, (top,)))
    with pytest.raises(NoMatchError):
        apply_rule(rule, d, (0, 0))


def test_every_rule_has_an_unequal_wires_case():
    assert {c[0] for c in UNEQUAL_WIRES} == set(RULES)


def test_normalize_reads_each_group_generator_space_once(monkeypatch):
    calls = []
    space = GroupSpec.space
    monkeypatch.setattr(GroupSpec, "space", lambda g: calls.append(g) or space(g))
    bottom = tuple(GroupMult(Z3) for _ in range(64))
    top = tuple(RepBox(Z3, i % 3) for i in range(64))
    d = Diagram(slice_dom(bottom), (), (bottom, top))
    _, trace = normalize(d)
    assert [s.rule for s in trace.steps] == ["rep-merge"] * 64
    assert len(calls) <= len(bottom) + len(top)
