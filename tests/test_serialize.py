import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_lab.diagram import (
    Diagram,
    GroupMult,
    GroupUnit,
    Identity,
    RepBox,
    compose,
    make_generator,
    tensor,
    validate,
)
from grover_lab.errors import (
    DomainError,
    InvalidArgumentError,
    InvalidGeneratorError,
    ParseError,
)
from grover_lab.grover_diagram import build_grover_diagram, indicator_box, register_space
from grover_lab.serialize import (
    VARIANTS,
    dumps,
    dumps_canonical,
    from_document,
    loads,
    to_document,
)
from grover_lab.spaces import Z2, cyclic_group, set_space


def test_document_shape():
    s = set_space("S", 2)
    d = make_generator(Identity(s))
    doc = to_document(d)
    assert doc["version"] == 1
    assert doc["inputs"] == ["S"] and doc["outputs"] == ["S"]
    assert doc["slices"] == [[{"variant": "Identity", "space": "S"}]]
    assert doc["spaces"] == [{"name": "S", "kind": "set", "dimension": 2}]


def test_group_payload_round_trip():
    z4 = cyclic_group(4)
    d = compose(make_generator(GroupMult(z4)), make_generator(RepBox(z4, 3)))
    back = loads(dumps(d))
    assert back == d
    box = back.slices[1][0]
    assert box.group.multiplication_table == z4.multiplication_table
    assert box.group.character_table == z4.character_table


def _two_group_diagram():
    from test_diagram import _s3

    return tensor(make_generator(GroupMult(cyclic_group(4))), make_generator(GroupUnit(_s3())))


def test_groups_with_and_without_characters_round_trip():
    d = _two_group_diagram()
    text = dumps(d)
    assert dumps(loads(text)) == text
    assert loads(text) == d
    assert [s["group"]["character_table"] is None for s in json.loads(text)["spaces"]] == [
        True, False
    ]


def test_grover_diagram_round_trip():
    s = register_space(3)
    d = build_grover_diagram(3, indicator_box(s, {5}), 2)
    assert loads(dumps(d)) == d


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_random_diagram_round_trip(seed):
    from oracles import random_diagram

    d = random_diagram(random.Random(seed))
    back = from_document(to_document(d))
    assert back == d
    assert validate(back).ok


def test_dumps_is_idempotent_under_parse():
    s = register_space(2)
    d = build_grover_diagram(2, indicator_box(s, {1}), 1)
    text = dumps(d)
    assert dumps(loads(text)) == text


def test_loads_reports_position_on_bad_json():
    with pytest.raises(ParseError, match="line 1, column 2"):
        loads("{bad json")


def test_unknown_version_rejected():
    with pytest.raises(ParseError, match="version"):
        from_document({"version": 99, "spaces": [], "inputs": [], "outputs": [], "slices": []})


def test_unknown_variant_rejected():
    doc = {
        "version": 1,
        "spaces": [{"name": "S", "kind": "set", "dimension": 2}],
        "inputs": ["S"],
        "outputs": ["S"],
        "slices": [[{"variant": "Nonsense", "space": "S"}]],
    }
    with pytest.raises(ParseError, match="variant"):
        from_document(doc)


def test_missing_key_rejected():
    with pytest.raises(ParseError, match="missing key"):
        from_document({"version": 1, "spaces": [], "inputs": []})


def test_dangling_space_reference_rejected():
    doc = {
        "version": 1,
        "spaces": [],
        "inputs": ["mystery"],
        "outputs": [],
        "slices": [],
    }
    with pytest.raises(ParseError):
        from_document(doc)


def test_name_collision_between_distinct_spaces_rejected():
    a = set_space("S", 2)
    b = set_space("S", 3)
    d = Diagram((a, b), (a, b), ((Identity(a), Identity(b)),))
    with pytest.raises(InvalidArgumentError, match="share the name"):
        to_document(d)


def test_name_collision_between_distinct_groups_rejected():
    from test_rewrite import Z3, Z3_RELABELLED

    assert Z3_RELABELLED.space() == Z3.space()
    d = tensor(make_generator(GroupUnit(Z3)), make_generator(GroupUnit(Z3_RELABELLED)))
    with pytest.raises(InvalidArgumentError, match="two distinct groups share the name 'Z3'"):
        to_document(d)


def test_name_collision_between_group_and_set_space_rejected():
    # no interface wires: only the group names its space
    d = Diagram((), (), ((Identity(set_space("Z2", 2)), GroupUnit(Z2)),))
    with pytest.raises(InvalidArgumentError, match="two distinct spaces share the name 'Z2'"):
        to_document(d)


NAME_KEYS = ("space", "domain", "codomain", "left", "right", "group")  # one name each
NAME_LIST_KEYS = ("dom", "cod")  # a list of names each


def _assert_spaces_are_those_referenced(d):
    """The space records of `d`'s document are exactly the names its inputs,
    outputs and generator records reference, and those with a group record
    exactly the groups referenced; read off the JSON alone."""
    doc = json.loads(dumps(d))
    spaces, groups = set(doc["inputs"] + doc["outputs"]), set()
    for rec in (rec for sl in doc["slices"] for rec in sl):
        spaces.update(rec[k] for k in NAME_KEYS if k in rec)
        spaces.update(name for k in NAME_LIST_KEYS for name in rec.get(k, ()))
        if "group" in rec:
            groups.add(rec["group"])
    assert [s["name"] for s in doc["spaces"]] == sorted(spaces)
    assert {s["name"] for s in doc["spaces"] if "group" in s} == groups


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_random_document_lists_the_spaces_it_references(seed):
    from oracles import random_diagram

    _assert_spaces_are_those_referenced(random_diagram(random.Random(seed)))


@pytest.mark.parametrize(
    "diagram",
    [
        *(build_grover_diagram(n, indicator_box(register_space(n), {n - 1}), 1) for n in (2, 3, 4)),
        _two_group_diagram(),
        compose(make_generator(GroupUnit(Z2)), make_generator(RepBox(Z2, 1))),
    ],
    ids=["grover-2", "grover-3", "grover-4", "two-groups", "closed-group"],
)
def test_document_lists_the_spaces_and_groups_it_references(diagram):
    _assert_spaces_are_those_referenced(diagram)


def test_sign_rep_survives_round_trip_numerically():
    from grover_lab.tensor_eval import evaluate

    d = make_generator(RepBox(Z2, 1))
    back = loads(dumps(d))
    assert (evaluate(back).matrix == evaluate(d).matrix).all()


def test_dumps_canonical_rejects_non_finite_numbers():
    for x in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            dumps_canonical({"A": x})


def test_non_object_generator_record_is_a_parse_error():
    with pytest.raises(ParseError, match="malformed"):
        from_document(_document(5, []))


# One record per generator variant, written out by hand, with the spaces it
# names.  The record format is the dataclass fields; CustomBox's spaces are
# keyed "dom" and "cod".
SPACE_RECORDS = {
    "S": {"dimension": 2, "kind": "set", "name": "S"},
    "T": {"dimension": 3, "kind": "set", "name": "T"},
    "Z2": {
        "dimension": 2,
        "group": {
            "character_table": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]],
            "identity_index": 0,
            "multiplication_table": [[0, 1], [1, 0]],
            "order": 2,
        },
        "kind": "group",
        "name": "Z2",
    },
}
RECORDS = [
    ('{"space": "S", "variant": "Identity"}', ["S"]),
    ('{"space": "S", "variant": "Mult"}', ["S"]),
    ('{"space": "T", "variant": "Unit"}', ["T"]),
    ('{"space": "T", "variant": "Comult"}', ["T"]),
    ('{"space": "S", "variant": "Counit"}', ["S"]),
    ('{"codomain": "T", "domain": "S", "table": [2, 0], "variant": "FunctionBox"}', ["S", "T"]),
    ('{"index": 1, "space": "T", "variant": "Point"}', ["T"]),
    ('{"index": 2, "space": "T", "variant": "PointEffect"}', ["T"]),
    ('{"group": "Z2", "variant": "GroupMult"}', ["Z2"]),
    ('{"group": "Z2", "variant": "GroupUnit"}', ["Z2"]),
    ('{"dimension": 1, "group": "Z2", "irrep_index": 1, "variant": "RepBox"}', ["Z2"]),
    (
        '{"cod": ["S"], "dom": [], "matrix": [[[1.0, -0.0]], [[0.5, -2.0]]], '
        '"name": "b", "variant": "CustomBox"}',
        ["S"],
    ),
    ('{"left": "S", "right": "T", "variant": "Swap"}', ["S", "T"]),
]


def _document(record, names):
    return {
        "inputs": [],
        "outputs": [],
        "slices": [[record]],
        "spaces": [SPACE_RECORDS[n] for n in names],
        "version": 1,
    }


def test_records_cover_every_variant():
    assert sorted(json.loads(r)["variant"] for r, _ in RECORDS) == sorted(VARIANTS)


@pytest.mark.parametrize("variant", ["Spider", "Generator"])
def test_abstract_generator_classes_are_not_variants(variant):
    rec = {"variant": variant, "space": "S"}
    with pytest.raises(ParseError, match="unknown generator variant") as exc:
        from_document(_document(rec, ["S"]))
    assert exc.value.code == "parse-error"


@pytest.mark.parametrize(
    "record, names", RECORDS, ids=[json.loads(r)["variant"] for r, _ in RECORDS]
)
def test_record_round_trips_to_the_same_text(record, names):
    text = json.dumps(_document(json.loads(record), names), sort_keys=True, indent=2) + "\n"
    assert dumps(loads(text)) == text


def test_record_may_omit_a_field_with_a_default():
    rec = {"group": "Z2", "irrep_index": 1, "variant": "RepBox"}
    assert from_document(_document(rec, ["Z2"])).slices[0][0].dimension == 1


@pytest.mark.parametrize(
    "matrix, error",
    [
        ([[[1, 0], [0, 0]], [[1, 0]]], InvalidGeneratorError),  # ragged
        ([[[1], [0, 0]], [[0, 0], [1, 0]]], ParseError),  # short pair
        ([[["a", 0], [0, 0]], [[0, 0], [1, 0]]], ParseError),  # string entry
        ([[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]], InvalidGeneratorError),  # 2x3
    ],
    ids=["ragged", "short-pair", "string-entry", "wrong-shape"],
)
def test_malformed_matrix_record_error_codes(matrix, error):
    rec = {"variant": "CustomBox", "name": "b", "dom": ["S"], "cod": ["S"], "matrix": matrix}
    with pytest.raises(error):
        from_document(_document(rec, ["S"]))
