"""Versioned JSON serialization of diagrams.

Document shape:

    {"version": 1,
     "spaces": [{"name", "kind", "dimension", "group"?}, ...],
     "inputs": [space names], "outputs": [space names],
     "slices": [[generator records], ...]}

A generator record carries a "variant" field with the generator class name
and one field per dataclass field of that class, encoded by the field's
type: spaces and groups by name, index tables as lists, and a CustomBox
matrix as rows of [re, im] pairs.  Printing is canonical (sorted keys), so
parse-then-print is idempotent.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from typing import Tuple, get_type_hints

import numpy as np

from .diagram import Diagram, Generator, Spaces
from .errors import DomainError, InvalidArgumentError, ParseError
from .spaces import GroupSpec, SpaceLabel

FORMAT_VERSION = 1


def _leaves(cls):
    """The concrete generator classes below ``cls``: a class with subclasses
    of its own, such as Spider, is not a variant."""
    subs = cls.__subclasses__()
    return [leaf for sub in subs for leaf in _leaves(sub)] if subs else [cls]


VARIANTS = {cls.variant: cls for cls in _leaves(Generator)}
# (field name, field type, whether the field has a default) per variant
_FIELDS = {
    cls: [(f.name, get_type_hints(cls)[f.name], f.default is not MISSING) for f in fields(cls)]
    for cls in VARIANTS.values()
}

_ENCODE = {
    SpaceLabel: lambda s: s.name,
    GroupSpec: lambda g: g.name,
    Spaces: lambda ss: [s.name for s in ss],
    Tuple[int, ...]: list,
    np.ndarray: lambda m: np.stack((m.real, m.imag), -1).tolist(),
}


def _decoders(spaces, groups):
    """Field decoders by type, resolving names against one document."""
    return {
        SpaceLabel: spaces.__getitem__,
        GroupSpec: groups.__getitem__,
        Spaces: lambda names: tuple(spaces[n] for n in names),
        int: _int,
        Tuple[int, ...]: lambda vs: tuple(map(_int, vs)),
        np.ndarray: lambda rows: [[_parse_c(x) for x in row] for row in rows],
    }


def _same(v):
    return v


def _int(v) -> int:
    """A JSON integer; floats and booleans are refused."""
    if type(v) is not int:
        raise ParseError(f"expected an integer, got {v!r}")
    return v


def _c(z: complex):
    return [z.real, z.imag]


def _parse_c(v) -> complex:
    return complex(v[0], v[1])


def _collect_spaces(d: Diagram):
    spaces = {}
    groups = {}

    def see_space(s: SpaceLabel):
        prev = spaces.get(s.name)
        if prev is not None and prev != s:
            raise InvalidArgumentError(
                f"two distinct spaces share the name {s.name!r}"
            )
        spaces[s.name] = s

    def see_group(g: GroupSpec):
        prev = groups.get(g.name)
        if prev is not None and prev != g:
            raise InvalidArgumentError(f"two distinct groups share the name {g.name!r}")
        groups[g.name] = g
        see_space(g.space())

    for s in d.input_spaces + d.output_spaces:
        see_space(s)
    for sl in d.slices:
        for g in sl:
            for s in g.dom + g.cod:
                see_space(s)
            for name, tp, _ in _FIELDS[type(g)]:
                if tp is GroupSpec:
                    see_group(getattr(g, name))
    return spaces, groups


def _space_record(s: SpaceLabel, groups) -> dict:
    rec = {"name": s.name, "kind": s.kind, "dimension": s.dimension}
    if s.name in groups:
        g = groups[s.name]
        rec["group"] = {
            "order": g.order,
            "multiplication_table": [list(r) for r in g.multiplication_table],
            "identity_index": g.identity_index,
            "character_table": None
            if g.character_table is None
            else [[_c(x) for x in row] for row in g.character_table],
        }
    return rec


def _generator_record(g) -> dict:
    rec = {"variant": g.variant}
    for name, tp, _ in _FIELDS[type(g)]:
        rec[name] = _ENCODE.get(tp, _same)(getattr(g, name))
    return rec


def to_document(d: Diagram) -> dict:
    spaces, groups = _collect_spaces(d)
    return {
        "version": FORMAT_VERSION,
        "spaces": [_space_record(spaces[name], groups) for name in sorted(spaces)],
        "inputs": [s.name for s in d.input_spaces],
        "outputs": [s.name for s in d.output_spaces],
        "slices": [[_generator_record(g) for g in sl] for sl in d.slices],
    }


def _parse_spaces(doc):
    spaces = {}
    groups = {}
    for rec in doc["spaces"]:
        s = SpaceLabel(rec["kind"], rec["name"], _int(rec["dimension"]))
        spaces[s.name] = s
        if "group" in rec and rec["group"] is not None:
            grec = rec["group"]
            chars = grec.get("character_table")
            g = GroupSpec(
                s.name,
                _int(grec["order"]),
                tuple(tuple(map(_int, r)) for r in grec["multiplication_table"]),
                _int(grec["identity_index"]),
                None
                if chars is None
                else tuple(tuple(_parse_c(x) for x in row) for row in chars),
            )
            groups[s.name] = g
    return spaces, groups


def _parse_generator(rec, decode):
    variant = rec.get("variant")
    cls = VARIANTS.get(variant)
    if cls is None:
        raise ParseError(f"unknown generator variant {variant!r}")
    try:
        return cls(**{
            name: decode.get(tp, _same)(rec[name])
            for name, tp, has_default in _FIELDS[cls]
            if name in rec or not has_default
        })
    except KeyError as exc:
        raise ParseError(f"generator record {rec!r} references unknown name {exc}") from exc


def from_document(doc: dict) -> Diagram:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {doc.get('version')!r}")
    try:
        spaces, groups = _parse_spaces(doc)
        inputs = tuple(spaces[name] for name in doc["inputs"])
        outputs = tuple(spaces[name] for name in doc["outputs"])
        decode = _decoders(spaces, groups)
        slices = tuple(tuple(_parse_generator(rec, decode) for rec in sl) for sl in doc["slices"])
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing key {exc} in diagram document") from exc
    except (AttributeError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed diagram document: {exc}") from exc
    return Diagram(inputs, outputs, slices)


def dumps_canonical(obj) -> str:
    """Sorted-key JSON; a NaN or infinity, which strict JSON cannot hold,
    raises a coded error instead of printing a non-standard token."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from exc


def loads(text: str) -> Diagram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return from_document(doc)


def dumps(d: Diagram) -> str:
    return dumps_canonical(to_document(d))
