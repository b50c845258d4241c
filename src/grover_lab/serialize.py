"""Versioned JSON serialization of diagrams.

Document shape:

    {"version": 1,
     "spaces": [{"name", "kind", "dimension", "group"?}, ...],
     "inputs": [space names], "outputs": [space names],
     "slices": [[generator records], ...]}

Every record holds one field per dataclass field of its class, encoded by
the field's type: spaces and groups by name, index tables as lists, and
complex numbers (a CustomBox matrix, a character table) as [re, im] pairs.
A space record is a SpaceLabel's fields plus, on a group wire, the group's
GroupSpec record, which leaves out the name the space already gives.  A
generator record adds a "variant" field with the generator class name.
Writing and reading resolve names through one table of spaces and one of
groups per document: the writer enters each space and group a field names
(a group also enters its space) and lists the space records from them; the
reader fills the tables from the space records and looks every name up.
Parsing checks each field's JSON type.  Printing is canonical (sorted keys),
so parse-then-print is idempotent.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from typing import Optional, Tuple, get_type_hints

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
# (field name, field type, whether the field has a default) per record class.
# A group record leaves out its name: the space record holding it has one.
_FIELDS = {
    cls: [
        (f.name, get_type_hints(cls)[f.name], f.default is not MISSING)
        for f in fields(cls)
        if (cls, f.name) != (GroupSpec, "name")
    ]
    for cls in (SpaceLabel, GroupSpec, *VARIANTS.values())
}

_Table = Tuple[Tuple[int, ...], ...]
_Characters = Optional[Tuple[Tuple[complex, ...], ...]]


def _exactly(tp, what):
    """A decoder that refuses any JSON value not of type `tp`, such as a
    float or a boolean where an integer belongs."""

    def decode(v):
        if type(v) is not tp:
            raise ParseError(f"expected {what}, got {v!r}")
        return v

    return decode


_int = _exactly(int, "an integer")
_str = _exactly(str, "a string")


def _same(v):
    return v


def _encoders(spaces, groups):
    """Field encoders by type, entering each space and group a field names
    into one document's tables, one value per name.  A group enters its
    space first, so groups of two orders under one name clash as spaces."""

    def space(s):
        if spaces.setdefault(s.name, s) != s:
            raise InvalidArgumentError(f"two distinct spaces share the name {s.name!r}")
        return s.name

    def group(g):
        name = space(g.space())
        if groups.setdefault(name, g) != g:
            raise InvalidArgumentError(f"two distinct groups share the name {name!r}")
        return name

    return {
        SpaceLabel: space,
        GroupSpec: group,
        Spaces: lambda ss: [space(s) for s in ss],
        Tuple[int, ...]: list,
        _Table: lambda t: [list(r) for r in t],
        _Characters: lambda t: None if t is None else [[[z.real, z.imag] for z in r] for r in t],
        np.ndarray: lambda m: np.stack((m.real, m.imag), -1).tolist(),
    }


def _decoders(spaces, groups):
    """Field decoders by type, resolving names against one document."""
    return {
        SpaceLabel: spaces.__getitem__,
        GroupSpec: groups.__getitem__,
        Spaces: lambda names: tuple(spaces[n] for n in names),
        str: _str,
        int: _int,
        Tuple[int, ...]: lambda vs: tuple(map(_int, vs)),
        _Table: lambda rows: tuple(tuple(map(_int, r)) for r in rows),
        # Unpacking refuses a complex entry that is not exactly [re, im].
        _Characters: lambda rows: (
            None if rows is None else tuple(tuple(complex(re, im) for re, im in r) for r in rows)
        ),
        np.ndarray: lambda rows: [[complex(re, im) for re, im in row] for row in rows],
    }


def _record(obj, encode) -> dict:
    return {name: encode.get(tp, _same)(getattr(obj, name)) for name, tp, _ in _FIELDS[type(obj)]}


def _build(cls, rec, decode, **given):
    """The `cls` instance a record describes; fields in `given` are not read
    from the record, and a field with a default may be left out of it."""
    return cls(**given, **{
        name: decode.get(tp, _same)(rec[name])
        for name, tp, has_default in _FIELDS[cls]
        if name in rec or not has_default
    })


def to_document(d: Diagram) -> dict:
    spaces, groups = {}, {}
    encode = _encoders(spaces, groups)
    body = {
        "inputs": encode[Spaces](d.input_spaces),
        "outputs": encode[Spaces](d.output_spaces),
        "slices": [[{"variant": g.variant, **_record(g, encode)} for g in sl] for sl in d.slices],
    }
    records = {name: _record(s, encode) for name, s in sorted(spaces.items())}
    for name, g in groups.items():
        records[name]["group"] = _record(g, encode)
    return {"version": FORMAT_VERSION, "spaces": list(records.values()), **body}


def _parse_spaces(doc, decode, spaces, groups):
    for rec in doc["spaces"]:
        s = _build(SpaceLabel, rec, decode)
        if s.name in spaces:
            raise ParseError(f"two space records share the name {s.name!r}")
        spaces[s.name] = s
        if rec.get("group") is not None:
            g = groups[s.name] = _build(GroupSpec, rec["group"], decode, name=s.name)
            if g.space() != s:
                raise ParseError(f"group {s.name!r} of order {g.order} does not fit its space {s}")


def _parse_generator(rec, decode):
    variant = rec.get("variant")
    cls = VARIANTS.get(variant)
    if cls is None:
        raise ParseError(f"unknown generator variant {variant!r}")
    try:
        return _build(cls, rec, decode)
    except KeyError as exc:
        raise ParseError(f"generator record {rec!r} references unknown name {exc}") from exc


def from_document(doc: dict) -> Diagram:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {doc.get('version')!r}")
    spaces, groups = {}, {}
    decode = _decoders(spaces, groups)
    try:
        _parse_spaces(doc, decode, spaces, groups)
        inputs = tuple(spaces[name] for name in doc["inputs"])
        outputs = tuple(spaces[name] for name in doc["outputs"])
        slices = tuple(tuple(_parse_generator(rec, decode) for rec in sl) for sl in doc["slices"])
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing key {exc} in diagram document") from exc
    except (AttributeError, TypeError, IndexError, ValueError, OverflowError) as exc:
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
