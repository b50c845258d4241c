"""Local rewrite rules over sliced diagrams, with a soundness harness.

A rule rewrites a two-slice fragment: a contiguous run of generators in the
lower slice (the bottom) and the one generator in the slice above whose
input wires equal their output wires (the top).  Each rule is data: the
generator classes of its bottom run and of its top, a builder for the
replacement slices, a family of concrete examples, and an optional guard on
the pair for what equal wires leave open (equal groups).  One scan finds the
matches of every rule for every caller, and one splice performs them.

Rules are schematic (parametric in the space, the point, the function, the
group).  :func:`check_rule_soundness` certifies a rule on its family: each
example's left-hand side is built from its generators, and its right-hand
side is what :func:`normalize` splices in its place, so the certificate
covers the replacement the engine actually performs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .diagram import (
    Comult,
    Counit,
    CustomBox,
    Diagram,
    FunctionBox,
    Generator,
    GroupMult,
    GroupUnit,
    Identity,
    Mult,
    Point,
    PointEffect,
    RepBox,
    Unit,
    scalar_box,
    slice_cod,
    slice_dom,
)
from .errors import InvalidArgumentError, NoMatchError
from .spaces import cyclic_group, set_space
from .tensor_eval import evaluate

SOUNDNESS_TOL = 1e-12
EXHAUSTIVE_SIZE_LIMIT = 3  # functions are enumerated exhaustively up to here
DEFAULT_RANDOM_INSTANCES = 100


# ---------------------------------------------------------------------------
# Rule and trace types
# ---------------------------------------------------------------------------

Replacement = Tuple[Tuple[Generator, ...], ...]
Run = Tuple[Generator, ...]
# (label, bottom run, top generator)
Example = Tuple[str, Run, Generator]


@dataclass(frozen=True, eq=False)
class RewriteRule:
    """A local law: a `bottom` run of generator classes under one `top`
    generator whose input wires equal the run's output wires, rewritten to
    `rhs(bottom, top)` wherever `guard`, if given, holds.

    `rhs` returns the replacement slices: none (the fragment vanishes), one
    (placed on top, with identities on the fragment's inputs below) or two
    (lower, upper).  `family(sizes, rng, n_random)` yields the examples that
    certify the rule.
    """

    name: str
    bottom: Tuple[type, ...]
    top: type
    rhs: Callable[[Run, Generator], Replacement]
    family: Callable[[List[int], random.Random, int], Iterable[Example]]
    guard: Optional[Callable[[Run, Generator], bool]] = None

    def fits_bottom(self, bottom: Run) -> bool:
        return len(bottom) == len(self.bottom) and all(map(isinstance, bottom, self.bottom))

    def instances(self, sizes, rng: random.Random, n_random: int):
        """(label, lhs, rhs) for each example; rhs is lhs rewritten by this
        rule at its first position, or None where the rule does not match."""
        out = []
        for label, bottom, top in self.family(list(sizes), rng, n_random):
            lhs = Diagram(slice_dom(bottom), top.cod, (tuple(bottom), (top,)))
            m = next(_matches(self, lhs, [0]), None)
            out.append((label, lhs, None if m is None else _splice(lhs, m)))
        return out


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    slice_index: int
    wire_offset: int


@dataclass
class RewriteTrace:
    initial: Diagram
    final: Diagram
    steps: List[RewriteStep] = field(default_factory=list)
    truncated: bool = False

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {"rule": s.rule, "slice": s.slice_index, "wire": s.wire_offset}
                for s in self.steps
            ],
            "truncated": self.truncated,
        }


@dataclass
class SoundnessReport:
    rule: str
    instantiations: int
    max_deviation: float
    passed: bool
    failures: List[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "instantiations": self.instantiations,
            "max_deviation": self.max_deviation,
            "pass": self.passed,
            "failures": list(self.failures),
        }


# ---------------------------------------------------------------------------
# Matching machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Match:
    slice_index: int
    bottom_start: int
    bottom: Run
    top_index: int
    wire_offset: int
    replacement: Replacement


def _try_match(rule: RewriteRule, d: Diagram, i: int, j: int) -> Optional[_Match]:
    """The match of `rule` whose bottom run starts at generator j of slice i,
    or None.  The top is the one generator of slice i+1 whose inputs start
    at the bottom's first output wire, offset a, and equal its outputs."""
    sl = d.slices[i]
    bottom = sl[j : j + len(rule.bottom)]
    if i + 1 >= len(d.slices) or not rule.fits_bottom(bottom):
        return None
    a = len(slice_cod(sl[:j]))
    pos = 0
    for t, top in enumerate(d.slices[i + 1]):
        if pos > a:
            return None
        if pos == a and top.dom:  # zero-input generators at offset a are skipped
            if top.dom == slice_cod(bottom) and isinstance(top, rule.top):
                if rule.guard is None or rule.guard(bottom, top):
                    return _Match(i, j, bottom, t, a, rule.rhs(bottom, top))
            return None
        pos += len(top.dom)
    return None


def _matches(rule: RewriteRule, d: Diagram, slice_indices):
    """Every match of `rule` in the given slices, bottom-up and left to right."""
    for i in slice_indices:
        for j in range(len(d.slices[i])):
            m = _try_match(rule, d, i, j)
            if m is not None:
                yield m


def _is_unit_scalar(g: Generator) -> bool:
    return (
        isinstance(g, CustomBox)
        and not g.dom
        and not g.cod
        and g.matrix[0, 0] == 1.0 + 0j
    )


def _cleanup(d: Diagram) -> Diagram:
    """Drop exact scalar-1 boxes and slices made only of identities."""
    slices = []
    for sl in d.slices:
        sl = tuple(g for g in sl if not _is_unit_scalar(g))
        if sl and not all(isinstance(g, Identity) for g in sl):
            slices.append(sl)
    return Diagram(d.input_spaces, d.output_spaces, tuple(slices))


def _splice(d: Diagram, m: _Match) -> Diagram:
    repl = m.replacement
    if len(repl) == 1:
        # a single replacement slice goes on top; wires pass through below
        repl = (tuple(Identity(s) for s in slice_dom(m.bottom)),) + repl
    bot_repl, top_repl = repl or ((), ())
    i, j, t = m.slice_index, m.bottom_start, m.top_index
    lower, upper = d.slices[i], d.slices[i + 1]
    new_bot = lower[:j] + bot_repl + lower[j + len(m.bottom) :]
    new_top = upper[:t] + top_repl + upper[t + 1 :]
    slices = d.slices[:i] + (new_bot, new_top) + d.slices[i + 2 :]
    return _cleanup(Diagram(d.input_spaces, d.output_spaces, slices))


def apply_rule(rule: RewriteRule, d: Diagram, at: Tuple[int, int]) -> Diagram:
    """Apply `rule` at (slice index, wire offset); raises NoMatchError if the
    rule's left-hand side does not match there."""
    i, offset = at
    if not 0 <= i < len(d.slices):
        raise NoMatchError(f"slice index {i} out of range")
    m = next((m for m in _matches(rule, d, [i]) if m.wire_offset == offset), None)
    if m is None:
        raise NoMatchError(f"rule {rule.name} does not match at slice {i}, wire {offset}")
    return _splice(d, m)


def _first_match(catalog, d: Diagram):
    for rule in catalog:
        m = next(_matches(rule, d, range(len(d.slices))), None)
        if m is not None:
            return rule, m
    return None, None


def normalize(d: Diagram, max_steps: int = 1000):
    """Rewrite to a normal form under the catalog.

    Rules are tried in catalog order; for each rule, positions are scanned
    bottom-up and left to right, and the first match is applied.  Identical
    inputs produce identical traces.
    """
    if max_steps < 1:
        raise InvalidArgumentError(f"max_steps must be >= 1, got {max_steps}")
    catalog = rules_catalog()
    cur = d
    steps: List[RewriteStep] = []
    while True:
        rule, match = _first_match(catalog, cur)
        if match is None or len(steps) >= max_steps:
            return cur, RewriteTrace(d, cur, steps, match is not None)
        cur = _splice(cur, match)
        steps.append(RewriteStep(rule.name, match.slice_index, match.wire_offset))


def replay(trace: RewriteTrace):
    """Re-apply a trace's steps from its initial diagram."""
    by_name = {r.name: r for r in rules_catalog()}
    cur = trace.initial
    for s in trace.steps:
        cur = apply_rule(by_name[s.rule], cur, (s.slice_index, s.wire_offset))
    return cur


# ---------------------------------------------------------------------------
# The rule catalog
# ---------------------------------------------------------------------------


def _same_group(bottom, top):
    """Two groups can share a space label, as a relabelled Z3 does."""
    return top.group == bottom[0].group


def _inner_product(bottom, top):
    return () if bottom[0].index == top.index else ((scalar_box(0.0, "0"),),)


def _irrep_sum(bottom, top):
    g = top.group
    if g.is_trivial_irrep(top.irrep_index):
        return ((scalar_box(complex(g.order), "|G|"),),)
    return ((scalar_box(0.0, "0"),),)


def _identity(bottom, top):
    return ((Identity(top.space),),)


def _associate(bottom, top):
    s = top.space
    return ((Identity(s), Mult(s)), (Mult(s),))


def _sets(sizes):
    for dim in sizes:
        yield dim, set_space(f"S{dim}", dim)


def _point_family(top):
    def family(sizes, rng, n_random):
        for dim, s in _sets(sizes):
            for x in range(dim):
                yield f"|S|={dim}, x={x}", (Point(s, x),), top(s)

    return family


def _point_pairs(sizes, rng, n_random):
    for dim, s in _sets(sizes):
        for x, y in itertools.product(range(dim), repeat=2):
            yield f"|S|={dim}, x={x}, y={y}", (Point(s, x),), PointEffect(s, y)


def _function_family(top):
    """Function boxes: exhaustive on small sizes (codomain == domain),
    `n_random` random ones on each large size."""

    def family(sizes, rng, n_random):
        for dim, s in _sets(d for d in sizes if d <= EXHAUSTIVE_SIZE_LIMIT):
            for table in itertools.product(range(dim), repeat=dim):
                yield f"f:{dim}->{dim} {table}", (FunctionBox(s, s, table),), top(s)
        for dim, s in _sets(d for d in sizes if d > EXHAUSTIVE_SIZE_LIMIT):
            for _ in range(n_random):
                cod = rng.randint(1, dim)
                table = tuple(rng.randrange(cod) for _ in range(dim))
                t = set_space(f"T{cod}", cod)
                yield f"f:{dim}->{cod} {table}", (FunctionBox(s, t, table),), top(t)

    return family


def _mult_family(*bottom):
    def family(sizes, rng, n_random):
        for dim, s in _sets(sizes):
            yield f"|S|={dim}", tuple(cls(s) for cls in bottom), Mult(s)

    return family


def _irrep_family(bottom):
    def family(sizes, rng, n_random):
        for order in sizes:
            g = cyclic_group(order)
            for s in range(g.irrep_count()):
                yield f"Z{order}, irrep {s}", (bottom(g),), RepBox(g, s)

    return family


_CATALOG = [
    RewriteRule(
        "copy-point", (Point,), Comult, lambda b, t: ((b[0], b[0]),), _point_family(Comult),
    ),
    RewriteRule("delete-point", (Point,), Counit, lambda b, t: (), _point_family(Counit)),
    RewriteRule("point-inner-product", (Point,), PointEffect, _inner_product, _point_pairs),
    RewriteRule(
        "comonoid-hom-copy", (FunctionBox,), Comult,
        lambda b, t: ((Comult(b[0].domain),), (b[0], b[0])), _function_family(Comult),
    ),
    RewriteRule(
        "comonoid-hom-delete", (FunctionBox,), Counit,
        lambda b, t: ((Counit(b[0].domain),),), _function_family(Counit),
    ),
    RewriteRule(
        "rep-merge", (GroupMult,), RepBox,
        lambda b, t: ((t, t),), _irrep_family(GroupMult), _same_group,
    ),
    RewriteRule(  # chi(e) = 1 for every irrep
        "rep-at-unit", (GroupUnit,), RepBox,
        lambda b, t: (), _irrep_family(GroupUnit), _same_group,
    ),
    RewriteRule("irrep-sum", (Unit,), RepBox, _irrep_sum, _irrep_family(lambda g: Unit(g.space()))),
    RewriteRule("special", (Comult,), Mult, _identity, _mult_family(Comult)),
    RewriteRule("unit-left", (Unit, Identity), Mult, _identity, _mult_family(Unit, Identity)),
    RewriteRule("unit-right", (Identity, Unit), Mult, _identity, _mult_family(Identity, Unit)),
    RewriteRule("associativity", (Mult, Identity), Mult, _associate, _mult_family(Mult, Identity)),
]


def rules_catalog() -> List[RewriteRule]:
    """The shipped rules, in normalization priority order: point
    extraction first, algebra laws last."""
    return list(_CATALOG)


def check_rule_soundness(
    rule: RewriteRule,
    sizes,
    seed: int = 0,
    n_random: int = DEFAULT_RANDOM_INSTANCES,
) -> SoundnessReport:
    """Evaluate each example's lhs and the rewrite the rule makes of it, and
    compare entrywise."""
    rng = random.Random(seed)
    max_dev = 0.0
    failures = []
    count = 0
    for label, lhs, rhs in rule.instances(sizes, rng, n_random):
        count += 1
        if rhs is None:
            failures.append(f"{label}: not matched by its own rule")
            continue
        a = evaluate(lhs).matrix
        b = evaluate(rhs).matrix
        dev = float(np.max(np.abs(a - b))) if a.size else 0.0
        max_dev = max(max_dev, dev)
        if dev > SOUNDNESS_TOL:
            failures.append(f"{label}: deviation {dev:.3e}")
    return SoundnessReport(rule.name, count, max_dev, not failures, failures)
