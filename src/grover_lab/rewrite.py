"""Local rewrite rules over sliced diagrams, with a soundness harness.

A rule matches a fragment spanning one or two adjacent slices: a contiguous
run of generators in the lower slice plus the run in the slice above that
consumes exactly their output wires.  Matching and replacement are purely
syntactic; every shipped rule is certified evaluation-preserving by
:func:`check_rule_soundness`.

Rules are schematic (parametric in the space, the point, the function, the
group); a rule therefore carries a matcher over concrete generator runs and
an instance enumerator producing concrete lhs/rhs diagram pairs for the
soundness check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

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
    compose,
    make_generator,
    scalar_box,
    slice_cod,
    slice_dom,
    tensor,
)
from .errors import NoMatchError
from .spaces import cyclic_group, set_space
from .tensor_eval import evaluate

SOUNDNESS_TOL = 1e-12
EXHAUSTIVE_SIZE_LIMIT = 3  # functions are enumerated exhaustively up to here
DEFAULT_RANDOM_INSTANCES = 100


# ---------------------------------------------------------------------------
# Rule and trace types
# ---------------------------------------------------------------------------

Replacement = Tuple[Tuple[Generator, ...], ...]
Matcher = Callable[[Tuple[Generator, ...], Tuple[Generator, ...]], Optional[Replacement]]
# instances(sizes, rng, n_random) -> list of (label, lhs, rhs)
InstanceFn = Callable[[List[int], random.Random, int], List[Tuple[str, Diagram, Diagram]]]


@dataclass(frozen=True, eq=False)
class RewriteRule:
    name: str
    side_condition: str
    bottom_width: int
    spans: int  # 1 or 2 slices
    matcher: Matcher
    instances: InstanceFn


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


def _cod_window(sl, j, w):
    a = sum(len(g.cod) for g in sl[:j])
    return a, a + sum(len(g.cod) for g in sl[j : j + w])


def _find_top_run(next_slice, a, b):
    """Run of generators in the slice above whose inputs cover exactly the
    wire window [a, b).  Zero-input generators count only when strictly
    inside the window.  Returns (start index, width) or None."""
    sel = []
    pos = 0
    for idx, g in enumerate(next_slice):
        lo, hi = pos, pos + len(g.dom)
        pos = hi
        if lo == hi:
            inside = a < lo < b
        else:
            inside = a <= lo and hi <= b
            if not inside and lo < b and hi > a:
                return None  # generator straddles the window boundary
        if inside:
            sel.append((idx, lo, hi))
    if a == b:
        return None
    if not sel:
        return None
    idxs = [i for i, _, _ in sel]
    if idxs != list(range(idxs[0], idxs[-1] + 1)):
        return None
    if sel[0][1] != a or sel[-1][2] != b:
        return None
    return idxs[0], len(idxs)


@dataclass(frozen=True)
class _Match:
    slice_index: int
    bottom_start: int
    bottom_width: int
    top_start: int
    top_width: int
    wire_offset: int
    replacement: Replacement
    fragment_dom: tuple


def _try_match(rule: RewriteRule, d: Diagram, i: int, j: int) -> Optional[_Match]:
    sl = d.slices[i]
    if j + rule.bottom_width > len(sl):
        return None
    bottom = sl[j : j + rule.bottom_width]
    a, b = _cod_window(sl, j, rule.bottom_width)
    if rule.spans == 2:
        if i + 1 >= len(d.slices):
            return None
        run = _find_top_run(d.slices[i + 1], a, b)
        if run is None:
            return None
        j2, w2 = run
        top = d.slices[i + 1][j2 : j2 + w2]
    else:
        top, j2, w2 = (), 0, 0
    repl = rule.matcher(bottom, top)
    if repl is None:
        return None
    return _Match(i, j, rule.bottom_width, j2, w2, a, repl, slice_dom(bottom))


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
        if sl and all(isinstance(g, Identity) for g in sl):
            continue
        if not sl:
            continue
        slices.append(sl)
    return Diagram(d.input_spaces, d.output_spaces, tuple(slices))


def _splice(d: Diagram, m: _Match) -> Diagram:
    repl = m.replacement
    i = m.slice_index
    if m.top_width or len(repl) > 1:  # two-slice fragment
        if len(repl) == 0:
            bot_repl, top_repl = (), ()
        elif len(repl) == 1:
            # single replacement slice goes on top; wires pass through below
            bot_repl = tuple(Identity(s) for s in m.fragment_dom)
            top_repl = repl[0]
        else:
            bot_repl, top_repl = repl
        new_bot = (
            d.slices[i][: m.bottom_start]
            + bot_repl
            + d.slices[i][m.bottom_start + m.bottom_width :]
        )
        new_top = (
            d.slices[i + 1][: m.top_start]
            + top_repl
            + d.slices[i + 1][m.top_start + m.top_width :]
        )
        slices = d.slices[:i] + (new_bot, new_top) + d.slices[i + 2 :]
    else:
        new_bot = (
            d.slices[i][: m.bottom_start]
            + (repl[0] if repl else ())
            + d.slices[i][m.bottom_start + m.bottom_width :]
        )
        slices = d.slices[:i] + (new_bot,) + d.slices[i + 1 :]
    return _cleanup(Diagram(d.input_spaces, d.output_spaces, slices))


def apply_rule(rule: RewriteRule, d: Diagram, at: Tuple[int, int]) -> Diagram:
    """Apply `rule` at (slice index, wire offset); raises NoMatchError if the
    rule's left-hand side does not match there."""
    i, offset = at
    if not 0 <= i < len(d.slices):
        raise NoMatchError(f"slice index {i} out of range")
    for j in range(len(d.slices[i]) - rule.bottom_width + 1):
        a, _ = _cod_window(d.slices[i], j, rule.bottom_width)
        if a != offset:
            continue
        m = _try_match(rule, d, i, j)
        if m is not None:
            return _splice(d, m)
    raise NoMatchError(f"rule {rule.name} does not match at slice {i}, wire {offset}")


def normalize(d: Diagram, max_steps: int = 1000):
    """Rewrite to a normal form under the catalog.

    Rules are tried in catalog order; for each rule, positions are scanned
    bottom-up and left to right, and the first match is applied.  Identical
    inputs produce identical traces.
    """
    if max_steps < 1:
        raise NoMatchError("max_steps must be >= 1")
    catalog = rules_catalog()
    cur = d
    steps: List[RewriteStep] = []
    truncated = False
    while True:
        match = None
        rule = None
        for r in catalog:
            for i in range(len(cur.slices)):
                for j in range(len(cur.slices[i])):
                    m = _try_match(r, cur, i, j)
                    if m is not None:
                        match, rule = m, r
                        break
                if match:
                    break
            if match:
                break
        if match is None:
            break
        if len(steps) >= max_steps:
            truncated = True
            break
        cur = _splice(cur, match)
        steps.append(RewriteStep(rule.name, match.slice_index, match.wire_offset))
    return cur, RewriteTrace(d, cur, steps, truncated)


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


def _gen_diagram(*slices) -> Diagram:
    out = None
    for sl in slices:
        d = None
        for g in sl:
            gd = make_generator(g)
            d = gd if d is None else tensor(d, gd)
        out = d if out is None else compose(out, d)
    return out


def _sizes_split(sizes):
    small = [s for s in sizes if s <= EXHAUSTIVE_SIZE_LIMIT]
    large = [s for s in sizes if s > EXHAUSTIVE_SIZE_LIMIT]
    return small, large


def _copy_matcher(bottom, top):
    if (
        len(bottom) == 1
        and isinstance(bottom[0], Point)
        and len(top) == 1
        and isinstance(top[0], Comult)
        and top[0].space == bottom[0].space
    ):
        return ((bottom[0], bottom[0]),)
    return None


def _copy_instances(sizes, rng, n_random):
    out = []
    for dim in sizes:
        s = set_space(f"S{dim}", dim)
        for x in range(dim):
            lhs = _gen_diagram([Point(s, x)], [Comult(s)])
            rhs = _gen_diagram([Point(s, x), Point(s, x)])
            out.append((f"|S|={dim}, x={x}", lhs, rhs))
    return out


def _delete_matcher(bottom, top):
    if (
        len(bottom) == 1
        and isinstance(bottom[0], Point)
        and len(top) == 1
        and isinstance(top[0], Counit)
        and top[0].space == bottom[0].space
    ):
        return ()
    return None


def _delete_instances(sizes, rng, n_random):
    out = []
    for dim in sizes:
        s = set_space(f"S{dim}", dim)
        for x in range(dim):
            lhs = _gen_diagram([Point(s, x)], [Counit(s)])
            out.append((f"|S|={dim}, x={x}", lhs, Diagram((), (), ())))
    return out


def _inner_product_matcher(bottom, top):
    if (
        len(bottom) == 1
        and isinstance(bottom[0], Point)
        and len(top) == 1
        and isinstance(top[0], PointEffect)
        and top[0].space == bottom[0].space
    ):
        if bottom[0].index == top[0].index:
            return ()
        return ((scalar_box(0.0, "0"),),)
    return None


def _inner_product_instances(sizes, rng, n_random):
    out = []
    for dim in sizes:
        s = set_space(f"S{dim}", dim)
        for x in range(dim):
            for y in range(dim):
                lhs = _gen_diagram([Point(s, x)], [PointEffect(s, y)])
                rhs = (
                    Diagram((), (), ())
                    if x == y
                    else _gen_diagram([scalar_box(0.0, "0")])
                )
                out.append((f"|S|={dim}, x={x}, y={y}", lhs, rhs))
    return out


def _random_function(rng, dim):
    cod = rng.randint(1, dim)
    table = tuple(rng.randrange(cod) for _ in range(dim))
    return dim, cod, table


def _function_pairs(sizes, rng, n_random):
    """(domain space, codomain space, table) triples: exhaustive on small
    sizes (with codomain == domain), random on large ones."""
    small, large = _sizes_split(sizes)
    for dim in small:
        s = set_space(f"S{dim}", dim)
        for table in itertools.product(range(dim), repeat=dim):
            yield s, s, table
    for dim in large:
        s = set_space(f"S{dim}", dim)
        for _ in range(n_random):
            _, cod, table = _random_function(rng, dim)
            t = set_space(f"T{cod}", cod)
            yield s, t, table


def _hom_copy_matcher(bottom, top):
    if (
        len(bottom) == 1
        and isinstance(bottom[0], FunctionBox)
        and len(top) == 1
        and isinstance(top[0], Comult)
        and top[0].space == bottom[0].codomain
    ):
        f = bottom[0]
        return ((Comult(f.domain),), (f, f))
    return None


def _hom_copy_instances(sizes, rng, n_random):
    out = []
    for s, t, table in _function_pairs(sizes, rng, n_random):
        f = FunctionBox(s, t, table)
        lhs = _gen_diagram([f], [Comult(t)])
        rhs = _gen_diagram([Comult(s)], [f, f])
        out.append((f"f:{s.dimension}->{t.dimension} {table}", lhs, rhs))
    return out


def _hom_delete_matcher(bottom, top):
    if (
        len(bottom) == 1
        and isinstance(bottom[0], FunctionBox)
        and len(top) == 1
        and isinstance(top[0], Counit)
        and top[0].space == bottom[0].codomain
    ):
        return ((Counit(bottom[0].domain),),)
    return None


def _hom_delete_instances(sizes, rng, n_random):
    out = []
    for s, t, table in _function_pairs(sizes, rng, n_random):
        f = FunctionBox(s, t, table)
        lhs = _gen_diagram([f], [Counit(t)])
        rhs = _gen_diagram([Counit(s)])
        out.append((f"f:{s.dimension}->{t.dimension} {table}", lhs, rhs))
    return out


def _special_matcher(bottom, top):
    if (
        len(bottom) == 1
        and isinstance(bottom[0], Comult)
        and len(top) == 1
        and isinstance(top[0], Mult)
        and top[0].space == bottom[0].space
    ):
        return ((Identity(bottom[0].space),),)
    return None


def _special_instances(sizes, rng, n_random):
    out = []
    for dim in sizes:
        s = set_space(f"S{dim}", dim)
        lhs = _gen_diagram([Comult(s)], [Mult(s)])
        rhs = _gen_diagram([Identity(s)])
        out.append((f"|S|={dim}", lhs, rhs))
    return out


def _unit_left_matcher(bottom, top):
    if (
        len(bottom) == 2
        and isinstance(bottom[0], Unit)
        and isinstance(bottom[1], Identity)
        and bottom[0].space == bottom[1].space
        and len(top) == 1
        and isinstance(top[0], Mult)
        and top[0].space == bottom[0].space
    ):
        return ((Identity(bottom[0].space),),)
    return None


def _unit_right_matcher(bottom, top):
    if (
        len(bottom) == 2
        and isinstance(bottom[0], Identity)
        and isinstance(bottom[1], Unit)
        and bottom[0].space == bottom[1].space
        and len(top) == 1
        and isinstance(top[0], Mult)
        and top[0].space == bottom[0].space
    ):
        return ((Identity(bottom[0].space),),)
    return None


def _unit_instances(left):
    def fn(sizes, rng, n_random):
        out = []
        for dim in sizes:
            s = set_space(f"S{dim}", dim)
            bottom = [Unit(s), Identity(s)] if left else [Identity(s), Unit(s)]
            lhs = _gen_diagram(bottom, [Mult(s)])
            rhs = _gen_diagram([Identity(s)])
            out.append((f"|S|={dim}", lhs, rhs))
        return out

    return fn


def _assoc_matcher(bottom, top):
    if (
        len(bottom) == 2
        and isinstance(bottom[0], Mult)
        and isinstance(bottom[1], Identity)
        and bottom[0].space == bottom[1].space
        and len(top) == 1
        and isinstance(top[0], Mult)
        and top[0].space == bottom[0].space
    ):
        s = bottom[0].space
        return ((Identity(s), Mult(s)), (Mult(s),))
    return None


def _assoc_instances(sizes, rng, n_random):
    out = []
    for dim in sizes:
        s = set_space(f"S{dim}", dim)
        lhs = _gen_diagram([Mult(s), Identity(s)], [Mult(s)])
        rhs = _gen_diagram([Identity(s), Mult(s)], [Mult(s)])
        out.append((f"|S|={dim}", lhs, rhs))
    return out


def _rep_merge_matcher(bottom, top):
    if (
        len(bottom) == 1
        and isinstance(bottom[0], GroupMult)
        and len(top) == 1
        and isinstance(top[0], RepBox)
        and top[0].group == bottom[0].group
    ):
        return ((top[0], top[0]),)
    return None


def _rep_merge_instances(sizes, rng, n_random):
    out = []
    for order in sizes:
        g = cyclic_group(order)
        for s in range(g.irrep_count()):
            lhs = _gen_diagram([GroupMult(g)], [RepBox(g, s)])
            rhs = _gen_diagram([RepBox(g, s), RepBox(g, s)])
            out.append((f"Z{order}, irrep {s}", lhs, rhs))
    return out


def _rep_at_unit_matcher(bottom, top):
    if (
        len(bottom) == 1
        and isinstance(bottom[0], GroupUnit)
        and len(top) == 1
        and isinstance(top[0], RepBox)
        and top[0].group == bottom[0].group
    ):
        return ()  # chi(e) = 1 for every irrep
    return None


def _rep_at_unit_instances(sizes, rng, n_random):
    out = []
    for order in sizes:
        g = cyclic_group(order)
        for s in range(g.irrep_count()):
            lhs = _gen_diagram([GroupUnit(g)], [RepBox(g, s)])
            out.append((f"Z{order}, irrep {s}", lhs, Diagram((), (), ())))
    return out


def _irrep_sum_matcher(bottom, top):
    if (
        len(bottom) == 1
        and isinstance(bottom[0], Unit)
        and bottom[0].space.kind == "group"
        and len(top) == 1
        and isinstance(top[0], RepBox)
        and top[0].group.space() == bottom[0].space
    ):
        g = top[0].group
        if g.is_trivial_irrep(top[0].irrep_index):
            return ((scalar_box(complex(g.order), "|G|"),),)
        return ((scalar_box(0.0, "0"),),)
    return None


def _irrep_sum_instances(sizes, rng, n_random):
    out = []
    for order in sizes:
        g = cyclic_group(order)
        for s in range(g.irrep_count()):
            lhs = _gen_diagram([Unit(g.space())], [RepBox(g, s)])
            value = complex(order) if g.is_trivial_irrep(s) else 0.0
            rhs = _gen_diagram([scalar_box(value)])
            out.append((f"Z{order}, irrep {s}", lhs, rhs))
    return out


_CATALOG = [
    RewriteRule("copy-point", "is-classical-point", 1, 2, _copy_matcher, _copy_instances),
    RewriteRule("delete-point", "is-classical-point", 1, 2, _delete_matcher, _delete_instances),
    RewriteRule(
        "point-inner-product",
        "is-classical-point",
        1,
        2,
        _inner_product_matcher,
        _inner_product_instances,
    ),
    RewriteRule("comonoid-hom-copy", "is-function-box", 1, 2, _hom_copy_matcher, _hom_copy_instances),
    RewriteRule(
        "comonoid-hom-delete", "is-function-box", 1, 2, _hom_delete_matcher, _hom_delete_instances
    ),
    RewriteRule("rep-merge", "groups-match", 1, 2, _rep_merge_matcher, _rep_merge_instances),
    RewriteRule("rep-at-unit", "groups-match", 1, 2, _rep_at_unit_matcher, _rep_at_unit_instances),
    RewriteRule("irrep-sum", "is-representation", 1, 2, _irrep_sum_matcher, _irrep_sum_instances),
    RewriteRule("special", "none", 1, 2, _special_matcher, _special_instances),
    RewriteRule("unit-left", "none", 2, 2, _unit_left_matcher, _unit_instances(True)),
    RewriteRule("unit-right", "none", 2, 2, _unit_right_matcher, _unit_instances(False)),
    RewriteRule("associativity", "none", 2, 2, _assoc_matcher, _assoc_instances),
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
    tol: float = SOUNDNESS_TOL,
) -> SoundnessReport:
    """Evaluate lhs and rhs of every instantiation and compare entrywise."""
    rng = random.Random(seed)
    max_dev = 0.0
    failures = []
    count = 0
    for label, lhs, rhs in rule.instances(list(sizes), rng, n_random):
        count += 1
        if lhs.input_spaces != rhs.input_spaces or lhs.output_spaces != rhs.output_spaces:
            failures.append(f"{label}: interface mismatch")
            continue
        a = evaluate(lhs).matrix
        b = evaluate(rhs).matrix
        dev = float(np.max(np.abs(a - b))) if a.size else 0.0
        max_dev = max(max_dev, dev)
        if dev > tol:
            failures.append(f"{label}: deviation {dev:.3e}")
    return SoundnessReport(rule.name, count, max_dev, not failures, failures)
