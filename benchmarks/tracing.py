"""Spans and counters around grover_lab's layer functions, from outside
the program.

The tracer replaces each function named in TARGETS, in every grover_lab
module that holds it by name, with a wrapper that records a span (name,
start, end, parent span, request id) in memory and, on return, the count
metrics that the function's inputs and outputs determine.  Counts are never
timed.  With ``memory=True`` the wrappers also measure each tensor_eval and
grover_diagram span's tracemalloc peak; that pass is run separately because
tracemalloc slows allocation-heavy code about tenfold, and its timings are
not used.
"""

from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

TARGETS = (
    "cli.main",
    "simulator.grover_run",
    "simulator.apply_oracle",
    "simulator.apply_diffusion",
    "simulator.ProbabilityTable.to_json_dict",
    "analysis.compare",
    "analysis.paper_claims_check",
    "grover_diagram.build_grover_diagram",
    "grover_diagram.diffusion_box",
    "diagram.validate",
    "diagram.compose",
    "diagram.tensor",
    "tensor_eval.evaluate",
    "tensor_eval.eval_generator",
    "rewrite.normalize",
    "rewrite.check_rule_soundness",
    "serialize.loads",
    "serialize.to_document",
    "serialize.dumps_canonical",
)
LAYERS = ("cli", "simulator", "analysis", "grover_diagram", "diagram", "tensor_eval", "rewrite", "serialize")
MEMORY_LAYERS = {
    "tensor_eval.evaluate": "tensor_eval",
    "grover_diagram.build_grover_diagram": "grover_diagram",
    "grover_diagram.diffusion_box": "grover_diagram",
}
# Counts combined across calls by their maximum instead of their sum.
MAX_COUNTS = ("tensor_eval.max_slice_elements",)
REQUEST = "request"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dims(spaces):
    return math.prod(s.dimension for s in spaces)


def _count_evaluate(c, d):
    """Slice-Kronecker work of tensor_eval.evaluate, from generator dims."""
    cols = _dims(d.input_spaces)
    for sl in d.slices:
        rows_in = _dims(s for g in sl for s in g.dom)
        rows_out = _dims(s for g in sl for s in g.cod)
        elements = rows_out * rows_in
        c["tensor_eval.slices"] += 1
        c["tensor_eval.slice_elements"] += elements
        c["tensor_eval.useful_elements"] += sum(
            _dims(g.cod) * _dims(g.dom) for g in sl if g.variant != "Identity"
        )
        # a dense complex (rows_out x rows_in) @ (rows_in x cols) product
        c["tensor_eval.computed_flops"] += 8 * elements * cols
        c["tensor_eval.max_slice_elements"] = max(c["tensor_eval.max_slice_elements"], elements)


def _count(c, name, args, kwargs, result):
    c[name + ".calls"] += 1
    if name == "simulator.grover_run":
        c["simulator.amplitude_updates"] += _arg(args, kwargs, 2, "k") * 2 ** _arg(args, kwargs, 0, "n")
    elif name == "serialize.dumps_canonical":
        c["serialize.bytes_out"] += len(result.encode("utf-8"))
    elif name == "serialize.loads":
        c["serialize.bytes_in"] += len(_arg(args, kwargs, 0, "text").encode("utf-8"))
    elif name == "tensor_eval.evaluate":
        _count_evaluate(c, _arg(args, kwargs, 0, "d"))
    elif name == "rewrite.normalize":
        c["rewrite.steps"] += len(result[1].steps)
    elif name == "rewrite.check_rule_soundness":
        c["rewrite.soundness_instances"] += result.instantiations


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []  # [name, start, end, parent index, request id]
        self.counts = defaultdict(Counter)  # request id -> counts
        self.peak_alloc_mb = Counter()  # layer -> largest span peak
        self._raised = defaultdict(dict)  # layer -> {id(exc): exc} raised out of it
        self._stack = []
        self._frames = []  # open memory spans: [layer, start bytes, peak bytes]
        self._patched = []  # (owner, attribute, original)
        self._rid = None

    # -- installation -------------------------------------------------------

    def install(self):
        for target in TARGETS:
            module_name, _, attr = target.partition(".")
            module = sys.modules["grover_lab." + module_name]
            owner_path, _, func_name = attr.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = getattr(owner, func_name)
            wrapper = self._wrap(target, original)
            if owner_path:
                self._patch(owner, func_name, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "grover_lab" or mod_name.startswith("grover_lab."):
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, original, wrapper):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, target, fn):
        def wrapper(*args, **kwargs):
            return self._call(target, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans --------------------------------------------------------------

    def request(self, rid, fn):
        """Run fn() as the root span of request `rid`."""
        self._rid = rid
        try:
            return self._call(REQUEST, fn, (), {})
        finally:
            self._rid = None

    def _call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._rid]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        layer = MEMORY_LAYERS.get(name) if self.memory else None
        if layer:
            self._memory_enter(layer)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if name != REQUEST:
                self._raised[name.partition(".")[0]][id(exc)] = exc
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if layer:
                self._memory_exit()
        if name != REQUEST:
            _count(self.counts[self._rid], name, args, kwargs, result)
        return result

    # tracemalloc runs only inside the outermost memory span, so that the
    # rest of the request keeps its untraced speed.

    def _memory_enter(self, layer):
        if not self._frames:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._frames:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()
        self._frames.append([layer, current, current])

    def _memory_exit(self):
        _, peak = tracemalloc.get_traced_memory()
        for frame in self._frames:
            frame[2] = max(frame[2], peak)
        layer, start, top = self._frames.pop()
        self.peak_alloc_mb[layer] = max(self.peak_alloc_mb[layer], (top - start) / 1e6)
        if not self._frames:
            tracemalloc.stop()

    # -- results ------------------------------------------------------------

    def totals(self, rids=None) -> Counter:
        """Counts summed over the given requests (all when None)."""
        total = Counter()
        for rid, c in self.counts.items():
            if rids is not None and rid not in rids:
                continue
            for key, value in c.items():
                if key in MAX_COUNTS:
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        return total

    def times(self):
        """(self seconds per name, inclusive seconds per name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, incl_s = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            incl_s[name] += end - start
        return self_s, incl_s

    def layer_errors(self) -> dict:
        return {layer: len(self._raised[layer]) for layer in LAYERS}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")
