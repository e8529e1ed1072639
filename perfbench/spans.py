"""In-memory span tracer for the zdgraph layers.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper, at every place it is bound: the defining module, the
modules that imported it by name, and the package namespace.  A call made
from inside another traced call becomes its child span, so a layer's self
time is its span minus the spans it caused.

Only ``time.perf_counter`` is used; nothing outside this process is traced.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# the modules of src/zdgraph that count as layers
LAYERS = ("rings", "graphs", "threshold", "orbits", "spectral", "ringexpr", "cli", "verify")

# layers whose functions are reported as one total: the cli (argument
# handling plus rendering) and the verify_* claim checks
GROUPED = {"cli": "cli.main", "verify": "verify.claims"}

# span fields: name, start, end, parent index (-1 at top level), op id
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._bindings: list[tuple[object, str, object, object]] | None = None
        # key classes of recently built graphs, by id; the graph is held so
        # that its id cannot be reused while the entry lives
        self._graph_keys: dict[int, tuple[object, int]] = {}
        self._build_keys: dict[int, int] = {}  # build span index -> key classes

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers; the bindings are found on the first call."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for mod, name, _, wrapper in self._bindings:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._bindings or ():
            setattr(mod, name, original)

    def _find_bindings(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"zdgraph.{layer}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        bindings = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "zdgraph" or mod_name.startswith("zdgraph."):
                for name, obj in vars(mod).items():
                    if id(obj) in wrappers:
                        bindings.append((mod, name, obj, wrappers[id(obj)]))
        return bindings

    def _wrap(self, qualname: str, fn):
        spans = self.spans
        stack = self.stack
        hook = _HOOKS.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return traced

    # -- reports ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, summed over all spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[NAME]] += s[END] - s[START] - child[i]
        return out

    def top_level_seconds(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _parent_name(tracer: Tracer, idx: int) -> str | None:
    p = tracer.spans[idx][PARENT]
    return tracer.spans[p][NAME] if p >= 0 else None


def _on_annihilator_keys(tracer: Tracer, idx: int, args, keys) -> None:
    k = len(set(keys))
    tracer.counts["rings.annihilator_keys.elements"] += len(keys)
    tracer.counts["rings.annihilator_keys.key_classes"] += k
    if _parent_name(tracer, idx) == "graphs.build_zero_divisor_graph":
        tracer.counts["graphs.build_zero_divisor_graph.class_pairs"] += k * k
        tracer._build_keys[tracer.spans[idx][PARENT]] = k


def _on_build(tracer: Tracer, idx: int, args, g) -> None:
    k = tracer._build_keys.pop(idx, None)
    if k is None:
        return
    if len(tracer._graph_keys) >= 8:
        tracer._graph_keys.pop(next(iter(tracer._graph_keys)))
    tracer._graph_keys[id(g)] = (g, k)


def _on_twin_partition(tracer: Tracer, idx: int, args, part) -> None:
    g = args[0]
    tracer.counts["graphs.twin_partition.row_bytes"] += g.n * ((g.n + 7) // 8)
    twins = len(part.blocks)
    entry = tracer._graph_keys.get(id(g))
    if entry is not None and entry[0] is g:
        tracer.counts["graphs.twin_classes"] += twins
        tracer.counts["graphs.key_classes_of_twinned_graphs"] += entry[1]
    if _parent_name(tracer, idx) == "orbits.aut_orbits":
        tracer.counts["orbits.aut_orbits.quotient_vertices"] += twins


def _on_char_poly(tracer: Tracer, idx: int, args, poly) -> None:
    order = poly.degree
    tracer.counts["spectral.char_poly.order_sum"] += order
    cap = getattr(sys.modules.get("zdgraph.spectral"), "_DIRECT_CHARPOLY_CAP", 32)
    if order <= cap:
        tracer.counts["spectral.char_poly.direct_calls"] += 1
    else:
        tracer.counts["spectral.char_poly.crt_calls"] += 1


_HOOKS = {
    "rings.annihilator_keys": _on_annihilator_keys,
    "graphs.build_zero_divisor_graph": _on_build,
    "graphs.twin_partition": _on_twin_partition,
    "spectral.char_poly": _on_char_poly,
}


def grouped_self_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per function, per layer, and for the grouped layers."""
    per_fn = tracer.self_times()
    out: dict[str, float] = defaultdict(float)
    for name, secs in per_fn.items():
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += secs
        if layer in GROUPED:
            out[f"{GROUPED[layer]}.self_s"] += secs
        else:
            out[f"{name}.self_s"] += secs
    return out
