"""Spans around calls into the layers of `cak`, recorded from outside.

`Tracer.install()` replaces each traced public function, in every loaded
`cak` module namespace (and module-level dicts) that refers to it, with a
wrapper that records a span: name, start, end, parent span and instance
id. A call into a layer that is already the innermost open span (for
example `count_subset_positions` calling `solve_subset`) is not a new
span. `tree_component_code` runs once per tree-engine node, so it is
counted and timed per call instead of getting a span.

Spans stay in memory; `layer_metrics` turns one pass's spans into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (defining module, function name); the span name is "<layer>.<function>".
TRACED = (
    ("cak.cli", "main"),
    ("cak.graph", "parse_graph"),
    ("cak.bench", "pick_auto_engine"),
    ("cak.params", "min_vertex_cover"),
    ("cak.params", "nd_partition"),
    ("cak.params", "equivalence_classes"),
    ("cak.engines.subset", "solve_subset"),
    ("cak.engines.subset", "count_subset_positions"),
    ("cak.engines.vc", "solve_vc"),
    ("cak.engines.vc", "count_vc_positions"),
    ("cak.engines.nd", "solve_nd"),
    ("cak.engines.nd", "count_nd_positions"),
    ("cak.engines.tree", "solve_tree"),
    ("cak.engines.tree", "grundy_tree"),
)
ENGINES = ("subset", "vc", "nd", "tree")
PARAMS = {"min_vertex_cover": "tau_s", "nd_partition": "nu_s", "equivalence_classes": "classes_s"}

PER_LAYER = (
    *(f"engines.subset.{m}" for m in ("search_s", "nodes", "memo_hits", "distinct_keys", "hit_ratio", "nodes_per_s")),
    *(f"engines.vc.{m}" for m in ("search_s", "nodes", "distinct_keys", "hit_ratio", "nodes_per_s", "key_us")),
    "params.tau_s",
    "params.nu_s",
    "params.classes_s",
    *(f"engines.tree.{m}" for m in ("search_s", "nodes", "hit_ratio", "nodes_per_s", "code_us")),
    *(f"engines.nd.{m}" for m in ("search_s", "nodes", "distinct_keys", "hit_ratio", "nodes_per_s")),
    "bench.pick_s",
    "graph.parse_s",
    "cli.self_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "instance", "stats", "codes")

    def __init__(self, name, layer, start, parent, instance):
        self.name, self.layer, self.start, self.parent = name, layer, start, parent
        self.instance = instance
        self.end = start
        self.stats = None  # engine counters: nodes, memo_hits, distinct_keys
        self.codes = None  # tree engine: [calls, seconds, set of codes returned]

    def to_json(self, t0: float, self_s: float) -> dict:
        out = {
            "name": self.name,
            "start": self.start - t0,
            "end": self.end - t0,
            "self": self_s,
            "parent": self.parent,
            "instance": self.instance,
        }
        if self.stats:
            out["stats"] = self.stats
        return out


def _stats_of(result):
    stats = getattr(result, "stats", result)
    if hasattr(stats, "node_expansions"):
        return {
            "nodes": stats.node_expansions,
            "memo_hits": stats.memo_hits,
            "distinct_keys": stats.distinct_keys,
        }
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.instance = None

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        is_engine = layer.startswith("engines.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]].layer == layer:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            span = Span(name, layer, perf_counter(), parent, self.instance)
            if layer == "engines.tree":
                span.codes = [0, 0.0, set()]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
            if span.codes is not None:
                calls, _, codes = span.codes
                span.stats = {"nodes": calls, "memo_hits": calls - len(codes), "distinct_keys": len(codes)}
            elif is_engine:
                span.stats = _stats_of(result)
            return result

        return traced

    def _wrap_tree_code(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t = perf_counter()
            code = fn(*args, **kwargs)
            dt = perf_counter() - t
            span = self.spans[self.stack[-1]] if self.stack else None
            if span is not None and span.codes is not None:
                span.codes[0] += 1
                span.codes[1] += dt
                span.codes[2].add(code)
            return code

        return timed

    def install(self) -> None:
        """Replace the traced functions in every loaded cak namespace."""
        import cak.cli  # noqa: F401  (loads the package and the CLI)

        replace = {}
        for module_name, fn_name in TRACED:
            fn = getattr(sys.modules[module_name], fn_name)
            layer = module_name.removeprefix("cak.")
            replace[id(fn)] = (fn, self._wrap(fn, layer))
        code_fn = sys.modules["cak.engines.tree"].tree_component_code
        replace[id(code_fn)] = (code_fn, self._wrap_tree_code(code_fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "cak" and not module_name.startswith("cak."):
                continue
            namespaces = [vars(module)]
            namespaces += [v for v in vars(module).values() if type(v) is dict]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    hit = replace.get(id(value))
                    if hit is not None and hit[0] is value:
                        ns[key] = hit[1]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], vc_keys: tuple[int, float]) -> dict:
    """Per-layer metrics of one traced pass; vc_keys is (calls, seconds)
    of the vc_canonical_key probe."""
    own = self_times(spans)
    m = dict.fromkeys(PER_LAYER, 0)
    counts = {e: {"nodes": 0, "memo_hits": 0, "distinct_keys": 0} for e in ENGINES}
    code_calls, code_s = 0, 0.0
    for s, self_s in zip(spans, own):
        layer, fn_name = s.name.rsplit(".", 1)
        if layer.startswith("engines."):
            engine = layer.split(".")[1]
            m[f"{layer}.search_s"] += self_s
            if s.codes is not None:
                code_calls += s.codes[0]
                code_s += s.codes[1]
            for k in counts[engine]:
                counts[engine][k] += (s.stats or {}).get(k, 0)
        elif layer == "params":
            m[f"params.{PARAMS[fn_name]}"] += s.end - s.start
        elif layer == "bench":
            m["bench.pick_s"] += s.end - s.start
        elif layer == "graph":
            m["graph.parse_s"] += s.end - s.start
        elif layer == "cli":
            m["cli.self_s"] += self_s
    for engine, c in counts.items():
        prefix = f"engines.{engine}"
        for k, v in c.items():
            if f"{prefix}.{k}" in m:
                m[f"{prefix}.{k}"] = v
        if c["nodes"]:
            m[f"{prefix}.hit_ratio"] = c["memo_hits"] / c["nodes"]
        if m[f"{prefix}.search_s"] > 0:
            m[f"{prefix}.nodes_per_s"] = c["nodes"] / m[f"{prefix}.search_s"]
    if code_calls:
        m["engines.tree.code_us"] = code_s / code_calls * 1e6
    if vc_keys[0]:
        m["engines.vc.key_us"] = vc_keys[1] / vc_keys[0] * 1e6
    return m
