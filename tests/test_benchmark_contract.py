"""The library surface that perfbench/ relies on, and the engine options
the CLI and `cak bench` can pass. perfbench/ is read here, never
changed: it is the benchmark both sides of a change are measured with."""

import importlib
import importlib.util
from inspect import signature
from pathlib import Path

from cak import Player, gen_random, min_vertex_cover
from cak.engines import COUNTERS, GRUNDY, SOLVERS, vc_canonical_key

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Every option the CLI (--max-n, --cover, --partition) or `cak bench`
# (restrict_clique_edges) hands to a registry function.
PASSED_OPTIONS = {"max_n", "cover", "partition", "restrict_to"}


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_name_perfbench_calls_resolves_to_a_callable():
    names = (
        *_traced(),
        ("cak.engines.tree", "tree_component_code"),
        ("cak.engines", "solve_subset"),
        ("cak.graph", "remove_closed_edge"),
    )
    for module, name in names:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_vc_canonical_key_takes_positional_arguments():
    g = gen_random(8, 0.4, seed=5)
    cover = min_vertex_cover(g).vertices
    mask = g.alive & ~1
    key = vc_canonical_key(g, mask, cover, Player.W)
    assert key[-1] == 1  # W's side index


def test_engine_options_are_the_ones_the_cli_or_bench_pass():
    for registry in (SOLVERS, COUNTERS):
        for name, fn in registry.items():
            g, turn, *options = signature(fn).parameters
            assert (g, turn) == ("g", "turn"), name
            assert set(options) <= PASSED_OPTIONS, (name, options)
    for name, fn in GRUNDY.items():
        assert list(signature(fn).parameters) == ["g"], name
