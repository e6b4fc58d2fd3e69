"""Subset engine: the nd search on the partition into single vertices.

Every reachable position is an induced subgraph of the start graph, so
one dict over vertex-subset bitmasks caches the whole game. One-vertex
modules merge nothing, so the keys are canonicalization-free: this
engine is the semantic baseline the cover- and module-keyed engines are
measured against. Its moves are nd's fixed edges, in nd's order. What
subset adds is the capacity check on n.
"""

from __future__ import annotations

from ..graph import ColoredGraph, Player
from . import nd
from .common import CapacityError, Outcome, SearchStats, search

DEFAULT_MAX_N = nd.MAX_KEY_BITS


def _build(g: ColoredGraph, max_n: int) -> nd._ModuleSearch:
    if g.n > max_n:
        raise CapacityError(
            f"subset engine keys {max_n}-bit masks; instance has n={g.n}"
            " (raise max_n explicitly if you mean it)"
        )
    # One-vertex modules are colored twins trivially, so nothing to check.
    return nd._ModuleSearch(g, tuple((v,) for v in g.alive_vertices()), None)


def solve_subset(g: ColoredGraph, turn: Player, max_n: int = DEFAULT_MAX_N) -> Outcome:
    return search(g, turn, lambda: _build(g, max_n), short_circuit=True)


def count_subset_positions(g: ColoredGraph, turn: Player, max_n: int = DEFAULT_MAX_N) -> SearchStats:
    """Full-expansion instrumentation: every child is evaluated, so
    node_expansions counts the entire memoized recursion tree."""
    return search(g, turn, lambda: _build(g, max_n), short_circuit=False).stats
