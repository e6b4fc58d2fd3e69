"""Subset engine: the nd search on the partition into single vertices.

Every reachable position is an induced subgraph of the start graph, so
one dict over vertex-subset bitmasks caches the whole game. One-vertex
modules merge nothing, so the keys are canonicalization-free: this
engine is the semantic baseline the cover- and module-keyed engines are
measured against. Its moves are nd's fixed edges, in nd's order, and
its capacity check is nd's: the key space of one-vertex modules is
2^alive, refused when over 2^max_n.
"""

from __future__ import annotations

from ..graph import ColoredGraph, Player
from . import nd
from .common import Outcome, SearchStats, search


def _build(g: ColoredGraph, max_n: int) -> nd._ModuleSearch:
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    # One-vertex modules are colored twins trivially, so nothing to check.
    modules = tuple((v,) for v in g.alive_vertices())
    return nd._build(g, modules, max_bits=max_n, engine="subset")


def solve_subset(g: ColoredGraph, turn: Player, max_n: int = nd.MAX_KEY_BITS) -> Outcome:
    return search(g, turn, lambda: _build(g, max_n), short_circuit=True)


def count_subset_positions(
    g: ColoredGraph, turn: Player, max_n: int = nd.MAX_KEY_BITS
) -> SearchStats:
    """Full-expansion instrumentation: every child is evaluated, so
    node_expansions counts the entire memoized recursion tree."""
    return search(g, turn, lambda: _build(g, max_n), short_circuit=False).stats
