"""Subset engine: memoized search keyed by the alive bitmask.

Every reachable position is an induced subgraph of the start graph, so
one dict over vertex-subset bitmasks caches the whole game. Every move
removes two vertices, so within one search the mask also fixes the side
to move, and the key is the mask alone. Keys are deliberately
canonicalization-free: this engine is the semantic baseline the cover-
and module-keyed engines are measured against, so it must not merge
isomorphic positions.
"""

from __future__ import annotations

from time import perf_counter

from ..graph import ColoredGraph, Player
from .common import PLAYERS, CapacityError, Move, Outcome, SearchStats, playable_edges, search

DEFAULT_MAX_N = 32


def _run(g: ColoredGraph, turn: Player, max_n: int, short_circuit: bool) -> Outcome:
    if g.n > max_n:
        raise CapacityError(
            f"subset engine keys {max_n}-bit masks; instance has n={g.n}"
            " (raise max_n explicitly if you mean it)"
        )
    t0 = perf_counter()
    edges = tuple(playable_edges(g, p) for p in PLAYERS)

    def moves(mask: int, side: int, key) -> tuple[Move, ...]:
        return edges[side]

    return search(g, turn, lambda mask, side: mask, moves, short_circuit, t0)


def solve_subset(g: ColoredGraph, turn: Player, max_n: int = DEFAULT_MAX_N) -> Outcome:
    return _run(g, turn, max_n, short_circuit=True)


def count_subset_positions(g: ColoredGraph, turn: Player, max_n: int = DEFAULT_MAX_N) -> SearchStats:
    """Full-expansion instrumentation: every child is evaluated, so
    node_expansions counts the entire memoized recursion tree."""
    return _run(g, turn, max_n, short_circuit=False).stats
