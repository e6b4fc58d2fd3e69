"""Subset engine: memoized search keyed by the alive bitmask.

Every reachable position is an induced subgraph of the start graph, so
one dict over vertex-subset bitmasks caches the whole game. Every move
removes two vertices, so within one search the mask also fixes the side
to move, and the key is the mask alone. Keys are deliberately
canonicalization-free: this engine is the semantic baseline the cover-
and module-keyed engines are measured against, so it must not merge
isomorphic positions.

Move order: each side's playable edges are sorted once per search, the
edges that destroy the most opponent edges of the start graph first,
ties in lexicographic order, and every position below the root tries
them in that order. A move that leaves the opponent few replies is the
likely winner, so the search cuts off sooner. The order costs nothing
per node, and it is sound because an inner position needs only whether
its mover wins, which no order changes; the root sorts its candidates
again, so the winning move is still the smallest one.
"""

from __future__ import annotations

from time import perf_counter

from ..graph import ColoredGraph, Player, bits
from .common import (
    PLAYABLE,
    PLAYERS,
    CapacityError,
    Move,
    Outcome,
    SearchStats,
    playable_edges,
    search,
)

DEFAULT_MAX_N = 32


def _destroyed(em: Move, opp: list[int]) -> int:
    """How many of the edges in the neighbour masks opp playing em
    destroys: every one at either end, the edge itself once."""
    u, v = bits(em)
    return opp[u].bit_count() + opp[v].bit_count() - (opp[u] >> v & 1)


def _run(g: ColoredGraph, turn: Player, max_n: int, short_circuit: bool) -> Outcome:
    if g.n > max_n:
        raise CapacityError(
            f"subset engine keys {max_n}-bit masks; instance has n={g.n}"
            " (raise max_n explicitly if you mean it)"
        )
    t0 = perf_counter()
    masks = g.color_masks()
    # Per side, each vertex's neighbours over the edges that side may play.
    reach = tuple(
        [sum(masks[c - 1][v] for c in playable) for v in range(g.n)] for playable in PLAYABLE
    )

    # Per side, its playable edges, those that destroy the most opponent
    # edges first, ties in g.edges' (lexicographic) order: sorts are stable.
    edges = tuple(
        tuple(sorted(playable_edges(g, p), key=lambda em: -_destroyed(em, reach[side ^ 1])))
        for side, p in enumerate(PLAYERS)
    )

    def moves(mask: int, side: int, key) -> tuple[Move, ...]:
        return edges[side]

    return search(g, turn, None, moves, short_circuit, t0)


def solve_subset(g: ColoredGraph, turn: Player, max_n: int = DEFAULT_MAX_N) -> Outcome:
    return _run(g, turn, max_n, short_circuit=True)


def count_subset_positions(g: ColoredGraph, turn: Player, max_n: int = DEFAULT_MAX_N) -> SearchStats:
    """Full-expansion instrumentation: every child is evaluated, so
    node_expansions counts the entire memoized recursion tree."""
    return _run(g, turn, max_n, short_circuit=False).stats
