"""Reference engine: plain recursion, no memo, no pruning.

The mover wins iff some playable edge leads to a position the opponent
loses. This is the executable definition of the game and the oracle the
cleverer engines are checked against; anything beyond ~14 edges is out
of its league.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from ..graph import Color, ColoredGraph, Player, bits
from .common import (
    Outcome,
    SearchStats,
    mex,
    playable_edges,
    recursion_capacity,
    split_components,
)


def solve_naive(g: ColoredGraph, turn: Player) -> Outcome:
    t0 = perf_counter()
    edges = {p: playable_edges(g, p) for p in Player}
    stats = SearchStats()

    def first_win(mask: int, player: Player) -> Optional[int]:
        """The mask of the first edge after which the opponent loses, or None."""
        stats.node_expansions += 1
        opp = player.opponent
        for em in edges[player]:
            if mask & em == em and first_win(mask & ~em, opp) is None:
                return em
        return None

    with recursion_capacity():
        move = first_win(g.alive, turn)
    stats.elapsed = perf_counter() - t0
    winner = turn if move is not None else turn.opponent
    return Outcome(winner, None if move is None else tuple(bits(move)), stats)


def grundy_naive(g: ColoredGraph) -> int:
    """Sprague-Grundy value of an all-gray position, by direct recursion.

    Components are independent summands, so the value of a position is
    the XOR of its components' values and a single component's value is
    the mex over its moves. No memoization.
    """
    if any(c is not Color.GRAY for _, _, c in g.edges):
        raise ValueError("grundy values need an all-gray (impartial) position")
    nbr = g.neighbor_masks()
    edges = tuple((1 << u | 1 << v) for u, v, _ in g.edges)

    def value(mask: int) -> int:
        comps = split_components(mask, nbr)
        if not comps:
            return 0
        if len(comps) > 1:
            total = 0
            for comp in comps:
                total ^= value(comp)
            return total
        comp = comps[0]
        child_values = set()
        for em in edges:
            if comp & em == em:
                child_values.add(value(comp & ~em))
        return mex(child_values)

    with recursion_capacity():
        return value(g.alive)
