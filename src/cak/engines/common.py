"""Shared engine types: outcomes, search statistics, small helpers."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Optional, Sequence

from ..graph import Color, ColoredGraph, Player, bits


class CapacityError(ValueError):
    """Instance exceeds an engine's representable size."""


@dataclass
class SearchStats:
    """Instrumentation counters.

    node_expansions counts recursion-tree nodes visited: every evaluation
    of a position, where an answer served from the memo table is a leaf
    visit. memo_hits counts those leaf visits; distinct_keys is the final
    memo size. Every other visit stores one new key (a move leaves fewer
    edges, so a position's key is not met below it), so node_expansions
    is memo_hits + distinct_keys; with short-circuit disabled, that is
    the whole memoized recursion tree.
    elapsed is the whole search in seconds, and setup_s the part of it
    spent on the engine's set-up before the first position.
    """

    node_expansions: int = 0
    memo_hits: int = 0
    distinct_keys: int = 0
    elapsed: float = 0.0
    setup_s: float = 0.0


@dataclass
class Outcome:
    """winner is B or W; winning_move is present exactly when the mover
    wins and is then a playable edge whose child position loses for the
    opponent (the lexicographically smallest such edge)."""

    winner: Player
    winning_move: Optional[tuple[int, int]]
    stats: SearchStats


Move = int  # an edge {u, v} as its endpoint mask 1 << u | 1 << v

PLAYERS = (Player.B, Player.W)  # a search's side index names one of these


def side_reach(g: ColoredGraph) -> tuple[tuple[int, ...], ...]:
    """Per side, indexed like PLAYERS, each vertex's neighbours over the
    edges that side may play: the sum of those colours' neighbour masks."""
    masks = g.color_masks()
    return tuple(
        tuple(map(sum, zip(*(masks[c - 1] for c in Color if p.can_play(c))))) for p in PLAYERS
    )


def edges_to(
    reach: Sequence[Sequence[int]], target: int
) -> tuple[tuple[tuple[Move, ...], ...], ...]:
    """Per side of side_reach's result reach, each vertex v's playable
    edges to the vertex set target, as edge masks 1 << v | 1 << u in
    increasing u."""
    return tuple(
        tuple(tuple(1 << v | 1 << u for u in bits(m & target)) for v, m in enumerate(r))
        for r in reach
    )


def playable_edges(g: ColoredGraph, player: Player) -> tuple[Move, ...]:
    return tuple(1 << u | 1 << v for u, v, c in g.edges if player.can_play(c))


@contextmanager
def recursion_capacity() -> Iterator[None]:
    """Turn a RecursionError inside the block into a CapacityError. Each
    move played nests one call (two in tree), so a long enough game
    outruns Python's recursion limit; that is a size limit, not a crash."""
    try:
        yield
    except RecursionError:
        raise CapacityError(
            "search needs more nested calls than the recursion limit"
            f" ({sys.getrecursionlimit()}) allows; the position is too"
            " large for this engine"
        ) from None


def search(
    g: ColoredGraph, turn: Player, build: Callable[[], Any], short_circuit: bool
) -> Outcome:
    """Memoized win/loss search from g's alive vertices, turn to move.

    build() makes the engine's set-up (cover, partition, tables) and
    returns an object with key and candidates; the clock starts before
    it, so set-up counts in the elapsed time. The side to move is an
    index into PLAYERS (0 = B, 1 = W), and the opponent of side is
    side ^ 1. candidates(mask, side, k) lists the edge masks of a
    position's candidate moves when its key k missed the memo; one whose
    endpoints are not both alive is skipped. The key is the alive mask
    when key is None, else key(mask, side): the class of positions
    sharing a game value, for an engine that canonicalizes.
    Every move removes two vertices, so within one search the number of
    alive vertices fixes the side to move; a key may leave the side out
    only when it fixes that number, as the mask does.

    The root tries its candidates sorted by edge, not by mask ((0, 5) is
    33, (1, 2) is 6), so the first losing child it meets is the smallest
    winning move, whose (u, v) it reads off the mask. An inner position
    needs only whether its mover wins, so it tries its candidates in
    the order candidates makes them. With short_circuit off, every child
    is evaluated, so the stats cover the whole memoized recursion tree
    whatever the order.
    """
    started = perf_counter()
    engine = build()
    setup_s = perf_counter() - started
    key, moves = engine.key, engine.candidates
    memo: dict = {}
    hits = 0

    def first_win(mask: int, side: int, candidates: Sequence[Move]) -> Optional[Move]:
        """The first winning candidate's mask of a position, or None.
        Each child's key is probed here, so a memo hit costs no call,
        and a miss stores the child's answer."""
        nonlocal hits
        found = None
        opp = side ^ 1
        for em in candidates:
            if mask & em == em:
                child = mask ^ em
                ck = child if key is None else key(child, opp)
                won = memo.get(ck)
                if won is None:
                    won = memo[ck] = first_win(child, opp, moves(child, opp, ck)) is not None
                else:
                    hits += 1
                if not won and found is None:
                    found = em
                    if short_circuit:
                        break
        return found

    side = PLAYERS.index(turn)
    k = g.alive if key is None else key(g.alive, side)
    with recursion_capacity():
        move = first_win(g.alive, side, sorted(moves(g.alive, side, k), key=bits))
    memo[k] = move is not None
    stats = SearchStats(hits + len(memo), hits, len(memo), perf_counter() - started, setup_s)
    winner = turn if move is not None else turn.opponent
    return Outcome(winner, None if move is None else tuple(bits(move)), stats)


def mex(values) -> int:
    """Minimum excluded nonnegative integer."""
    seen = set(values)
    k = 0
    while k in seen:
        k += 1
    return k


def split_components(mask: int, nbr: Sequence[int]) -> list[int]:
    """Connected components with at least one edge, as bitmasks.

    Vertices isolated within mask are skipped: they carry no moves and
    have game value zero.
    """
    comps = []
    rest = mask
    while rest:
        bit = rest & -rest
        v = bit.bit_length() - 1
        if not nbr[v] & mask:
            rest ^= bit
            continue
        comp = bit
        frontier = bit
        while frontier:
            fb = frontier & -frontier
            frontier ^= fb
            grow = nbr[fb.bit_length() - 1] & mask & ~comp
            comp |= grow
            frontier |= grow
        comps.append(comp)
        rest &= ~comp
    return comps
