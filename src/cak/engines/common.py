"""Shared engine types: outcomes, search statistics, small helpers."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from ..graph import ColoredGraph, Player


class CapacityError(ValueError):
    """Instance exceeds an engine's representable size."""


@dataclass
class SearchStats:
    """Instrumentation counters.

    node_expansions counts recursion-tree nodes visited: every evaluation
    of a position, where an answer served from the memo table is a leaf
    visit. memo_hits counts those leaf visits; distinct_keys is the final
    memo size. This matches recursion-tree accounting: with short-circuit
    disabled, node_expansions is the number of recursive calls made.
    """

    node_expansions: int = 0
    memo_hits: int = 0
    distinct_keys: int = 0
    elapsed: float = 0.0


@dataclass
class Outcome:
    """winner is B or W; winning_move is present exactly when the mover
    wins and is then a playable edge whose child position loses for the
    opponent (the lexicographically smallest such edge)."""

    winner: Player
    winning_move: Optional[tuple[int, int]]
    stats: SearchStats


Move = tuple[int, int, int]  # (u, v, bitmask of u and v)


def playable_edges(g: ColoredGraph, player: Player) -> tuple[Move, ...]:
    return tuple((u, v, 1 << u | 1 << v) for u, v, c in g.edges if player.can_play(c))


@contextmanager
def recursion_capacity() -> Iterator[None]:
    """Turn a RecursionError inside the block into a CapacityError. The
    searches recurse once per move played, so a long enough game outruns
    Python's recursion limit; that is a size limit, not a crash."""
    try:
        yield
    except RecursionError:
        raise CapacityError(
            "search needs more nested calls than the recursion limit"
            f" ({sys.getrecursionlimit()}) allows; the position is too"
            " large for this engine"
        ) from None


def search(
    g: ColoredGraph,
    turn: Player,
    key: Callable[[int, Player], Hashable],
    moves: Callable[[int, Player, Hashable], Iterable[Move]],
    short_circuit: bool,
    started: float,
) -> Outcome:
    """Memoized win/loss search from g's alive vertices, turn to move.

    key(mask, player) names the class of positions sharing a game value;
    moves(mask, player, k) lists the candidate moves of a position whose
    key k was just computed. A candidate whose endpoints are not both
    alive is skipped. With short_circuit off, every child is evaluated,
    so the stats cover the whole memoized recursion tree. started is
    the perf_counter() reading the elapsed time is measured from, so an
    engine's set-up (cover, partition) counts too.
    """
    memo: dict = {}
    stats = SearchStats()

    def first_win(mask: int, player: Player):
        """Truthy iff the mover wins. An expanded position returns its
        first winning candidate (u, v) or None; a memo hit, the stored bool."""
        stats.node_expansions += 1
        k = key(mask, player)
        cached = memo.get(k)
        if cached is not None:
            stats.memo_hits += 1
            return cached
        found = None
        opp = player.opponent
        for u, v, em in moves(mask, player, k):
            if mask & em == em and not first_win(mask & ~em, opp) and found is None:
                found = (u, v)
                if short_circuit:
                    break
        memo[k] = found is not None
        return found

    with recursion_capacity():
        move = first_win(g.alive, turn)  # the root is never a memo hit
    stats.distinct_keys = len(memo)
    stats.elapsed = perf_counter() - started
    winner = turn if move is not None else turn.opponent
    return Outcome(winner, move, stats)


def mex(values) -> int:
    """Minimum excluded nonnegative integer."""
    seen = set(values)
    k = 0
    while k in seen:
        k += 1
    return k


def resolve_alive(g: ColoredGraph, alive: Optional[int]) -> int:
    if alive is None:
        return g.alive
    if not isinstance(alive, int) or alive < 0 or alive & ~g.alive:
        raise ValueError("alive mask must be a subset of the graph's live vertices")
    return alive


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
