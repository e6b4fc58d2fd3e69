"""Subset engine: solve mode searches edge sets; count mode is nd on the
partition into single vertices, keyed on the alive mask (2^alive keys).

A move removes its edge and every edge sharing an end (the paper's
move), so a position is its set of remaining edges, and positions that
differ only in vertices with no edge left share a key. No key needs
canonicalization: this is the baseline the other engines are measured
against. Each side numbers its playable edges in nd's move order (most
opponent edges destroyed first, ties in (u, v) order); a position is one
int, B's edge bits and then W's, each field as wide as the larger side's
edge count, and a move ANDs it with the complement of its kill mask,
every edge at either end in both fields. The key adds the side to move
above both fields, except when both sides play the same edges (all
gray): the game is then impartial, and one field serves both sides.
Both modes refuse as nd does on one-vertex modules: 2^alive over 2^max_n.
"""

from __future__ import annotations

from time import perf_counter

from ..graph import ColoredGraph, Player, bits
from . import nd
from .common import PLAYERS, Outcome, SearchStats, playable_edges, recursion_capacity
from .common import search, side_reach


def _check(g: ColoredGraph, max_n: int) -> None:
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    nd.check_key_space(1 << g.alive.bit_count(), max_n, "subset")


def _build(g: ColoredGraph, max_n: int) -> nd._ModuleSearch:
    _check(g, max_n)
    # One-vertex modules are colored twins trivially, so nothing to check.
    return nd._ModuleSearch(g, tuple((v,) for v in g.alive_vertices()), None)


def _edge_sides(g: ColoredGraph, max_n: int) -> tuple:
    """Per side (indexed like PLAYERS): its edges in move order, each
    one's keep mask (the complement of its kill mask), and (shift, full
    mask) of its field; and per side to move, the flag the key adds."""
    _check(g, max_n)
    reach = side_reach(g)
    order = [
        sorted(playable_edges(g, p), key=lambda em: -nd._destroyed(em, reach[side ^ 1]))
        for side, p in enumerate(PLAYERS)
    ]
    width = 0 if order[0] == order[1] else max(map(len, order))
    incident = [0] * g.n  # each vertex's edge bits, in both fields
    for side, edges in enumerate(order):
        for i, em in enumerate(edges):
            for v in bits(em):
                incident[v] |= 1 << width * side + i
    keeps = [[~(incident[u] | incident[v]) for u, v in map(bits, edges)] for edges in order]
    fields = [(width * side, (1 << len(edges)) - 1) for side, edges in enumerate(order)]
    return order, keeps, fields, (0, 1 << 2 * width if width else 0)


def solve_subset(g: ColoredGraph, turn: Player, max_n: int = nd.MAX_KEY_BITS) -> Outcome:
    started = perf_counter()
    order, keeps, fields, flags = _edge_sides(g, max_n)
    setup_s = perf_counter() - started
    memo: dict = {}
    hits = 0

    def wins(state: int, side: int, moves: int) -> bool:
        """Whether one of moves, a mask over the side's edge numbers tried
        lowest first, wins the position state. Each child's key is probed
        here, so a memo hit costs no call, and a miss stores its answer."""
        nonlocal hits
        opp = side ^ 1
        keep, flag = keeps[side], flags[opp]
        shift, field = fields[opp]
        while moves:
            low = moves & -moves
            moves ^= low
            child = state & keep[low.bit_length() - 1]
            ck = child | flag
            won = memo.get(ck)
            if won is None:
                won = memo[ck] = wins(child, opp, child >> shift & field)
            else:
                hits += 1
            if not won:
                return True
        return False

    # The root tries its edges in (u, v) order, so the first that wins is the smallest.
    side = PLAYERS.index(turn)
    root = fields[0][1] | fields[1][1] << fields[1][0]
    edges = order[side]
    with recursion_capacity():
        by_edge = sorted(range(len(edges)), key=lambda i: bits(edges[i]))
        move = next((edges[i] for i in by_edge if wins(root, side, 1 << i)), None)
    memo[root | flags[side]] = move is not None
    stats = SearchStats(hits + len(memo), hits, len(memo), perf_counter() - started, setup_s)
    return Outcome(turn if move else turn.opponent, move and tuple(bits(move)), stats)


def count_subset_positions(
    g: ColoredGraph, turn: Player, max_n: int = nd.MAX_KEY_BITS
) -> SearchStats:
    """Full-expansion instrumentation: every child is evaluated, so
    node_expansions counts the entire memoized recursion tree."""
    return search(g, turn, lambda: _build(g, max_n), short_circuit=False).stats
