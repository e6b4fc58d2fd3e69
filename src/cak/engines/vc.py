"""Cover-keyed engine: search parameterized by a vertex cover S.

Fix a vertex cover S of the start graph (it stays fixed for the whole
search; every move kills at least one cover vertex, so recursion depth
is at most |S|). Two positions are merged when the surviving cover
vertices match and the non-cover vertices, grouped by their vector of
edge colors toward the surviving cover, match as a multiset of
(vector, count) pairs. Merged positions are isomorphic via any
class-preserving bijection, so they share a game value.

Moves are restricted to cover-internal edges plus, per class, the edges
of the class representative (smallest alive member): any playable edge
into a class produces a child with the same key as the representative's
edge, so nothing is lost.

Normalization: cover vertices that are isolated in the current position
are dropped from the key, and so are non-cover vertices with an
all-absent vector (both have no moves left and cannot influence play).
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional

from ..graph import Color, ColoredGraph, Player
from ..params import as_cover, cover_classes, min_vertex_cover
from .common import Move, Outcome, SearchStats, resolve_alive, search

VcKey = tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...], Player]


class _CoverSearch:
    def __init__(self, g: ColoredGraph, cover: Optional[Iterable[int]]):
        if cover is None:
            cover_set = min_vertex_cover(g).vertices
        else:
            cover_set = as_cover(g, cover)
        self.g = g
        self.cover = tuple(sorted(cover_set))
        self.noncover = tuple(v for v in range(g.n) if v not in cover_set)
        self.nbr = g.neighbor_masks()
        self.internal = tuple(
            (u, v, c) for u, v, c in g.edges if u in cover_set and v in cover_set
        )

    def classes(self, mask: int, alive_cover: tuple[int, ...]):
        """Class vector -> sorted alive members, all-absent vectors dropped."""
        classes = cover_classes(self.g, mask, alive_cover, self.noncover)
        classes.pop((0,) * len(alive_cover), None)
        return classes

    def key(self, mask: int, player: Player) -> VcKey:
        alive_cover = tuple(
            s for s in self.cover if mask >> s & 1 and self.nbr[s] & mask
        )
        classes = self.classes(mask, alive_cover)
        counts = tuple(sorted((vec, len(members)) for vec, members in classes.items()))
        return (alive_cover, counts, player)

    def candidates(self, mask: int, player: Player, key: VcKey) -> list[Move]:
        alive_cover = key[0]
        moves = set()
        for u, v, c in self.internal:
            if mask >> u & 1 and mask >> v & 1 and player.can_play(c):
                moves.add((u, v, 1 << u | 1 << v))
        for vector, members in self.classes(mask, alive_cover).items():
            rep = members[0]
            for u, code in zip(alive_cover, vector):
                if code and player.can_play(Color(code)):
                    moves.add((min(u, rep), max(u, rep), 1 << u | 1 << rep))
        return sorted(moves)


def vc_canonical_key(
    g: ColoredGraph, alive: Optional[int], cover: Iterable[int], turn: Player
) -> VcKey:
    """Memo key of a position for a fixed cover (exposed for testing)."""
    return _CoverSearch(g, cover).key(resolve_alive(g, alive), turn)


def _run(
    g: ColoredGraph, turn: Player, cover: Optional[Iterable[int]], short_circuit: bool
) -> Outcome:
    t0 = perf_counter()
    cs = _CoverSearch(g, cover)
    return search(g, turn, cs.key, cs.candidates, short_circuit, t0)


def solve_vc(
    g: ColoredGraph, turn: Player, cover: Optional[Iterable[int]] = None
) -> Outcome:
    """Solve with a supplied cover, or a freshly computed minimum one."""
    return _run(g, turn, cover, short_circuit=True)


def count_vc_positions(
    g: ColoredGraph, turn: Player, cover: Optional[Iterable[int]] = None
) -> SearchStats:
    """Full-expansion instrumentation: the OR over children is evaluated
    without short-circuiting, so node_expansions counts the entire
    memoized recursion tree."""
    return _run(g, turn, cover, short_circuit=False).stats
