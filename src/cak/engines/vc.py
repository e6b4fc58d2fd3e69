"""Cover-keyed engine: search parameterized by a vertex cover S.

Fix a vertex cover S of the start graph (it stays fixed for the whole
search; every move kills at least one cover vertex, so recursion depth
is at most |S|). Two positions are merged when the surviving cover
vertices match and the non-cover vertices, grouped by their gray, black
and white neighbor masks within the surviving cover (equivalently, by
their vector of edge colors toward it), match as a multiset of (class,
count) pairs. Merged positions are isomorphic via any class-preserving
bijection, so they share a game value. Solve mode also merges counts
past a class's number of alive cover neighbours (the cap, below).

Moves are restricted to cover-internal edges plus, per class, the edges
of the class representative (smallest alive member): any playable edge
into a class produces a child with the same key as the representative's
edge, so nothing is lost. Inner positions try the cover-internal edges
first, then the class moves in table order (see below), both read off
per-side edge lists built once per search (common.edges_to, as in nd);
an edge to a dead cover vertex stays in them (the search skips it).

Normalization: cover vertices that are isolated in the current position
are dropped from the key, and so are non-cover vertices with an
all-absent vector (both have no moves left and cannot influence play).

The class partition depends only on the surviving cover C, and a search
meets at most 2^|S| of them, far fewer than its positions. So the search
keeps one class table per C, built the first time C is seen: every
non-cover vertex of the start graph grouped toward C, as rows sorted by
class masks, each holding only what the key reads: the shift of its
field in the key's packed int, its member mask and its cap, the field
as wide as the cap needs. A key is (C, the sum of each row's alive
member count, at most its cap, shifted into its field, side): one walk
over the rows with no grouping, no sort and no tuple per class.

The cap is the paper's bound by the cover alone. Non-cover vertices are
pairwise non-adjacent, so every move that removes a class member also
kills one of the class's d alive cover neighbours, and at most d members
can ever leave. Positions whose counts of a class are both at least d
therefore share a game value, and solve mode caps each row at
min(class size, d): equal keys mean equal game value, and every count
is at most |S|. Count mode caps each row at its class's size, which no
count exceeds, so it measures the uncapped key space: as the table
depends only on C, equal keys there are equal multisets of (class,
count) pairs, whose non-isolated alive subgraphs are isomorphic, and
vc_canonical_key decodes that key.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..graph import ColoredGraph, Player, bits, resolve_alive
from ..params import as_cover, cover_classes, min_vertex_cover
from .common import PLAYERS, Move, Outcome, SearchStats, edges_to, search, side_reach

VcKey = tuple[int, int, int]  # alive cover mask, packed class sizes, side
_ClassPairs = tuple[tuple[tuple[int, int, int], int], ...]  # sorted (class masks, size)


class _CoverSearch:
    def __init__(self, g: ColoredGraph, cover: Optional[Iterable[int]], capped: bool = False):
        cover_set = min_vertex_cover(g).vertices if cover is None else as_cover(g, cover)
        self.g = g
        self.capped = capped  # solve mode: each row capped at its cover degree
        self.cover_mask = sum(1 << v for v in cover_set)
        self.noncover = g.alive & ~self.cover_mask
        nbr = g.neighbor_masks()
        self.cover_nbrs = tuple((1 << s, nbr[s]) for s in cover_set)  # for key's alive cover
        # Per side: each vertex's playable edges to the cover, and the cover-
        # internal ones among them, each taken at its lower end (edge order).
        cm = self.cover_mask
        self.to_cover = edges_to(side_reach(g), cm)
        self.internal = tuple(
            tuple(em for u in bits(cm) for em in t[u] if em >> u + 1) for t in self.to_cover
        )
        self.tables: dict[int, tuple] = {}  # per alive cover mask (see table)

    def table(self, alive_cover: int) -> tuple:
        """The cover classes of every non-cover vertex toward alive_cover,
        without the all-absent class, as rows (shift, members, cap)
        sorted by class masks: the shift of the class's count field in
        the key, the member mask, and the cap on the count (the class's
        size, and when capped also its number of cover neighbours)."""
        classes = cover_classes(self.g, self.noncover, alive_cover)
        classes.pop((0, 0, 0), None)
        rows, shift = [], 0
        for masks, members in sorted(classes.items()):
            cap = len(members)
            if self.capped:
                cap = min(cap, (masks[0] | masks[1] | masks[2]).bit_count())
            rows.append((shift, sum(1 << v for v in members), cap))
            shift += cap.bit_length()
        return tuple(rows)

    def key(self, mask: int, side: int) -> VcKey:
        """Walks the alive cover mask's table once, adding each row's
        alive member count, at most its cap, into its field. The side
        stays in the key: isolated vertices are dropped from it, so the
        key does not fix how many vertices are alive."""
        alive_cover = 0
        for sb, ns in self.cover_nbrs:
            if mask & sb and mask & ns:
                alive_cover |= sb
        rows = self.tables.get(alive_cover)
        if rows is None:
            rows = self.tables[alive_cover] = self.table(alive_cover)
        packed = 0
        for shift, members, cap in rows:
            if alive := members & mask:
                c = alive.bit_count()
                packed += (c if c < cap else cap) << shift
        return (alive_cover, packed, side)

    def candidates(self, mask: int, side: int, key) -> list[Move]:
        """The side's cover-internal moves, then per alive row of the
        key's table the side's edges from the row's lowest alive member to
        the cover, as edge masks, dead ends included (the search skips them)."""
        moves = list(self.internal[side])
        to_cover = self.to_cover[side]
        for _, members, _ in self.tables[key[0]]:
            if alive := members & mask:
                moves += to_cover[(alive & -alive).bit_length() - 1]
        return moves


def vc_canonical_key(
    g: ColoredGraph, alive: Optional[int], cover: Iterable[int], turn: Player
) -> tuple[int, _ClassPairs, int]:
    """The engine's count-mode (uncapped) memo key of a position for a
    fixed cover, decoded (exposed for testing): the mask of alive,
    non-isolated cover vertices, the sorted (class masks, class size)
    pairs, and the side to move as its index in PLAYERS (0 = B, 1 = W).
    It decodes each row's field and reads its masks off the row's lowest member."""
    cs = _CoverSearch(g, cover)
    alive_cover, packed, side = cs.key(resolve_alive(g, alive), PLAYERS.index(turn))
    pairs = []
    for shift, members, cap in cs.tables[alive_cover]:
        if count := packed >> shift & ((1 << cap.bit_length()) - 1):
            v = (members & -members).bit_length() - 1
            pairs.append((tuple(m[v] & alive_cover for m in g.color_masks()), count))
    return (alive_cover, tuple(pairs), side)


def solve_vc(g: ColoredGraph, turn: Player, cover: Optional[Iterable[int]] = None) -> Outcome:
    """Solve with a supplied cover, or a freshly computed minimum one,
    each class keyed up to its number of alive cover neighbours."""
    return search(g, turn, lambda: _CoverSearch(g, cover, True), short_circuit=True)


def count_vc_positions(
    g: ColoredGraph, turn: Player, cover: Optional[Iterable[int]] = None
) -> SearchStats:
    """Full-expansion instrumentation: the OR over children is evaluated
    without short-circuiting, so node_expansions counts the entire
    memoized recursion tree, under the uncapped key."""
    return search(g, turn, lambda: _CoverSearch(g, cover), short_circuit=False).stats
