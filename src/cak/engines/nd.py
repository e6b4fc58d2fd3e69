"""Module-keyed engine: memoized on the alive mask; each module's
survivors are its highest members, so the mask is canonical.

Partition the vertices into modules of pairwise (colored) twins. Twins
are interchangeable by an automorphism, so a position is determined up
to isomorphism by how many vertices of each module survive. The search
starts with every module fully alive and each move removes the lowest
alive members of the modules it plays in, so the mask and those counts
determine each other on every position reached. Every move removes two
vertices, so within one search the mask also fixes the side to move.
The key space has size at most prod(|M_i| + 1); a partition that puts
it over 2^MAX_KEY_BITS, subset's default limit, is refused.

Between two modules adjacency is uniform (every pair or no pair, one
color), and inside a module likewise, so one candidate edge per module
pair (taken between lowest alive members) covers every playable edge
up to isomorphism of the child.

Move order: each side's playable module pairs are sorted once per
search, those whose edges destroy the most opponent edges of the start
graph first, ties on (i, j): a move that leaves the opponent few
replies likely wins, so the search cuts off sooner. Pairs of two
one-vertex modules are fixed edges, kept as one tuple of masks and
tried first. No order changes whether an inner position's mover wins,
and the root sorts its candidates again. On one-vertex modules every
pair is fixed: that search is the subset engine.
"""

from __future__ import annotations

from itertools import chain
from math import log2, prod
from typing import Iterable, Optional, Sequence

from ..graph import Color, ColoredGraph, Player, VertexError, bits
from ..params import ModulePartition, nd_partition
from .common import PLAYABLE, CapacityError, Move, Outcome, SearchStats, search

# The largest key space, in bits, an alive-mask search takes: subset's
# default max_n, and nd's bound on log2 prod(|M_i| + 1).
MAX_KEY_BITS = 32


def _resolve_partition(g: ColoredGraph, partition) -> tuple[tuple[int, ...], ...]:
    if partition is None:
        return nd_partition(g).modules
    if isinstance(partition, ModulePartition):
        modules = partition.modules
    else:
        modules = tuple(map(tuple, partition))
        for v in chain.from_iterable(modules):
            if not isinstance(v, int):
                raise VertexError("invalid partition: vertex {} is not an int", v)
        modules = tuple(tuple(sorted(m)) for m in modules)
    # Twinness is an equivalence, so pairwise twins share one coarsest
    # class, and each member need only be compared with the first.
    class_of = {v: i for i, m in enumerate(nd_partition(g).modules) for v in m}
    seen: set[int] = set()
    for module in modules:
        if not module:
            raise ValueError("invalid partition: empty module")
        for v in module:
            if not (0 <= v < g.n) or not g.alive >> v & 1:
                raise VertexError("invalid partition: vertex {} not alive in the graph", v)
            if v in seen:
                raise VertexError("invalid partition: vertex {} appears twice", v)
            seen.add(v)
        for v in module[1:]:
            if class_of[v] != class_of[module[0]]:
                raise VertexError("invalid partition: {} and {} are not colored twins", module[0], v)
    if seen != set(g.alive_vertices()):
        raise ValueError("invalid partition: modules must cover every alive vertex")
    return tuple(sorted(modules))


def _destroyed(em: Move, opp: list[int]) -> int:
    """How many of the edges in the neighbour masks opp playing em
    destroys: every one at either end, the edge itself once."""
    u, v = bits(em)
    return opp[u].bit_count() + opp[v].bit_count() - (opp[u] >> v & 1)


class _ModuleSearch:
    key = None  # the search keys a position on its alive mask

    def __init__(self, g: ColoredGraph, modules, restrict_to: Optional[Iterable[int]]):
        self.module_masks = tuple(sum(1 << v for v in m) for m in modules)
        edges = g.edges
        if restrict_to is not None:
            # Only a union of modules keeps the representative edges exact.
            inside = set(restrict_to)
            if any(0 < sum(v in inside for v in m) < len(m) for m in modules):
                raise ValueError("restriction set must be a union of modules")
            edges = [(u, v, c) for u, v, c in edges if u in inside and v in inside]
        module_of = {v: i for i, m in enumerate(modules) for v in m}
        # Each module pair (i, j), i <= j, joined by an edge, with its
        # first edge; i == j is an edge inside a module. Twins give all
        # edges of a pair one color and one destroyed count, so that edge
        # speaks for the pair.
        pairs: dict[tuple[int, int], tuple[Color, Move]] = {}
        for u, v, c in edges:
            i, j = sorted((module_of[u], module_of[v]))
            pairs.setdefault((i, j), (c, 1 << u | 1 << v))
        masks = g.color_masks()
        # Per side, each vertex's neighbours over the edges that side may play.
        reach = tuple(
            [sum(masks[c - 1][v] for c in playable) for v in range(g.n)] for playable in PLAYABLE
        )
        # Per side, in the order the module docstring gives: the fixed
        # edges, then the other pairs.
        self.sides = []
        for side, playable in enumerate(PLAYABLE):
            fixed, rest = [], []
            for _, (i, j), em in sorted(
                (-_destroyed(em, reach[side ^ 1]), ij, em)
                for ij, (c, em) in pairs.items()
                if c in playable
            ):
                if len(modules[i]) == len(modules[j]) == 1:
                    fixed.append(em)
                else:
                    rest.append((i, j))
            self.sides.append((tuple(fixed), tuple(rest)))

    def candidates(self, mask: int, side: int, key: int) -> Sequence[Move]:
        """The side's fixed edges, then one edge mask per other playable
        module pair with both ends alive: the lowest alive member of
        module i and the lowest other alive member of module j."""
        fixed, pairs = self.sides[side]
        if not pairs:
            return fixed
        mm = self.module_masks
        moves = list(fixed)
        for i, j in pairs:
            a = mask & mm[i]
            low = a & -a
            b = mask & mm[j] & ~low
            if a and b:  # when i == j, b needs a second alive member
                moves.append(low | b & -b)
        return moves


def _build(
    g: ColoredGraph, partition, restrict_to: Optional[Iterable[int]] = None
) -> _ModuleSearch:
    """The search over the resolved partition, refused when its key
    space bound prod(|M_i| + 1) is over 2^MAX_KEY_BITS."""
    modules = _resolve_partition(g, partition)
    bound = prod(len(m) + 1 for m in modules)
    if bound > 1 << MAX_KEY_BITS:
        raise CapacityError(
            f"nd engine keys up to prod(|M_i|+1) = 2^{log2(bound):.1f} positions;"
            f" the limit is 2^{MAX_KEY_BITS}"
        )
    return _ModuleSearch(g, modules, restrict_to)


def solve_nd(g: ColoredGraph, turn: Player, partition=None) -> Outcome:
    """Solve with a supplied module partition (validated: pairwise
    colored twins covering the alive vertices) or the computed coarsest
    one."""
    return search(g, turn, lambda: _build(g, partition), short_circuit=True)


def count_nd_positions(
    g: ColoredGraph,
    turn: Player,
    partition=None,
    restrict_to: Optional[Iterable[int]] = None,
) -> SearchStats:
    """Full-expansion instrumentation; optionally restrict moves to edges
    inside a vertex set (a union of modules), as in the clique-family
    state-space experiment."""
    return search(g, turn, lambda: _build(g, partition, restrict_to), short_circuit=False).stats
