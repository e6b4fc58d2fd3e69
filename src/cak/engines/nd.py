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
it over 2^MAX_KEY_BITS is refused. That is the one capacity check of
nd and subset, which on one-vertex modules has bound 2^alive.

Between two modules adjacency is uniform (every pair or no pair, one
color), and inside a module likewise, so one edge per module pair, at
lowest alive members, covers every playable edge up to isomorphism of
the child; a larger module (two or more members) plays its lowest alive
member's edges to one-vertex modules, off common.edges_to as vc does.

Move order, per side: fixed edges (between one-vertex modules), the
larger modules' edges to one-vertex modules, then pairs of larger
modules, the first and last sorted once per search by how many opponent
edges of the start graph they destroy, most first, ties in (u, v) and
(i, j) order: a move that leaves the opponent few replies likely wins,
so the search cuts off sooner. No order changes whether an inner
position's mover wins, and the root sorts its candidates again. subset
numbers its edges in this order: on one-vertex modules every edge is
fixed.
"""

from __future__ import annotations

from itertools import chain
from math import log2, prod
from typing import Iterable, Optional, Sequence

from ..graph import ColoredGraph, Player, VertexError, bits
from ..params import ModulePartition, nd_partition
from .common import CapacityError, Move, Outcome, SearchStats, edges_to, search, side_reach

# The default limit on log2 prod(|M_i| + 1), the key space of an
# alive-mask search: nd's bound, and subset's default max_n.
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


def _destroyed(em: Move, opp: Sequence[int]) -> int:
    """How many of the edges in the neighbour masks opp playing em
    destroys: every one at either end, the edge itself once."""
    u, v = bits(em)
    return opp[u].bit_count() + opp[v].bit_count() - (opp[u] >> v & 1)


class _ModuleSearch:
    key = None  # the search keys a position on its alive mask

    def __init__(self, g: ColoredGraph, modules, restrict_to: Optional[Iterable[int]]):
        self.module_masks = mm = tuple(sum(1 << v for v in m) for m in modules)
        inside = g.alive
        if restrict_to is not None:
            # Only a union of modules keeps the representative edges exact.
            kept = set(restrict_to)
            if any(0 < sum(v in kept for v in m) < len(m) for m in modules):
                raise ValueError("restriction set must be a union of modules")
            inside = sum(m for m, module in zip(mm, modules) if module[0] in kept)
        one = sum(m for m in mm if m & inside and not m & m - 1)
        larger = [i for i, m in enumerate(mm) if m & inside and m & m - 1]
        reach = side_reach(g)
        self.sides = []  # per side: fixed edges, then what candidates adds to them
        for side, to_one in enumerate(edges_to(reach, one)):
            opp = reach[side ^ 1]
            fixed = [em for u in bits(one) for em in to_one[u] if em >> u + 1]
            fixed.sort(key=lambda em: -_destroyed(em, opp))  # stable: ties stay in (u, v) order
            groups = tuple(mm[i] for i in larger if to_one[modules[i][0]])
            # Twins give a pair's edges one color and count: first members speak for it.
            pairs = []
            for at, i in enumerate(larger):
                for j in larger[at:]:
                    u, v = modules[i][0], modules[j][1 if i == j else 0]
                    if reach[side][u] >> v & 1:
                        pairs.append((-_destroyed(1 << u | 1 << v, opp), i, j))
            pairs = tuple((mm[i], mm[j]) for _, i, j in sorted(pairs))
            self.sides.append((tuple(fixed), groups, to_one, pairs))

    def candidates(self, mask: int, side: int, key: int) -> Sequence[Move]:
        """The side's fixed edges, each larger module's lowest alive
        member's edges to one-vertex modules, then per playable pair of
        larger modules i <= j the edge from i's lowest alive member to
        j's lowest other one, when both are alive."""
        moves, groups, to_one, pairs = self.sides[side]
        for m in groups:
            if a := mask & m:
                moves += to_one[(a & -a).bit_length() - 1]
        if pairs:
            moves = list(moves)
            for mi, mj in pairs:
                a = mask & mi
                low = a & -a
                b = mask & mj & ~low
                if a and b:  # when i == j, b needs a second alive member
                    moves.append(low | b & -b)
        return moves


def check_key_space(bound: int, max_bits: int, engine: str) -> None:
    """Refuse, naming the engine run, a key space bound prod(|M_i| + 1)
    over 2^max_bits."""
    if (bound - 1).bit_length() > max_bits:  # bound > 2^max_bits, with no 2^max_bits built
        raise CapacityError(
            f"{engine} engine keys up to prod(|M_i|+1) = 2^{log2(bound):.1f} positions;"
            f" the limit is 2^{max_bits}"
        )


def _build(g: ColoredGraph, modules, restrict_to=None) -> _ModuleSearch:
    """The search over resolved modules, refused when its key space is too large."""
    check_key_space(prod(len(m) + 1 for m in modules), MAX_KEY_BITS, "nd")
    return _ModuleSearch(g, modules, restrict_to)


def solve_nd(g: ColoredGraph, turn: Player, partition=None) -> Outcome:
    """Solve with a supplied module partition (validated: pairwise colored
    twins covering the alive vertices) or the computed coarsest one."""
    return search(g, turn, lambda: _build(g, _resolve_partition(g, partition)), True)


def count_nd_positions(
    g: ColoredGraph,
    turn: Player,
    partition=None,
    restrict_to: Optional[Iterable[int]] = None,
) -> SearchStats:
    """Full-expansion instrumentation; optionally restrict moves to edges
    inside a vertex set (a union of modules), as in the clique-family
    state-space experiment."""
    return search(
        g, turn, lambda: _build(g, _resolve_partition(g, partition), restrict_to), False
    ).stats
