"""Module-keyed engine: memoized on the alive mask; each module's
survivors are its highest members, so the mask is canonical.

Partition the vertices into modules of pairwise (colored) twins. Twins
are interchangeable by an automorphism, so a position is determined up
to isomorphism by how many vertices of each module survive. The search
starts with every module fully alive and each move removes the lowest
alive members of the modules it plays in, so the mask and those counts
determine each other on every position reached. Every move removes two
vertices, so within one search the mask also fixes the side to move.
The key space has size at most prod(|M_i| + 1).

Between two modules adjacency is uniform (every pair or no pair, one
color), and inside a module likewise, so one candidate edge per module
pair (taken between lowest alive members) covers every playable edge
up to isomorphism of the child. The pairs each side may play are listed
once per search, and inner positions try them in that order.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement
from time import perf_counter
from typing import Iterable, Optional

from ..graph import ColoredGraph, Player, VertexError
from ..params import ModulePartition, nd_partition
from .common import PLAYABLE, Move, Outcome, SearchStats, search


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


class _ModuleSearch:
    def __init__(self, g: ColoredGraph, partition, restrict_to: Optional[Iterable[int]]):
        modules = _resolve_partition(g, partition)
        self.module_masks = tuple(sum(1 << v for v in m) for m in modules)
        playing = range(len(modules))
        if restrict_to is not None:
            # Only a union of modules keeps the representative edges exact.
            inside = set(restrict_to)
            hits = [sum(v in inside for v in m) for m in modules]
            if any(0 < hit < len(m) for hit, m in zip(hits, modules)):
                raise ValueError("restriction set must be a union of modules")
            playing = [i for i, hit in enumerate(hits) if hit]
        # Per side, the module pairs (i, j), i <= j, whose edges it may
        # play; i == j is an edge inside a module of two or more (a
        # one-vertex module pairs v with itself, which has no color).
        # Twins give all edges of a pair one color, so one pair of
        # members decides it.
        pairs = [
            (i, j, g.color_of(modules[i][0], modules[j][-1 if i == j else 0]))
            for i, j in combinations_with_replacement(playing, 2)
        ]
        self.pairs = tuple(
            tuple((i, j) for i, j, c in pairs if c in playable) for playable in PLAYABLE
        )

    def candidates(self, mask: int, side: int, key: int) -> list[Move]:
        """One edge mask per playable module pair with both ends alive:
        the lowest alive member of module i and the lowest other alive
        member of module j."""
        mm = self.module_masks
        moves = []
        for i, j in self.pairs[side]:
            a = mask & mm[i]
            low = a & -a
            b = mask & mm[j] & ~low
            if a and b:  # when i == j, b needs a second alive member
                moves.append(low | b & -b)
        return moves


def _run(
    g: ColoredGraph,
    turn: Player,
    partition,
    short_circuit: bool,
    restrict_to: Optional[Iterable[int]] = None,
) -> Outcome:
    t0 = perf_counter()
    ms = _ModuleSearch(g, partition, restrict_to)
    return search(g, turn, None, ms.candidates, short_circuit, t0)


def solve_nd(g: ColoredGraph, turn: Player, partition=None) -> Outcome:
    """Solve with a supplied module partition (validated: pairwise
    colored twins covering the alive vertices) or the computed coarsest
    one."""
    return _run(g, turn, partition, short_circuit=True)


def count_nd_positions(
    g: ColoredGraph,
    turn: Player,
    partition=None,
    restrict_to: Optional[Iterable[int]] = None,
) -> SearchStats:
    """Full-expansion instrumentation; optionally restrict moves to edges
    inside a vertex set (a union of modules), as in the clique-family
    state-space experiment."""
    return _run(g, turn, partition, short_circuit=False, restrict_to=restrict_to).stats
