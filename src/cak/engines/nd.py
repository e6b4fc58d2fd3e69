"""Module-keyed engine: search over per-module survivor counts.

Partition the vertices into modules of pairwise (colored) twins. Twins
are interchangeable by an automorphism, so a position is determined up
to isomorphism by how many vertices of each module survive, and the
memo key is just that tuple of counts plus the turn. The key space has
size at most 2 * prod(|M_i| + 1).

Between two modules adjacency is uniform (every pair or no pair, one
color), and inside a module likewise, so one candidate edge per module
pair (taken between smallest alive members) covers every playable edge
up to child-key equality.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional

from ..graph import ColoredGraph, Player, VertexError
from ..params import ModulePartition, nd_partition
from .common import PLAYABLE, Move, Outcome, SearchStats, search

NdKey = tuple[tuple[int, ...], int]


def _resolve_partition(g: ColoredGraph, partition) -> tuple[tuple[int, ...], ...]:
    if partition is None:
        return nd_partition(g).modules
    if isinstance(partition, ModulePartition):
        modules = partition.modules
    else:
        modules = tuple(tuple(sorted(m)) for m in partition)
    # Twinness is an equivalence, so pairwise twins share one coarsest class.
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
        for i, u in enumerate(module):
            for v in module[i + 1 :]:
                if class_of[u] != class_of[v]:
                    raise VertexError("invalid partition: {} and {} are not colored twins", u, v)
    if seen != set(g.alive_vertices()):
        raise ValueError("invalid partition: modules must cover every alive vertex")
    return tuple(sorted(modules))


class _ModuleSearch:
    def __init__(self, g: ColoredGraph, partition):
        self.modules = _resolve_partition(g, partition)
        self.module_masks = tuple(sum(1 << v for v in m) for m in self.modules)
        nu = len(self.modules)
        # Uniform colors: between module pair (one or no color), and inside.
        self.inter = [[None] * nu for _ in range(nu)]
        for i in range(nu):
            for j in range(i + 1, nu):
                c = g.color_of(self.modules[i][0], self.modules[j][0])
                self.inter[i][j] = self.inter[j][i] = c
        self.internal = [
            g.color_of(m[0], m[1]) if len(m) > 1 else None for m in self.modules
        ]
        self.allowed_pairs = None  # None = all

    def restrict(self, vertices: Iterable[int]) -> None:
        """Only allow moves with both endpoints in `vertices`, which must
        be a union of modules (so candidate edges stay representative)."""
        vset = set(vertices)
        inside = []
        for idx, module in enumerate(self.modules):
            hit = sum(1 for v in module if v in vset)
            if hit == len(module):
                inside.append(idx)
            elif hit:
                raise ValueError("restriction set must be a union of modules")
        self.allowed_pairs = set(inside)

    def key(self, mask: int, side: int) -> NdKey:
        return (tuple((mask & mm).bit_count() for mm in self.module_masks), side)

    def candidates(self, mask: int, side: int, key: NdKey) -> list[Move]:
        counts = key[0]
        playable = PLAYABLE[side]
        moves = []
        nu = len(self.modules)
        for i in range(nu):
            if counts[i] == 0:
                continue
            if self.allowed_pairs is not None and i not in self.allowed_pairs:
                continue
            alive_i = [v for v in self.modules[i] if mask >> v & 1]
            c = self.internal[i]
            if counts[i] >= 2 and c in playable:
                u, v = alive_i[0], alive_i[1]
                moves.append((u, v, 1 << u | 1 << v))
            for j in range(i + 1, nu):
                if counts[j] == 0:
                    continue
                if self.allowed_pairs is not None and j not in self.allowed_pairs:
                    continue
                c = self.inter[i][j]
                if c in playable:
                    u = alive_i[0]
                    v = next(w for w in self.modules[j] if mask >> w & 1)
                    moves.append((min(u, v), max(u, v), 1 << u | 1 << v))
        moves.sort()
        return moves


def _run(
    g: ColoredGraph,
    turn: Player,
    partition,
    short_circuit: bool,
    restrict_to: Optional[Iterable[int]] = None,
) -> Outcome:
    t0 = perf_counter()
    ms = _ModuleSearch(g, partition)
    if restrict_to is not None:
        ms.restrict(restrict_to)
    return search(g, turn, ms.key, ms.candidates, short_circuit, t0)


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
