"""Structural parameters: vertex covers, twin modules, cover classes.

These feed the parameterized engines: the cover-keyed engine needs an
exact minimum vertex cover and per-position equivalence classes of the
non-cover vertices; the module-keyed engine needs a partition of the
vertices into (colored) twin classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import Color, ColoredGraph, bits


@dataclass(frozen=True)
class VertexCover:
    vertices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class ModulePartition:
    """Disjoint modules covering the alive vertices, each a set of
    pairwise twins; sorted by smallest member. kind records whether edge
    colors were part of the twin test."""

    modules: tuple[tuple[int, ...], ...]
    kind: str  # "twin" | "colored-twin"

    @property
    def count(self) -> int:
        return len(self.modules)


@dataclass
class EquivalenceClasses:
    """Non-cover vertices grouped by their color vector toward the cover.

    cover_order lists the alive cover vertices in increasing id; every
    class vector is aligned to it, one entry per cover vertex, with 0
    for absent and Color values otherwise. Members are sorted, so the
    representative of a class is its first (smallest-id) member.
    """

    cover_order: tuple[int, ...]
    classes: dict[tuple[int, ...], tuple[int, ...]]

    def representative(self, vector: tuple[int, ...]) -> int:
        return self.classes[vector][0]


def _greedy_matching(nbr: tuple[int, ...], live: int) -> int:
    """Vertices of a greedily built maximal matching of the graph on
    live: each vertex in increasing id, if still unmatched, takes its
    smallest unmatched live neighbor."""
    used = 0
    for u in bits(live):
        if not used >> u & 1:
            free = nbr[u] & live & ~used
            if free:
                used |= 1 << u | (free & -free)
    return used


def min_vertex_cover(g: ColoredGraph) -> VertexCover:
    """Exact minimum vertex cover by branch and bound.

    Reductions: isolated vertices are dropped; a degree-1 vertex forces
    its neighbor into the cover. Branching picks a maximum-degree vertex
    v (smallest id on ties) and tries "v in cover" then "N(v) in cover";
    a greedy-matching lower bound (each matched edge needs a cover
    vertex of its own) prunes against the incumbent, which starts as
    the matched vertices. Fully deterministic for a given graph.
    Intended for covers up to ~25.
    """
    nbr = g.neighbor_masks()
    best = [_greedy_matching(nbr, g.alive)]

    def reduce(live: int, chosen: int) -> tuple[int, int]:
        """Apply the degree-0/1 reductions, always to the smallest
        vertex first; returns the reduced (live, chosen)."""
        while True:
            for v in bits(live):
                adj = nbr[v] & live
                if not adj:
                    live &= ~(1 << v)
                elif not adj & (adj - 1):
                    chosen |= adj
                    live &= ~(adj | 1 << v)
                    break
            else:
                return live, chosen

    def branch(live: int, chosen: int) -> None:
        live, chosen = reduce(live, chosen)
        bound = chosen.bit_count() + _greedy_matching(nbr, live).bit_count() // 2
        if bound >= best[0].bit_count():
            return
        if not live:
            best[0] = chosen
            return
        v = max(bits(live), key=lambda x: (nbr[x] & live).bit_count())
        branch(live & ~(1 << v), chosen | 1 << v)
        neighbors = nbr[v] & live
        branch(live & ~neighbors, chosen | neighbors)

    branch(g.alive, 0)
    return VertexCover(frozenset(bits(best[0])))


def nd_partition(g: ColoredGraph, ignore_colors: bool = False) -> ModulePartition:
    """Coarsest partition of the alive vertices into twin modules.

    Twins look the same from every third vertex, a transitive relation,
    so its equivalence classes are the unique minimum-size valid
    partition; the module count is the (colored) neighborhood diversity.
    Vertices are grouped by their neighbor masks, one per edge color
    (one in all when ignore_colors): non-adjacent twins have equal
    masks, and twins joined by an edge of color c have equal masks once
    each vertex's own bit is added to its color-c mask. Isolated
    vertices are twins of each other and share one module.
    """
    slots = 1 if ignore_colors else len(Color)
    masks = [[0] * g.n for _ in range(slots)]
    for u, v, c in g.edges:
        slot = masks[0 if ignore_colors else c - 1]
        slot[u] |= 1 << v
        slot[v] |= 1 << u
    groups: dict[tuple, list[int]] = {}
    verts = g.alive_vertices()
    for v in verts:
        sig = tuple(slot[v] for slot in masks)
        groups.setdefault((-1, sig), []).append(v)
        for i in range(slots):
            closed = sig[:i] + (sig[i] | 1 << v,) + sig[i + 1 :]
            groups.setdefault((i, closed), []).append(v)
    # A vertex's twins are all non-adjacent to it or all joined to it in
    # one color, so it lies in at most one group of two or more.
    module_of = {v: members for members in groups.values() if len(members) > 1 for v in members}
    modules = []
    for v in verts:
        members = module_of.get(v, [v])
        if members[0] == v:
            modules.append(tuple(members))
    kind = "twin" if ignore_colors else "colored-twin"
    return ModulePartition(tuple(modules), kind)


def _check_cover(g: ColoredGraph, cover, mask: int) -> None:
    """Raise unless cover meets every edge between vertices alive in mask."""
    for u, v, _ in g.edges:
        if mask >> u & 1 and mask >> v & 1 and u not in cover and v not in cover:
            raise ValueError(f"not a vertex cover: edge {{{u}, {v}}} uncovered")


def as_cover(g: ColoredGraph, cover) -> frozenset[int]:
    """Normalize a user-supplied cover and verify it covers g's edges."""
    if isinstance(cover, VertexCover):
        vertices = cover.vertices
    else:
        vertices = frozenset(cover)
    for v in vertices:
        if not (0 <= v < g.n):
            raise ValueError(f"cover vertex {v} out of range")
    _check_cover(g, vertices, g.alive)
    return vertices


def cover_classes(
    g: ColoredGraph, mask: int, cover_order: tuple[int, ...], noncover: Iterable[int]
) -> dict[tuple[int, ...], list[int]]:
    """The alive vertices of noncover grouped by their vector of edge
    colors toward cover_order: one entry per cover vertex, 0 for absent
    and the Color value otherwise. Members keep noncover's order."""
    color_of = g.color_of
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in noncover:
        if mask >> v & 1:
            vector = tuple(
                0 if (c := color_of(v, u)) is None else int(c) for u in cover_order
            )
            classes.setdefault(vector, []).append(v)
    return classes


def equivalence_classes(
    g: ColoredGraph, alive: Optional[int] = None, cover: Optional[Iterable[int]] = None
) -> EquivalenceClasses:
    """Group the alive non-cover vertices by their vector of edge colors
    toward the alive cover vertices. Raises when the cover misses an
    alive edge."""
    mask = g.alive if alive is None else alive
    if mask & ~g.alive:
        raise ValueError("alive mask keeps a dead vertex")
    cover_set = set(min_vertex_cover(g).vertices if cover is None else cover)
    cover_order = tuple(v for v in sorted(cover_set) if mask >> v & 1)
    noncover = [v for v in range(g.n) if v not in cover_set]
    _check_cover(g, cover_set, mask)
    members = cover_classes(g, mask, cover_order, noncover)
    return EquivalenceClasses(cover_order, {k: tuple(v) for k, v in sorted(members.items())})


def representative_edges(
    g: ColoredGraph, alive: Optional[int] = None, cover: Optional[Iterable[int]] = None
) -> set[tuple[int, int]]:
    """Edges between alive cover vertices and class representatives.

    For each equivalence class, only its smallest member keeps its edges
    toward the cover; a search restricted to these (plus cover-internal
    edges) reaches child positions equivalent to those of the full move
    set."""
    classes = equivalence_classes(g, alive, cover)
    result: set[tuple[int, int]] = set()
    for vector, group in classes.classes.items():
        rep = group[0]
        for u, code in zip(classes.cover_order, vector):
            if code:
                result.add((min(u, rep), max(u, rep)))
    return result
