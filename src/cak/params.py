"""Structural parameters: vertex covers, twin modules, cover classes.

These feed the parameterized engines: the cover-keyed engine needs an
exact minimum vertex cover and per-position equivalence classes of the
non-cover vertices; the module-keyed engine needs a partition of the
vertices into (colored) twin classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import ColoredGraph, VertexError, bits


@dataclass(frozen=True)
class VertexCover:
    vertices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class ModulePartition:
    """Disjoint modules covering the alive vertices, each a set of
    pairwise colored twins; sorted by smallest member."""

    modules: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.modules)


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


def _cover_below(nbr: tuple[int, ...], live: int, limit: int) -> Optional[int]:
    """Branch and bound for a vertex cover of the graph on live with
    fewer than limit vertices: the first minimum one found, or None.

    Reductions: isolated vertices are dropped; a degree-1 vertex forces
    its neighbor into the cover. Branching picks a maximum-degree vertex
    v (smallest id on ties) and tries "v in cover" then "N(v) in cover";
    a greedy-matching lower bound (each matched edge needs a cover
    vertex of its own) prunes against the size to beat: limit, then the
    size of the best cover found.
    """
    best: list = [None, limit]  # cover found, size to beat

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
        if bound >= best[1]:
            return
        if not live:
            best[:] = [chosen, chosen.bit_count()]
            return
        v = max(bits(live), key=lambda x: (nbr[x] & live).bit_count())
        branch(live & ~(1 << v), chosen | 1 << v)
        neighbors = nbr[v] & live
        branch(live & ~neighbors, chosen | neighbors)

    branch(live, 0)
    return best[0]


def min_vertex_cover(g: ColoredGraph) -> VertexCover:
    """Exact minimum vertex cover: the greedy-matching vertices, unless
    the branch and bound finds a smaller cover. Fully deterministic for
    a given graph; exponential in the cover size, so intended for covers
    up to ~25.
    """
    nbr = g.neighbor_masks()
    greedy = _greedy_matching(nbr, g.alive)
    found = _cover_below(nbr, g.alive, greedy.bit_count())
    return VertexCover(frozenset(bits(greedy if found is None else found)))


def cover_at_most(g: ColoredGraph, k: int) -> bool:
    """Whether g has a vertex cover of at most k vertices. Every branch
    chooses one vertex or more and is cut before k + 1, so the search
    visits O(2^k) nodes however large the cover really is."""
    return _cover_below(g.neighbor_masks(), g.alive, k + 1) is not None


def nd_partition(g: ColoredGraph) -> ModulePartition:
    """Coarsest partition of the alive vertices into colored twin modules.

    Twins look the same from every third vertex, a transitive relation,
    so its equivalence classes are the unique minimum-size valid
    partition; the module count is the colored neighborhood diversity.
    Vertices are grouped by their neighbor masks, one per edge color:
    non-adjacent twins have equal masks, and twins joined by an edge of
    color c have equal masks once each vertex's own bit is added to its
    color-c mask. Isolated vertices are twins of each other and share
    one module.
    """
    masks = g.color_masks()
    groups: dict[tuple, list[int]] = {}
    verts = g.alive_vertices()
    for v in verts:
        sig = tuple(slot[v] for slot in masks)
        groups.setdefault((-1, sig), []).append(v)
        for i in range(len(masks)):
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
    return ModulePartition(tuple(modules))


def as_cover(g: ColoredGraph, cover) -> frozenset[int]:
    """Normalize a user-supplied cover, check that its ids are vertices
    of g, and verify that it meets every edge of g."""
    vertices = cover.vertices if isinstance(cover, VertexCover) else frozenset(cover)
    for v in vertices:
        if not isinstance(v, int):
            raise VertexError("cover vertex {} is not an int", v)
        if not (0 <= v < g.n):
            raise VertexError("cover vertex {} out of range", v)
    for u, v, _ in g.edges:
        if u not in vertices and v not in vertices:
            raise VertexError("not a vertex cover: edge {{{}, {}}} uncovered", u, v)
    return vertices


def cover_classes(
    g: ColoredGraph, noncover: int, cover: int
) -> dict[tuple[int, int, int], list[int]]:
    """The vertices of the mask noncover, in increasing id, grouped by
    their gray, black and white neighbor masks within the mask cover:
    two vertices share a class exactly when each cover vertex is joined
    to both by an edge of the same color, or to neither."""
    gray, black, white = g.color_masks()
    classes: dict[tuple[int, int, int], list[int]] = {}
    for v in bits(noncover):
        classes.setdefault((gray[v] & cover, black[v] & cover, white[v] & cover), []).append(v)
    return classes


def equivalence_classes(
    g: ColoredGraph, cover: Optional[Iterable[int]] = None
) -> dict[tuple[int, int, int], list[int]]:
    """The cover classes of the position g: cover_classes of its alive
    non-cover vertices toward its alive cover vertices. cover defaults
    to a minimum vertex cover of g; a given one is checked by as_cover.
    For a sub-position, pass induced_mask(g, mask)."""
    vertices = min_vertex_cover(g).vertices if cover is None else as_cover(g, cover)
    alive_cover = sum(1 << v for v in vertices) & g.alive
    return cover_classes(g, g.alive & ~alive_cover, alive_cover)
