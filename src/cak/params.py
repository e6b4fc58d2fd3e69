"""Structural parameters: vertex covers, twin modules, cover classes.

These feed the parameterized engines: the cover-keyed engine needs an
exact minimum vertex cover and per-position equivalence classes of the
non-cover vertices; the module-keyed engine needs a partition of the
vertices into (colored) twin classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import ColoredGraph, VertexError, bits, resolve_alive


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
    masks = (g.neighbor_masks(),) if ignore_colors else g.color_masks()
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
    kind = "twin" if ignore_colors else "colored-twin"
    return ModulePartition(tuple(modules), kind)


def _check_cover(g: ColoredGraph, cover, mask: int) -> None:
    """Raise unless cover meets every edge between vertices alive in mask."""
    for u, v, _ in g.edges:
        if mask >> u & 1 and mask >> v & 1 and u not in cover and v not in cover:
            raise VertexError("not a vertex cover: edge {{{}, {}}} uncovered", u, v)


def as_cover(g: ColoredGraph, cover) -> frozenset[int]:
    """Normalize a user-supplied cover and verify it covers g's edges."""
    if isinstance(cover, VertexCover):
        vertices = cover.vertices
    else:
        vertices = frozenset(cover)
    for v in vertices:
        if not (0 <= v < g.n):
            raise VertexError("cover vertex {} out of range", v)
    _check_cover(g, vertices, g.alive)
    return vertices


def cover_classes(
    g: ColoredGraph, noncover: int, cover: int
) -> dict[tuple[int, int, int], list[int]]:
    """The vertices of the mask noncover, in increasing id, grouped by
    their gray, black and white neighbor masks within the mask cover.
    Given cover, these masks and the class vector fix each other."""
    gray, black, white = g.color_masks()
    classes: dict[tuple[int, int, int], list[int]] = {}
    for v in bits(noncover):
        classes.setdefault((gray[v] & cover, black[v] & cover, white[v] & cover), []).append(v)
    return classes


def class_vector(masks: tuple[int, int, int], order: tuple[int, ...]) -> tuple[int, ...]:
    """A class's color masks as its vector of Color values toward order, 0 for absent."""
    gray, black, white = masks
    return tuple((gray >> u & 1) + (black >> u & 1) * 2 + (white >> u & 1) * 3 for u in order)


def equivalence_classes(
    g: ColoredGraph, alive: Optional[int] = None, cover: Optional[Iterable[int]] = None
) -> EquivalenceClasses:
    """Group the alive non-cover vertices by their vector of edge colors
    toward the alive cover vertices. Raises when the cover misses an
    alive edge."""
    mask = resolve_alive(g, alive)
    cover_set = set(min_vertex_cover(g).vertices if cover is None else cover)
    alive_cover = sum(1 << v for v in cover_set) & mask
    cover_order = tuple(bits(alive_cover))
    _check_cover(g, cover_set, mask)
    members = cover_classes(g, mask & ~alive_cover, alive_cover)
    vectors = {class_vector(k, cover_order): tuple(v) for k, v in members.items()}
    return EquivalenceClasses(cover_order, dict(sorted(vectors.items())))


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
