"""Structural parameters: vertex covers, twin modules, cover classes.

These feed the parameterized engines: the cover-keyed engine needs an
exact minimum vertex cover and per-position equivalence classes of the
non-cover vertices; the module-keyed engine needs a partition of the
vertices into (colored) twin classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import ColoredGraph


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


def _greedy_matching_size(adj: dict[int, set[int]]) -> int:
    """Size of a greedily built maximal matching: a lower bound on the
    cover size of the residual graph (each matched edge needs a cover
    vertex of its own)."""
    used: set[int] = set()
    size = 0
    for u in sorted(adj):
        if u in used or not adj[u]:
            continue
        for v in sorted(adj[u]):
            if v not in used:
                used.add(u)
                used.add(v)
                size += 1
                break
    return size


def min_vertex_cover(g: ColoredGraph) -> VertexCover:
    """Exact minimum vertex cover by branch and bound.

    Reductions: isolated vertices are dropped; a degree-1 vertex forces
    its neighbor into the cover. Branching picks a maximum-degree vertex
    v (smallest id on ties) and tries "v in cover" then "N(v) in cover";
    a greedy-matching lower bound prunes against the incumbent. Fully
    deterministic for a given graph. Intended for covers up to ~25.
    """
    adj: dict[int, set[int]] = {}
    for u, v, _ in g.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    # Greedy maximal-matching cover as the starting incumbent.
    incumbent: set[int] = set()
    seen: set[int] = set()
    for u in sorted(adj):
        if u in seen:
            continue
        for v in sorted(adj[u]):
            if v not in seen:
                seen.add(u)
                seen.add(v)
                incumbent.update((u, v))
                break
    best = [incumbent]

    def reduce(adj: dict[int, set[int]], chosen: set[int]) -> bool:
        """Apply degree-0/1 reductions in place; False when pruned."""
        changed = True
        while changed:
            changed = False
            for v in sorted(adj):
                deg = len(adj[v])
                if deg == 0:
                    del adj[v]
                    changed = True
                elif deg == 1:
                    u = next(iter(adj[v]))
                    chosen.add(u)
                    for w in adj[u]:
                        adj[w].discard(u)
                    del adj[u]
                    del adj[v]
                    changed = True
                if changed:
                    break
        return len(chosen) + _greedy_matching_size(adj) < len(best[0])

    def branch(adj: dict[int, set[int]], chosen: set[int]):
        if not reduce(adj, chosen):
            return
        if not adj:
            best[0] = set(chosen)
            return
        v = max(sorted(adj), key=lambda x: len(adj[x]))
        # v in the cover
        adj_a = {x: set(ys) for x, ys in adj.items()}
        for w in adj_a.pop(v):
            adj_a[w].discard(v)
        branch(adj_a, chosen | {v})
        # N(v) in the cover
        neighbors = set(adj[v])
        adj_b = {x: set(ys) for x, ys in adj.items() if x not in neighbors}
        for x in adj_b:
            adj_b[x] -= neighbors
        branch(adj_b, chosen | neighbors)

    branch(adj, set())
    return VertexCover(frozenset(best[0]))


def colored_twins(g: ColoredGraph, u: int, v: int, ignore_colors: bool) -> bool:
    """Twin test: u and v look the same from every other vertex."""
    for w in g.alive_vertices():
        if w == u or w == v:
            continue
        cu, cv = g.color_of(u, w), g.color_of(v, w)
        if ignore_colors:
            if (cu is None) != (cv is None):
                return False
        elif cu is not cv:
            return False
    return True


def nd_partition(g: ColoredGraph, ignore_colors: bool = False) -> ModulePartition:
    """Coarsest partition of the alive vertices into twin modules.

    The pairwise twin relation (same colored adjacency toward every
    third vertex) is transitive, so its equivalence classes are the
    unique minimum-size valid partition; the module count is the
    (colored) neighborhood diversity. Isolated vertices are twins of
    each other and share one module.
    """
    verts = g.alive_vertices()
    modules: list[list[int]] = []
    assigned: set[int] = set()
    for u in verts:
        if u in assigned:
            continue
        module = [u]
        assigned.add(u)
        for v in verts:
            if v in assigned or v <= u:
                continue
            if colored_twins(g, u, v, ignore_colors):
                module.append(v)
                assigned.add(v)
        modules.append(module)
    kind = "twin" if ignore_colors else "colored-twin"
    return ModulePartition(tuple(tuple(m) for m in modules), kind)


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
