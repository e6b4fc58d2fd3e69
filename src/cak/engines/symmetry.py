"""Colour-preserving automorphisms of a colored graph. subset's solve
mode uses them at the root, and imports this module only when a root
needs it, so that `import cak` does not compile it: an all-gray root
looks for a mirror strategy among their products before any edge, and
a root that finds none, or whose first edge has lost, tries one edge
per orbit.
"""

from __future__ import annotations

from ..graph import ColoredGraph

MIRROR_SEARCH = 64  # products of the maps that mirror tries, the identity included


def automorphisms(g: ColoredGraph) -> tuple[list[dict[int, int]], dict[int, int]]:
    """Some colour-preserving automorphisms of g, as maps of its vertices with
    edges, and per edge mask the first edge, in (u, v) order, of its orbit
    under them. Colour refinement splits the vertices into classes; each
    class's lowest vertex v0 is sent to each member w outside its orbit
    so far by a joint BFS from v0 and w (then from the lowest unmapped
    vertex and the lowest unused one of its class) that pairs unpaired
    neighbours of one colour and class in increasing id order. A map is
    kept only if it sends every edge to an edge of its colour."""
    masks = g.color_masks()
    verts = [v for v in range(g.n) if g.neighbor_masks()[v]]
    adj: dict = {v: [] for v in verts}
    for u, v, c in g.edges:
        adj[u].append((c - 1, v))
        adj[v].append((c - 1, u))
    cls = dict.fromkeys(verts, 0)
    while True:
        sigs = {v: (cls[v], *sorted([3 * cls[u] + c for c, u in adj[v]])) for v in verts}
        ids = {s: i for i, s in enumerate(dict.fromkeys(sigs.values()))}
        if len(ids) == len(set(cls.values())):
            break
        cls = {v: ids[sigs[v]] for v in verts}
    # Each vertex's neighbours u as (3 * class + colour index, u), sorted.
    nbrs = {v: sorted((3 * cls[u] + c, u) for c, u in adj[v]) for v in verts}

    def pair(v0: int, w: int) -> dict[int, int] | None:
        sigma: dict = {}
        used = set()
        for seed in [v0, *verts]:
            if seed in sigma:
                continue
            y = next(y for y in [w, *verts] if y not in used and cls[y] == cls[seed])
            sigma[seed] = y
            used.add(y)
            queue = [(seed, y)]
            for x, y in queue:
                xs = [t for t in nbrs[x] if t[1] not in sigma]
                ys = [t for t in nbrs[y] if t[1] not in used]
                if [label for label, _ in xs] != [label for label, _ in ys]:
                    return None
                for (_, a), (_, b) in zip(xs, ys):
                    sigma[a] = b
                    used.add(b)
                    queue.append((a, b))
        return sigma if all(masks[c - 1][sigma[u]] >> sigma[v] & 1 for u, v, c in g.edges) else None

    def find(x: int) -> int:  # x's set in the union-find parent, named by its least member
        while parent[x] != x:
            x = parent[x]
        return x

    maps, lowest, parent = [], {}, list(range(g.n))  # parent: the vertex orbits so far
    for w in verts:
        v0 = lowest.setdefault(cls[w], w)
        if find(w) != find(v0) and (sigma := pair(v0, w)):
            maps.append(sigma)
            for a, b in sigma.items():
                a, b = find(a), find(b)
                parent[max(a, b)] = min(a, b)
    # Sweep each edge orbit from its first edge: g.edges are in (u, v)
    # order, and maps keep colours, so an orbit holds edges of one colour.
    at = {1 << u | 1 << v: j for j, (u, v, _) in enumerate(g.edges)}
    images = [[at[1 << s[u] | 1 << s[v]] for u, v, _ in g.edges] for s in maps]
    lead = [-1] * g.m
    for j in range(g.m):
        orbit = [j] if lead[j] < 0 else []
        for k in orbit:
            lead[k] = j
            for image in images:
                if lead[image[k]] < 0 and image[k] not in orbit:
                    orbit.append(image[k])
    ems = list(at)
    return maps, {em: ems[lead[j]] for em, j in at.items()}


def mirror(g: ColoredGraph, maps: list[dict[int, int]]) -> dict[int, int] | None:
    """An involution sigma that moves every vertex with an edge and joins
    none to its image, among the first MIRROR_SEARCH products of maps
    (automorphisms of g) found breadth first; or None. When both sides
    play the same edges, sigma is the second player's winning strategy
    (Tweedledum and Tweedledee): the reply sigma(e) to a move e is an
    edge disjoint from e, so it is still there, and it leaves the
    position sigma-symmetric again. The search is not complete: a sigma
    that is no product of so few maps is missed."""
    nbrs = g.neighbor_masks()
    verts = [v for v in range(g.n) if nbrs[v]]
    steps = [tuple(s.get(v, v) for v in range(g.n)) for s in maps]
    queue = [tuple(range(g.n))]  # each product as its image of every vertex
    seen = set(queue)
    for x in queue:
        if all(x[v] != v and x[x[v]] == v and not nbrs[v] >> x[v] & 1 for v in verts):
            return {v: x[v] for v in verts}
        for s in steps:
            if len(seen) == MIRROR_SEARCH:
                break
            y = tuple(map(s.__getitem__, x))  # x, then s
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return None
