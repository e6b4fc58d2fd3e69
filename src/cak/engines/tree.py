"""Tree engine: Sprague-Grundy values on gray forests.

Positions decompose over components, values XOR, and one component's
value is a mex over its moves. Components are memoized by vertex set,
then by one rooted shape id: the interned sorted tuple of the children's
ids, the AHU canonical form (Aho, Hopcroft & Ullman 1974) with integers.
A part a move leaves is keyed by its shape rooted where it hangs off the
move, a root component by its shape rooted at a centroid, so components
of one rooted shape arising anywhere in the search share one evaluation.
Only the root position is split into components; the components a move
leaves, and their ids, are read off one rooted BFS of the component it
is played in. `tree_component_code` decodes the same ids into the
centroid-rooted AHU string.

Also counts, for a rooted tree, how many non-isomorphic rooted subtrees
survive at the root under play-like removals: matchings whose matched
vertices disappear (the vertex pairs of Arc Kayles moves), and closed
neighborhoods of independent sets (Node Kayles moves). These counts are
what bounds the rooted-shape memo.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterator, Optional, Sequence

from ..graph import Color, ColoredGraph, Player
from .common import Outcome, SearchStats, mex, recursion_capacity, split_components


def check_gray_forest(g: ColoredGraph) -> list[int]:
    """The components of the all-gray forest g (`split_components`);
    raise ValueError unless g is one: a graph is acyclic iff its edges
    number its vertices minus its components."""
    if any(c is not Color.GRAY for _, _, c in g.edges):
        raise ValueError("tree engine needs an all-gray position")
    comps = split_components(g.alive, g.neighbor_masks())
    if g.m != sum(comp.bit_count() - 1 for comp in comps):
        raise ValueError("not a forest: alive subgraph contains a cycle")
    return comps


def _bfs(
    nbr: Sequence[int], comp: int, root: int
) -> tuple[list[int], dict[int, int]]:
    """Breadth-first order of the vertices of comp reachable from root,
    and each one's parent (-1 at root). The neighbor masks give the
    adjacency; unreached vertices form a mask, so a cycle cannot loop."""
    order = [root]
    parent = {root: -1}
    unreached = comp & ~(1 << root)
    for v in order:
        found = nbr[v] & unreached
        unreached ^= found
        while found:
            b = found & -found
            found ^= b
            w = b.bit_length() - 1
            parent[w] = v
            order.append(w)
    return order, parent


def tree_component_code(g: ColoredGraph, comp: int) -> str:
    """Canonical form of one tree component: the AHU code rooted at the
    centroid; with two centroids, the smaller of the two rooted codes.
    It decodes the component's centroid-rooted shape ids (`_move_parts`):
    an id's children have smaller ids, so codes are built in id order."""
    ids: dict[tuple[int, ...], int] = {}
    centroids = _move_parts(comp, g.neighbor_masks(), ids)[2]()
    codes: list[str] = []
    for children in ids:
        codes.append("(" + "".join(sorted([codes[i] for i in children])) + ")")
    return min(codes[i] for i in centroids)


def _move_parts(
    comp: int, nbr: Sequence[int], ids: dict[tuple[int, ...], int]
) -> tuple[Callable[[], Iterator[tuple[int, int, list[int]]]], Callable, Callable[[], list[int]]]:
    """Three readings of one BFS of the tree component comp from its
    lowest vertex, which gives the subtree masks and their rooted shape
    ids bottom up; equal ids mean equal rooted shapes wherever the ids
    table is shared.

    moves() yields each edge (u, v), u < v, with the components of two or
    more vertices that playing it leaves. Playing the tree edge from p
    down to v leaves the subtrees of v's children, those of p's other
    children and the rest of comp above p (empty when p is the root).
    Edges come sorted and each edge's parts by lowest vertex, as if
    `split_components` split each child. The parts of an edge are built
    when it is reached: the generator is suspended, not on the stack,
    while the search recurses into them.

    shape(part, u, v) is the id of a part that playing (u, v) leaves,
    rooted where the part hangs off the edge; centroids() is the ids of
    comp rooted at each of its one or two centroids."""
    order, parent = _bfs(nbr, comp, (comp & -comp).bit_length() - 1)
    sub = {v: 1 << v for v in order}
    kids: dict[int, list[int]] = {v: [] for v in order}  # v -> its children's masks
    kid_ids: dict[int, list[int]] = {v: [] for v in order}  # v -> its children's ids
    down: dict[int, int] = {}  # v -> id of sub[v], rooted at v
    up: dict[int, int] = {}  # p -> id of comp ^ sub[p], rooted at parent[p]
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            sub[p] |= sub[v]
            kids[p].append(sub[v])
            key = kid_ids[v]
            key.sort()
            down[v] = ids.setdefault(tuple(key), len(ids))
            kid_ids[p].append(down[v])

    def above(p: int) -> int:
        """up[p]: the part above p hangs at q = parent[p] and is q's other
        subtrees plus q's own part above, so walk up to a vertex whose
        part above is known or hangs off the root, then intern back down."""
        chain = [p]
        while chain[-1] not in up and parent[parent[chain[-1]]] >= 0:
            chain.append(parent[chain[-1]])
        for p in reversed(chain):
            if p not in up:
                q = parent[p]
                around = kid_ids[q].copy()
                around.remove(down[p])
                if parent[q] >= 0:
                    around.append(up[q])
                up[p] = ids.setdefault(tuple(sorted(around)), len(ids))
        return up[chain[0]]

    def shape(part: int, u: int, w: int) -> int:
        if not part & comp & -comp:  # a subtree, rooted next to u or w
            return down[(part & (nbr[u] | nbr[w])).bit_length() - 1]
        return above(u if parent[w] == u else w)

    def centroids() -> list[int]:
        """The vertices whose subtree holds at least half of comp form a
        chain down from the root (two at one depth would hold every vertex
        but the root between them), and its last vertex c is a centroid;
        parent[c] is a second one exactly when c's subtree holds half.
        Rooted at v, comp's children are v's subtrees and the part above."""
        size = len(order)
        c = [v for v in order if 2 * sub[v].bit_count() >= size][-1]
        rooted = []
        for v in (c, parent[c]) if 2 * sub[c].bit_count() == size else (c,):
            around = kid_ids[v] + [above(v)] if parent[v] >= 0 else kid_ids[v]
            rooted.append(ids.setdefault(tuple(sorted(around)), len(ids)))
        return rooted

    def moves() -> Iterator[tuple[int, int, list[int]]]:
        rest = comp
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            later = nbr[u] & rest
            while later:
                b = later & -later
                later ^= b
                w = b.bit_length() - 1
                p, v = (u, w) if parent[w] == u else (w, u)
                below = sub[v]
                parts = [s for s in kids[v] + kids[p] if s != below and s & (s - 1)]
                if len(parts) > 1:
                    parts.sort(key=lambda s: s & -s)
                rest_above = comp & ~sub[p]
                if rest_above & (rest_above - 1):
                    parts.insert(0, rest_above)  # it holds the root, comp's lowest vertex
                yield u, w, parts

    return moves, shape, centroids


def _forest_search(
    g: ColoredGraph, solve: bool
) -> tuple[int, Optional[tuple[int, int]], SearchStats]:
    """Value of the forest position g and, with solve and a nonzero value,
    the smallest edge to a child of value zero. A component is probed by
    vertex set, then by its shape id, and its moves are expanded when both
    miss; in solve mode the root's children are its components' moves.
    The callers probe by vertex set, so a memo hit costs no call, and a
    move nests exactly two calls (evaluate, then move_values): a
    comprehension there would add a frame on the Pythons that do not
    inline it."""
    t0 = perf_counter()
    nbr = g.neighbor_masks()
    comps = check_gray_forest(g)
    setup_s = perf_counter() - t0  # the masks and the checked components
    by_mask: dict[int, int] = {}  # component mask -> value
    by_key: dict[int, int] = {}  # rooted shape id -> value
    ids: dict[tuple[int, ...], int] = {}  # children's shape ids -> shape id
    nodes = 0

    def evaluate(comp: int, key: int, tables: Optional[tuple] = None) -> int:
        """Value of a component that missed by vertex set; tables are its
        `_move_parts`, built by move_values if not given."""
        value = by_key.get(key)
        if value is None:
            values = set()
            for _, _, total in move_values(comp, tables):
                values.add(total)
            value = by_key[key] = mex(values)
        by_mask[comp] = value
        return value

    def move_values(comp: int, tables: Optional[tuple]) -> Iterator[tuple[int, int, int]]:
        """Each move (u, w) of comp with the XOR of the values of the
        parts it leaves."""
        nonlocal nodes
        moves, shape, _ = tables or _move_parts(comp, nbr, ids)
        for u, w, parts in moves():
            nodes += len(parts)
            total = 0
            for part in parts:
                value = by_mask.get(part)
                total ^= evaluate(part, shape(part, u, w)) if value is None else value
            yield u, w, total

    def root(comp: int) -> int:
        """Value of a root component, keyed by the smaller of its
        centroid-rooted ids; its tables are kept for solve mode."""
        nonlocal nodes
        nodes += 1
        tables = roots[comp] = _move_parts(comp, nbr, ids)
        return evaluate(comp, min(tables[2]()), tables)

    roots: dict[int, tuple] = {}  # root component -> its _move_parts
    value = 0
    move = None
    with recursion_capacity():
        for comp in comps:
            value ^= root(comp)
        if solve and value:
            # A move in comp leaves a zero child iff its parts XOR to rest,
            # the value of the other root components.
            for comp, tables in roots.items():
                rest = value ^ by_mask[comp]
                for u, w, total in move_values(comp, tables):
                    if total == rest:
                        move = min(move or (u, w), (u, w))
                        break
    # Every miss stores one new key (its moves reach only smaller
    # components), so the visits that are not misses are the memo hits.
    keys = len(by_key)
    return value, move, SearchStats(nodes, nodes - keys, keys, perf_counter() - t0, setup_s)


def grundy_tree(g: ColoredGraph) -> int:
    """Sprague-Grundy value of an all-gray forest position."""
    return _forest_search(g, solve=False)[0]


def solve_tree(g: ColoredGraph, turn: Player) -> Outcome:
    """Winner by Grundy value: the mover wins iff the value is nonzero,
    and then the smallest edge whose child position has value zero is a
    winning move."""
    value, move, stats = _forest_search(g, solve=True)
    return Outcome(turn if value else turn.opponent, move, stats)


# ---------------------------------------------------------------------------
# Rooted subtree counters


def _rooted_tree(g: ColoredGraph, root: int) -> tuple[list[int], dict[int, list[int]]]:
    """BFS order of the alive tree rooted at root, and each vertex's
    children. Raises ValueError unless the alive graph is a tree."""
    mask = g.alive
    if not (0 <= root < g.n) or not mask >> root & 1:
        raise ValueError(f"root {root} is not an alive vertex")
    if g.m != mask.bit_count() - 1:
        raise ValueError("not a tree: edge count differs from n - 1")
    order, parent = _bfs(g.neighbor_masks(), mask, root)
    if len(order) != mask.bit_count():
        raise ValueError("not a tree: alive subgraph is disconnected")
    children: dict[int, list[int]] = {v: [] for v in order}
    for v in order[1:]:
        children[parent[v]].append(v)
    return order, children


def _count_kept_shapes(
    order: list[int], children: dict[int, list[int]], vanishes: dict[int, bool]
) -> int:
    """Number of rooted shapes the root order[0] can keep, bottom up: each
    child stays with one of its own shapes, or disappears entirely where
    vanishes[child] holds. The children join one at a time, each kept
    choice a sorted multiset of child shape ids, so equal partial choices
    merge before the next child; a kept choice is interned as the id of
    its shape, as in `_move_parts`."""
    ids: dict[tuple[int, ...], int] = {}
    shapes: dict[int, set[int]] = {}
    for v in reversed(order):
        partial: set[tuple[int, ...]] = {()}
        for c in children[v]:
            grown = {tuple(sorted(kept + (shape,))) for kept in partial for shape in shapes[c]}
            if vanishes[c]:
                grown |= partial
            partial = grown
        shapes[v] = {ids.setdefault(kept, len(ids)) for kept in partial}
    return len(shapes[order[0]])


def count_ak_subtrees(g: ColoredGraph, root: int) -> int:
    """Number of non-isomorphic rooted subtrees at `root` reachable by
    deleting the matched vertices of some matching, where what survives
    is the root's tree plus isolated vertices (edge colors are ignored;
    the alive graph must be a tree).

    Subtree DP, per vertex v of the tree rooted at `root`:
      deletable[v] : some matching inside T_v covers v and clears T_v
                     down to isolated vertices;
      standing[v]  : T_v clears to isolated vertices with v surviving
                     (all children deletable);
    then the shapes v can retain, each child kept with one of its shapes
    or deleted.
    """
    order, children = _rooted_tree(g, root)
    deletable: dict[int, bool] = {}
    standing: dict[int, bool] = {}
    for v in reversed(order):
        ch = children[v]
        standing[v] = all(deletable[c] for c in ch)
        clearable = {c: deletable[c] or standing[c] for c in ch}
        deletable[v] = any(
            all(deletable[gc] or standing[gc] for gc in children[cj])
            and all(clearable[ci] for ci in ch if ci != cj)
            for cj in ch
        )
    return _count_kept_shapes(order, children, deletable)


def count_nk_subtrees(g: ColoredGraph, root: int) -> int:
    """Number of non-isomorphic rooted subtrees at `root` reachable by
    deleting the closed neighborhood of some independent set, where what
    survives is exactly the root's tree (the alive graph must be a tree).

    Subtree DP, per vertex v of the tree rooted at `root`:
      dominated_in[v]  : an independent set inside T_v containing v
                         dominates all of T_v;
      dominated_out[v] : same with v excluded from the set;
    then the shapes v can retain, a child kept with one of its shapes or
    wiped (dominated_out, so the kept parent is not touched).
    """
    order, children = _rooted_tree(g, root)
    dominated_in: dict[int, bool] = {}
    dominated_out: dict[int, bool] = {}
    for v in reversed(order):
        ch = children[v]
        dominated_in[v] = all(
            dominated_in[gc] or dominated_out[gc] for c in ch for gc in children[c]
        )
        dominated_out[v] = all(
            dominated_in[c] or dominated_out[c] for c in ch
        ) and any(dominated_in[c] for c in ch)
    return _count_kept_shapes(order, children, dominated_out)
