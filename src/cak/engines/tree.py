"""Tree engine: Sprague-Grundy values on gray forests.

Positions decompose over components, values XOR, and one component's
value is a mex over its moves. Components are memoized by vertex set,
then by one rooted shape id: the interned sorted tuple of the children's
ids, the AHU canonical form (Aho, Hopcroft & Ullman 1974) with integers.
A part a move leaves is keyed by its shape rooted where it hangs off the
move, a root component by its shape rooted at a centroid, so components
of one rooted shape arising anywhere in the search share one evaluation.
Only the root position is split into components. Expanding a component
is one rooted BFS and a rerooting over it: each subtree and each part
above a vertex is a part some move leaves, evaluated once, and a move's
value is four XORs of per-vertex values. The same move values give the
solve-mode root its winning edge. `tree_component_code` decodes the same
ids into the centroid-rooted AHU string.

Also counts, for a rooted tree, how many non-isomorphic rooted subtrees
survive at the root under play-like removals: matchings whose matched
vertices disappear (the vertex pairs of Arc Kayles moves), and closed
neighborhoods of independent sets (Node Kayles moves). These counts are
what bounds the rooted-shape memo.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional, Sequence

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
) -> tuple[list[int], dict[int, int], dict[int, list[int]]]:
    """Breadth-first order of the vertices of comp reachable from root,
    each one's parent (-1 at root) and its children. The neighbor masks
    give the adjacency; unreached vertices form a mask, so a cycle cannot
    loop."""
    order = [root]
    parent = {root: -1}
    kids = {}
    unreached = comp & ~(1 << root)
    for v in order:
        found = nbr[v] & unreached
        unreached ^= found
        kids[v] = below = []
        while found:
            b = found & -found
            found ^= b
            w = b.bit_length() - 1
            parent[w] = v
            below.append(w)
        order += below
    return order, parent, kids


def tree_component_code(g: ColoredGraph, comp: int) -> str:
    """Canonical form of one tree component: the AHU code rooted at the
    centroid; with two centroids, the smaller of the two rooted codes.
    It decodes the component's centroid-rooted shape ids (`_centroids`):
    an id's children have smaller ids, so codes are built in id order."""
    ids: dict[tuple[int, ...], int] = {}
    centroids = _centroids(_shapes(comp, g.neighbor_masks(), ids), ids)
    codes: list[str] = []
    for children in ids:
        codes.append("(" + "".join(sorted([codes[i] for i in children])) + ")")
    return min(codes[i] for i in centroids)


def _shapes(comp: int, nbr: Sequence[int], ids: dict[tuple[int, ...], int]) -> tuple:
    """One BFS of the tree component comp from its lowest vertex, read
    bottom up, then top down, as tables keyed by vertex: order, parent
    and kids (`_bfs`); sub, the subtree mask; down, the id of sub[v]
    rooted at v; kid_ids, the children's down ids, sorted; and above, for
    a non-root vertex p with children, the id of the part above p,
    comp & ~sub[p], rooted at parent[p], whose children are parent[p]'s
    other subtrees and the part above parent[p]. Equal ids mean equal
    rooted shapes wherever the ids table is shared."""
    order, parent, kids = _bfs(nbr, comp, (comp & -comp).bit_length() - 1)
    sub: dict[int, int] = {}
    down: dict[int, int] = {}
    kid_ids: dict[int, list[int]] = {}
    leaf = ids.setdefault((), len(ids))
    for v in reversed(order):
        part = 1 << v
        key = kid_ids[v] = []
        for c in kids[v]:
            part |= sub[c]
            key.append(down[c])
        key.sort()
        sub[v] = part
        down[v] = ids.setdefault(tuple(key), len(ids)) if key else leaf
    root = order[0]
    above: dict[int, int] = {}
    for p in order[1:]:
        if kids[p]:
            q = parent[p]
            around = kid_ids[q].copy()
            around.remove(down[p])
            if q != root:
                around.append(above[q])
                around.sort()
            above[p] = ids.setdefault(tuple(around), len(ids))
    return order, parent, kids, sub, down, kid_ids, above


def _centroids(shapes: tuple, ids: dict[tuple[int, ...], int]) -> list[int]:
    """The ids of a component (its `_shapes`) rooted at each of its one or
    two centroids. The vertices whose subtree holds over half of it form
    a chain down from the root, whose last vertex c is a centroid, and a
    child of c whose subtree holds half is the other: rooted at v, the
    children are v's subtrees and the part above v. That child is a leaf
    only in a one-edge component, the same shape from either end."""
    order, parent, kids, sub, _, kid_ids, above = shapes
    size = len(order)
    c = [v for v in order if 2 * sub[v].bit_count() > size][-1]
    rooted = [kid_ids[c] + [above[c]] if parent[c] >= 0 else kid_ids[c]]
    rooted += [kid_ids[w] + [above[w]] for w in kids[c] if 2 * sub[w].bit_count() == size and kids[w]]
    return [ids.setdefault(tuple(sorted(around)), len(ids)) for around in rooted]


def _move_values(
    comp: int, shapes: tuple, by_mask: dict[int, int], evaluate: Callable[[int, int], int]
) -> tuple[list[int], int]:
    """The value each move of comp leaves, on the edge (parent[v], v) for
    each v of the `_shapes` order after the root, and the number of parts
    of two or more vertices over all the moves.

    Playing (p, v) leaves v's subtrees, p's other subtrees and the part
    above p: the value is xor[v] ^ xor[p] ^ val[v] ^ up[p], where val[v]
    is the value of sub[v], xor[x] the XOR of x's children's val, and
    up[p] the value of the part above p. A part of one vertex has value
    0, and any other is probed in by_mask, then valued by evaluate(part,
    id), the largest subtrees first. The subtree of the root's only child
    is part of no move, and its val cancels, so it is never valued."""
    order, parent, kids, sub, down, _, above = shapes
    root = order[0]
    alone = kids[root][0] if len(kids[root]) == 1 else -1
    val = dict.fromkeys(order, 0)
    xor = val.copy()
    up = val.copy()
    parts = 0
    for v in order[1:]:
        part = sub[v]
        if part & (part - 1) and v != alone:
            value = by_mask.get(part)
            val[v] = value = evaluate(part, down[v]) if value is None else value
            p = parent[v]
            xor[p] ^= value
            parts += len(kids[p]) - (p == root)  # its siblings' moves, and its parent's
    for p in order[1:]:
        part = comp & ~sub[p]
        if kids[p] and part & (part - 1):
            value = by_mask.get(part)
            up[p] = evaluate(part, above[p]) if value is None else value
            parts += len(kids[p])  # the moves from p down
    return [xor[v] ^ xor[parent[v]] ^ val[v] ^ up[parent[v]] for v in order[1:]], parts


def _forest_search(
    g: ColoredGraph, solve: bool
) -> tuple[int, Optional[tuple[int, int]], SearchStats]:
    """Value of the forest position g and, with solve and a nonzero value,
    the smallest edge to a child of value zero. A component is probed by
    vertex set, then by its shape id, and its moves are valued when both
    miss. The callers probe by vertex set, so a memo hit costs no call, and
    a move nests exactly two calls (evaluate, then `_move_values`)."""
    t0 = perf_counter()
    nbr = g.neighbor_masks()
    comps = check_gray_forest(g)
    setup_s = perf_counter() - t0  # the masks and the checked components
    by_mask: dict[int, int] = {}  # component mask -> value
    by_key: dict[int, int] = {}  # rooted shape id -> value
    ids: dict[tuple[int, ...], int] = {}  # children's shape ids -> shape id
    moves: dict[int, list[int]] = {}  # expanded root component -> its moves' values
    nodes = len(comps)  # a visit per root component, then per part left

    def evaluate(comp: int, key: int, shapes: Optional[tuple] = None) -> int:
        """Value of a component that missed by vertex set; shapes are its
        `_shapes`, given only for a root component, built here if not."""
        nonlocal nodes
        value = by_key.get(key)
        if value is None:
            values, parts = _move_values(comp, shapes or _shapes(comp, nbr, ids), by_mask, evaluate)
            nodes += parts
            value = by_key[key] = mex(values)
            if shapes:
                moves[comp] = values
        by_mask[comp] = value
        return value

    roots: dict[int, tuple] = {}  # root component -> its _shapes
    value = 0
    wins: list[tuple[int, int]] = []
    with recursion_capacity():
        for comp in comps:  # keyed by the smaller of its centroid-rooted ids
            shapes = roots[comp] = _shapes(comp, nbr, ids)
            value ^= evaluate(comp, min(_centroids(shapes, ids)), shapes)
        if solve and value:
            # A move in comp leaves a zero child iff its value is rest, the
            # value of the other root components. A root component that hit
            # by shape id has its moves valued here, its parts probed.
            for comp, shapes in roots.items():
                values = moves.get(comp)
                if values is None:
                    values, parts = _move_values(comp, shapes, by_mask, evaluate)
                    nodes += parts
                rest = value ^ by_mask[comp]
                order, parent = shapes[:2]
                wins += [(min(parent[v], v), max(parent[v], v)) for v, x in zip(order[1:], values) if x == rest]
    # Every miss stores one new key (its moves reach only smaller
    # components), so the visits that are not misses are the memo hits.
    keys = len(by_key)
    return value, min(wins, default=None), SearchStats(nodes, nodes - keys, keys, perf_counter() - t0, setup_s)


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
    order, _, children = _bfs(g.neighbor_masks(), mask, root)
    if len(order) != mask.bit_count():
        raise ValueError("not a tree: alive subgraph is disconnected")
    return order, children


def _count_kept_shapes(
    order: list[int], children: dict[int, list[int]], vanishes: dict[int, bool]
) -> int:
    """Number of rooted shapes the root order[0] can keep, bottom up: each
    child stays with one of its own shapes, or disappears entirely where
    vanishes[child] holds. The children join one at a time, each kept
    choice a sorted multiset of child shape ids, so equal partial choices
    merge before the next child; a kept choice is interned as the id of
    its shape, as in `_shapes`."""
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
