"""Tree engine: Sprague-Grundy values on gray forests.

Positions decompose over components, values XOR, and one component's
value is a mex over its moves. Components are memoized by vertex set,
then by one key: a component a move leaves by its rooted shape, and a
root component by a canonical form (the centroid-rooted AHU code; Aho,
Hopcroft & Ullman 1974), so parts of one rooted shape arising anywhere
in the search share one evaluation. Only the root position (and, when
solving, its children) is split into components and coded; the
components a move leaves, and their rooted shapes as interned ids, are
read off one rooted BFS of the component it is played in.

Also counts, for a rooted tree, how many non-isomorphic rooted subtrees
survive at the root under play-like removals: matchings whose matched
vertices disappear (the vertex pairs of Arc Kayles moves), and closed
neighborhoods of independent sets (Node Kayles moves). These counts are
what bounds the rooted-shape memo.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..graph import Color, ColoredGraph, Player
from .common import Outcome, SearchStats, mex, recursion_capacity, split_components


def check_gray_forest(g: ColoredGraph) -> None:
    """Raise ValueError unless g is an all-gray forest: a graph is
    acyclic iff its edges number its vertices minus its components."""
    if any(c is not Color.GRAY for _, _, c in g.edges):
        raise ValueError("tree engine needs an all-gray position")
    comps = split_components(g.alive, g.neighbor_masks())
    if g.m != sum(comp.bit_count() - 1 for comp in comps):
        raise ValueError("not a forest: alive subgraph contains a cycle")


def _code_from_combo(kept: Iterable[str]) -> str:
    return "(" + "".join(sorted(kept)) + ")"


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

    One BFS from the lowest vertex gives the subtree sizes. The vertices
    whose subtree holds at least half of comp form a chain down from the
    root (two at one depth would hold every vertex but the root between
    them), and its last vertex c is a centroid; parent[c] is a second
    one exactly when c's subtree holds half. Off the chain, a vertex has
    the same children from either root, so those codes are built bottom
    up in the same pass as the sizes. Each chain vertex, rooted at c,
    is then one more child of the next one down.
    """
    order, parent = _bfs(g.neighbor_masks(), comp, (comp & -comp).bit_length() - 1)
    total = len(order)
    size = dict.fromkeys(order, 1)
    kids: dict[int, list[str]] = {v: [] for v in order}
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            if 2 * size[v] < total:
                kids[p].append(_code_from_combo(kids[v]))
    chain = [v for v in order if 2 * size[v] >= total]
    for above, below in zip(chain, chain[1:]):
        kids[below].append(_code_from_combo(kids[above]))
    c = chain[-1]
    code = _code_from_combo(kids[c])
    if 2 * size[c] != total:
        return code
    # Re-root at the twin parent[c]: its branch is the last of c's
    # children, and c without it becomes one more child of the twin.
    kids[c].pop()
    twin = parent[c]
    kids[twin].append(_code_from_combo(kids[c]))
    return min(code, _code_from_combo(kids[twin]))


def _move_parts(
    comp: int, nbr: Sequence[int], ids: dict[tuple[int, ...], int]
) -> tuple[Iterator[tuple[int, int, list[int]]], Callable[[int, int, int], int]]:
    """Each edge (u, v), u < v, of the tree component comp, with the
    components of two or more vertices that playing it leaves; and a
    function giving each such part's rooted shape id.

    One BFS from comp's lowest vertex gives the subtree masks bottom up.
    Playing the tree edge from p down to v leaves the subtrees of v's
    children, those of p's other children and the rest of comp above p
    (empty when p is the root). Edges come sorted and each edge's parts
    by lowest vertex, the order `split_components` gives, so the search
    meets components in the same order as if it split each child. The
    parts of an edge are built when it is reached: the generator is
    suspended, not on the stack, while the search recurses into them,
    and a search that fails deep builds only the moves it tried.

    shape(part, u, v) is the rooted shape id of a part that playing
    (u, v) leaves, rooted where the part hangs off the edge: the interned
    sorted tuple of its children's ids (AHU with integers), so equal ids
    mean equal rooted shapes wherever the ids table is shared. The first
    call interns every subtree bottom up. The part above p hangs at
    q = parent[p] and is q's other subtrees plus q's own part above, so
    a call walks up to a vertex whose part above is known or hangs off
    the root, then interns back down."""
    order, parent = _bfs(nbr, comp, (comp & -comp).bit_length() - 1)
    sub = {v: 1 << v for v in order}
    kids: dict[int, list[int]] = {v: [] for v in order}
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            sub[p] |= sub[v]
            kids[p].append(sub[v])
    down: dict[int, int] = {}  # v -> id of sub[v], rooted at v
    kid_ids: dict[int, list[int]] = {v: [] for v in order}  # v -> its children's ids
    up: dict[int, int] = {}  # p -> id of comp ^ sub[p], rooted at parent[p]

    def shape(part: int, u: int, w: int) -> int:
        if not down:
            for v in order[:0:-1]:  # bottom up; no part is all of comp
                key = kid_ids[v]
                key.sort()
                down[v] = ids.setdefault(tuple(key), len(ids))
                kid_ids[parent[v]].append(down[v])
        if not part & comp & -comp:  # a subtree, rooted next to u or w
            return down[(part & (nbr[u] | nbr[w])).bit_length() - 1]
        chain = [u if parent[w] == u else w]  # part is the part above chain[0]
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
                above = comp & ~sub[p]
                if above & (above - 1):
                    parts.insert(0, above)  # it holds the root, comp's lowest vertex
                yield u, w, parts

    return moves(), shape


def _forest_search(
    g: ColoredGraph, solve: bool
) -> tuple[int, Optional[tuple[int, int]], SearchStats]:
    """Value of the forest position g and, with solve and a nonzero value,
    the smallest edge to a child of value zero. Each component is probed
    by vertex set, then by one key, and its moves are expanded when both
    miss. The key is the rooted shape id of a part a move left, and the
    canonical code of a root component: an int never equals a str, so
    the two cannot collide. Only the root position and, in solve mode,
    its children are split into components; below them, a move's
    components and their shapes come from the parent component's rooted
    BFS (`_move_parts`). The callers probe by vertex set, so a memo hit
    costs no call, and a move nests exactly two calls (evaluate, then
    children): a comprehension there would add a frame on the Pythons
    that do not inline it."""
    t0 = perf_counter()
    check_gray_forest(g)
    mask = g.alive
    nbr = g.neighbor_masks()
    by_mask: dict[int, int] = {}  # component mask -> value
    by_key: dict[int | str, int] = {}  # rooted shape id or canonical code -> value
    ids: dict[tuple[int, ...], int] = {}  # children's shape ids -> shape id
    nodes = 0

    def evaluate(comp: int, shape: Optional[int]) -> int:
        """Value of a component that missed by vertex set."""
        key = tree_component_code(g, comp) if shape is None else shape
        value = by_key.get(key)
        if value is None:
            value = by_key[key] = children(comp)
        by_mask[comp] = value
        return value

    def children(comp: int) -> int:
        nonlocal nodes
        values = set()
        moves, shape = _move_parts(comp, nbr, ids)
        for u, w, parts in moves:
            nodes += len(parts)
            total = 0
            for part in parts:
                value = by_mask.get(part)
                total ^= evaluate(part, shape(part, u, w)) if value is None else value
            values.add(total)
        return mex(values)

    def forest(mask: int) -> int:
        nonlocal nodes
        total = 0
        for comp in split_components(mask, nbr):
            nodes += 1
            value = by_mask.get(comp)
            total ^= evaluate(comp, None) if value is None else value
        return total

    move = None
    with recursion_capacity():
        value = forest(mask)
        if solve and value:
            for u, v, _ in g.edges:
                em = 1 << u | 1 << v
                if mask & em == em and forest(mask ^ em) == 0:
                    move = (u, v)
                    break
    # Every miss stores one new key (its moves reach only smaller
    # components), so the visits that are not misses are the memo hits.
    keys = len(by_key)
    return value, move, SearchStats(nodes, nodes - keys, keys, perf_counter() - t0)


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


def _kept_shapes(
    children: list[int], shapes: dict[int, set[str]], vanishes: dict[int, bool]
) -> set[str]:
    """Rooted shapes a vertex can keep: each child stays with one of its
    own shapes, or disappears entirely where vanishes[child] holds. The
    children join one at a time, each kept choice a sorted multiset of
    child shapes, so equal partial choices merge before the next child."""
    partial: set[tuple[str, ...]] = {()}
    for c in children:
        grown = {tuple(sorted(kept + (shape,))) for kept in partial for shape in shapes[c]}
        if vanishes[c]:
            grown |= partial
        partial = grown
    return {_code_from_combo(kept) for kept in partial}


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
      shapes[v]    : rooted shape codes v can retain; each child is
                     either kept with one of its shapes or deleted.
    """
    order, children = _rooted_tree(g, root)
    deletable: dict[int, bool] = {}
    standing: dict[int, bool] = {}
    shapes: dict[int, set[str]] = {}
    for v in reversed(order):
        ch = children[v]
        standing[v] = all(deletable[c] for c in ch)
        clearable = {c: deletable[c] or standing[c] for c in ch}
        deletable[v] = any(
            all(deletable[gc] or standing[gc] for gc in children[cj])
            and all(clearable[ci] for ci in ch if ci != cj)
            for cj in ch
        )
        shapes[v] = _kept_shapes(ch, shapes, deletable)
    return len(shapes[root])


def count_nk_subtrees(g: ColoredGraph, root: int) -> int:
    """Number of non-isomorphic rooted subtrees at `root` reachable by
    deleting the closed neighborhood of some independent set, where what
    survives is exactly the root's tree (the alive graph must be a tree).

    Subtree DP, per vertex v of the tree rooted at `root`:
      dominated_in[v]  : an independent set inside T_v containing v
                         dominates all of T_v;
      dominated_out[v] : same with v excluded from the set;
      shapes[v]        : rooted shapes v can retain; a child is kept with
                         one of its shapes or wiped (dominated_out, so the
                         kept parent is not touched).
    """
    order, children = _rooted_tree(g, root)
    dominated_in: dict[int, bool] = {}
    dominated_out: dict[int, bool] = {}
    shapes: dict[int, set[str]] = {}
    for v in reversed(order):
        ch = children[v]
        dominated_in[v] = all(
            dominated_in[gc] or dominated_out[gc] for c in ch for gc in children[c]
        )
        dominated_out[v] = all(
            dominated_in[c] or dominated_out[c] for c in ch
        ) and any(dominated_in[c] for c in ch)
        shapes[v] = _kept_shapes(ch, shapes, dominated_out)
    return len(shapes[root])
