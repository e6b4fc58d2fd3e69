"""Tree engine: Sprague-Grundy values on gray forests.

Positions decompose over components, values XOR, and one component's
value is a mex over its moves. Components are memoized by vertex set
and under a canonical form (the AHU rooted shape code from the
centroid; Aho, Hopcroft & Ullman 1974), so a vertex set is coded once
and isomorphic subtrees arising anywhere in the search share one
evaluation.

Also counts, for a rooted tree, how many non-isomorphic rooted subtrees
survive at the root under play-like removals: matchings whose matched
vertices disappear (the vertex pairs of Arc Kayles moves), and closed
neighborhoods of independent sets (Node Kayles moves). These counts are
what bounds the canonical-form memo.
"""

from __future__ import annotations

import itertools
import sys
from time import perf_counter
from typing import Optional

from ..graph import Color, ColoredGraph, Player
from .common import (
    CapacityError,
    Outcome,
    SearchStats,
    mex,
    resolve_alive,
    split_components,
)

ENUMERATION_LIMIT = 16  # n above this switches the counters to subtree DP


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def check_gray_forest(g: ColoredGraph, mask: int) -> None:
    """Raise ValueError unless the position on mask is an all-gray forest."""
    for u, v, c in g.edges:
        if mask >> u & 1 and mask >> v & 1 and c is not Color.GRAY:
            raise ValueError("tree engine needs an all-gray position")
    nbr = g.neighbor_masks()
    for comp in split_components(mask, nbr):
        comp_edges = sum(
            1 for u, v, _ in g.edges if comp >> u & 1 and comp >> v & 1
        )
        if comp_edges != bin(comp).count("1") - 1:
            raise ValueError("not a forest: alive subgraph contains a cycle")


def _component_adjacency(g: ColoredGraph, comp: int) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in _bits(comp)}
    for u, v, _ in g.edges:
        if comp >> u & 1 and comp >> v & 1:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _code_from_combo(kept: list[str]) -> str:
    return "(" + "".join(sorted(kept)) + ")"


def _bfs(adj: dict[int, list[int]], root: int) -> tuple[list[int], dict[int, int]]:
    """Breadth-first order from root and each vertex's parent (-1 at root)."""
    order = [root]
    parent = {root: -1}
    for v in order:
        p = parent[v]
        for w in adj[v]:
            if w != p:
                parent[w] = v
                order.append(w)
    return order, parent


def _child_codes(order: list[int], parent: dict[int, int]) -> dict[int, list[str]]:
    """Bottom-up AHU pass: each vertex's list of child shape codes. A
    vertex's own code is "(" + its sorted child codes joined + ")"."""
    kids: dict[int, list[str]] = {v: [] for v in order}
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            kids[p].append(_code_from_combo(kids[v]))
    return kids


def rooted_code(adj: dict[int, list[int]], root: int) -> str:
    """Canonical shape string of a rooted tree: children codes sorted and
    concatenated inside parentheses. Equal codes <=> rooted-isomorphic."""
    order, parent = _bfs(adj, root)
    return _code_from_combo(_child_codes(order, parent)[root])


def tree_component_code(g: ColoredGraph, comp: int) -> str:
    """Canonical form of one tree component: root at the centroid; with
    two centroids take the lexicographically smaller rooted code."""
    adj = _component_adjacency(g, comp)
    order, parent = _bfs(adj, next(iter(adj)))
    total = len(order)
    size = dict.fromkeys(order, 1)
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
    # Walk down from the root into any branch holding over half the
    # vertices; where none is left, the vertex is a centroid. A second
    # centroid is a neighbor whose branch holds exactly half.
    c, twin = order[0], -1
    descending = True
    while descending:
        descending = False
        for w in adj[c]:
            if w != parent[c] and 2 * size[w] >= total:
                if 2 * size[w] == total:
                    twin = w
                else:
                    c, descending = w, True
                break
    order, parent = _bfs(adj, c)
    kids = _child_codes(order, parent)
    code = _code_from_combo(kids[c])
    if twin < 0:
        return code
    # Re-root at the twin: c's side without the twin's branch becomes
    # one more child of the twin.
    twin_code = _code_from_combo(kids[twin])
    c_side = kids[c]
    c_side.remove(twin_code)
    kids[twin].append(_code_from_combo(c_side))
    return min(code, _code_from_combo(kids[twin]))


class _ForestValuer:
    def __init__(self, g: ColoredGraph):
        self.g = g
        self.nbr = g.neighbor_masks()
        self.edge_masks = tuple(1 << u | 1 << v for u, v, _ in g.edges)
        self.memo: dict[str, int] = {}  # canonical code -> value
        self.by_mask: dict[int, int] = {}  # component mask -> value
        self.stats = SearchStats()

    def value(self, mask: int) -> int:
        """forest_value from the top of a search. The search recurses
        once per move played, so a long enough forest outruns Python's
        recursion limit; that is a size limit, not a crash."""
        try:
            return self.forest_value(mask)
        except RecursionError:
            raise CapacityError(
                "tree search needs more nested calls than the recursion limit"
                f" ({sys.getrecursionlimit()}) allows; the position is too"
                " large for the tree engine"
            ) from None

    def forest_value(self, mask: int) -> int:
        total = 0
        for comp in split_components(mask, self.nbr):
            total ^= self.component_value(comp)
        return total

    def component_value(self, comp: int) -> int:
        """Value of one component, looked up by vertex set first and by
        canonical shape second; either lookup answering is a memo hit."""
        self.stats.node_expansions += 1
        value = self.by_mask.get(comp)
        if value is not None:
            self.stats.memo_hits += 1
            return value
        code = tree_component_code(self.g, comp)
        value = self.memo.get(code)
        if value is not None:
            self.stats.memo_hits += 1
        else:
            child_values = set()
            for em in self.edge_masks:
                if comp & em == em:
                    child_values.add(self.forest_value(comp & ~em))
            value = mex(child_values)
            self.memo[code] = value
            self.stats.distinct_keys = len(self.memo)
        self.by_mask[comp] = value
        return value


def grundy_tree(g: ColoredGraph, alive: Optional[int] = None) -> int:
    """Sprague-Grundy value of an all-gray forest position."""
    mask = resolve_alive(g, alive)
    check_gray_forest(g, mask)
    return _ForestValuer(g).value(mask)


def solve_tree(g: ColoredGraph, turn: Player, alive: Optional[int] = None) -> Outcome:
    """Winner by Grundy value: the mover wins iff the value is nonzero,
    and then the smallest edge whose child position has value zero is a
    winning move."""
    t0 = perf_counter()
    mask = resolve_alive(g, alive)
    check_gray_forest(g, mask)
    valuer = _ForestValuer(g)
    value = valuer.value(mask)
    move = None
    if value:
        for u, v, _ in g.edges:
            em = 1 << u | 1 << v
            if mask & em == em and valuer.value(mask & ~em) == 0:
                move = (u, v)
                break
    stats = valuer.stats
    stats.elapsed = perf_counter() - t0
    winner = turn if value else turn.opponent
    return Outcome(winner, move, stats)


# ---------------------------------------------------------------------------
# Rooted subtree counters


def _tree_layout(g: ColoredGraph, root: int):
    mask = g.alive
    if not (0 <= root < g.n) or not mask >> root & 1:
        raise ValueError(f"root {root} is not an alive vertex")
    n_alive = bin(mask).count("1")
    edges = [(u, v) for u, v, _ in g.edges]
    if len(edges) != n_alive - 1:
        raise ValueError("not a tree: edge count differs from n - 1")
    adj: dict[int, list[int]] = {v: [] for v in _bits(mask)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {root}
    queue = [root]
    children: dict[int, list[int]] = {}
    order = []
    while queue:
        v = queue.pop()
        order.append(v)
        children[v] = []
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                children[v].append(w)
                queue.append(w)
    if len(seen) != n_alive:
        raise ValueError("not a tree: alive subgraph is disconnected")
    return edges, adj, children, order


def _count_ak_enum(g: ColoredGraph, root: int) -> int:
    """Enumerate every matching, keep those whose residual is one tree at
    the root plus isolated vertices, count distinct rooted shapes."""
    edges, adj, _, _ = _tree_layout(g, root)
    edge_masks = [1 << u | 1 << v for u, v in edges]
    codes: set[str] = set()

    def visit(used: int) -> None:
        if used >> root & 1:
            return
        surviving = [e for e, em in zip(edges, edge_masks) if not em & used]
        comp = {root}
        queue = [root]
        local: dict[int, list[int]] = {root: []}
        for u, v in surviving:
            local.setdefault(u, []).append(v)
            local.setdefault(v, []).append(u)
        while queue:
            x = queue.pop()
            for y in local.get(x, ()):
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        if any(u not in comp for u, v in surviving):
            return
        codes.add(rooted_code({v: local.get(v, []) for v in comp}, root))

    def rec(i: int, used: int) -> None:
        if i == len(edges):
            visit(used)
            return
        rec(i + 1, used)
        em = edge_masks[i]
        if not used & em:
            rec(i + 1, used | em)

    rec(0, 0)
    return len(codes)


def _count_ak_dp(g: ColoredGraph, root: int) -> int:
    """Subtree DP equivalent of the matching enumeration.

    Per vertex v (rooted at the query root):
      deletable[v] : some matching inside T_v covers v and clears T_v
                     down to isolated vertices;
      standing[v]  : T_v clears to isolated vertices with v surviving
                     (all children deletable);
      shapes[v]    : rooted shape codes v can retain; each child is
                     either kept with one of its shapes or deleted.
    """
    _, _, children, order = _tree_layout(g, root)
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
        options = []
        for c in ch:
            opts: list[Optional[str]] = list(shapes[c])
            if deletable[c]:
                opts.append(None)
            options.append(opts)
        shapes[v] = {
            _code_from_combo([x for x in combo if x is not None])
            for combo in itertools.product(*options)
        }
    return len(shapes[root])


def _count_nk_enum(g: ColoredGraph, root: int) -> int:
    """Enumerate independent sets U, keep those whose closed neighborhood
    removal leaves exactly one tree containing the root."""
    edges, adj, _, _ = _tree_layout(g, root)
    verts = sorted(adj)
    nbr_closed = {v: (1 << v) | sum(1 << w for w in adj[v]) for v in verts}
    full = g.alive
    codes: set[str] = set()

    def visit(removed: int) -> None:
        if removed >> root & 1:
            return
        residual = full & ~removed
        comp = 1 << root
        queue = [root]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if residual >> y & 1 and not comp >> y & 1:
                    comp |= 1 << y
                    queue.append(y)
        if comp != residual:
            return
        local = {
            v: [w for w in adj[v] if residual >> w & 1] for v in _bits(residual)
        }
        codes.add(rooted_code(local, root))

    def rec(i: int, chosen: int, removed: int) -> None:
        if i == len(verts):
            visit(removed)
            return
        v = verts[i]
        rec(i + 1, chosen, removed)
        if not chosen & nbr_closed[v]:
            rec(i + 1, chosen | 1 << v, removed | nbr_closed[v])

    rec(0, 0, 0)
    return len(codes)


def _count_nk_dp(g: ColoredGraph, root: int) -> int:
    """Subtree DP equivalent of the independent-set enumeration.

    dominated_in[v]  : an independent set inside T_v containing v
                       dominates all of T_v;
    dominated_out[v] : same with v excluded from the set;
    shapes[v]        : rooted shapes v can retain; a child is kept with
                       one of its shapes or wiped (dominated_out, so the
                       kept parent is not touched).
    """
    _, _, children, order = _tree_layout(g, root)
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
        options = []
        for c in ch:
            opts: list[Optional[str]] = list(shapes[c])
            if dominated_out[c]:
                opts.append(None)
            options.append(opts)
        shapes[v] = {
            _code_from_combo([x for x in combo if x is not None])
            for combo in itertools.product(*options)
        }
    return len(shapes[root])


def count_ak_subtrees(g: ColoredGraph, root: int) -> int:
    """Number of non-isomorphic rooted subtrees at `root` reachable by
    deleting the matched vertices of some matching (edge colors are
    ignored; the alive graph must be a tree)."""
    if g.alive_count <= ENUMERATION_LIMIT:
        return _count_ak_enum(g, root)
    return _count_ak_dp(g, root)


def count_nk_subtrees(g: ColoredGraph, root: int) -> int:
    """Number of non-isomorphic rooted subtrees at `root` reachable by
    deleting the closed neighborhood of some independent set."""
    if g.alive_count <= ENUMERATION_LIMIT:
        return _count_nk_enum(g, root)
    return _count_nk_dp(g, root)
