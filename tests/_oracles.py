"""Test-local oracles, independent of the package implementations.

Everything here recomputes game values and counts from first principles
on small instances, so the engines have something honest to disagree
with. Representations are deliberately different from the package's
(vertex sets instead of bitmasks, letter colors instead of enums). The
one exception is count_keyed_nd, which reuses the package's search
driver and nd moves on purpose, so that only the memo key differs.
"""

from __future__ import annotations

import heapq
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from cak import Color, ColoredGraph
from cak.engines.common import search
from cak.engines.nd import _ModuleSearch, _resolve_partition

LETTERS = {"g": Color.GRAY, "b": Color.BLACK, "w": Color.WHITE}

# filled by test_acceptance, printed by the conftest summary hook
ACCEPTANCE_LINES: list[str] = []


def build(n, lettered_edges, alive=None):
    """ColoredGraph from (u, v, letter) triples."""
    edges = tuple((u, v, LETTERS[c]) for u, v, c in lettered_edges)
    return ColoredGraph(n, edges, alive)


def permute(g, perm):
    """Relabel vertices: vertex v becomes perm[v]. perm must be a bijection."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a bijection over range(n)")
    edges = tuple((perm[u], perm[v], c) for u, v, c in g.edges)
    alive = 0
    for v in range(g.n):
        if g.alive >> v & 1:
            alive |= 1 << perm[v]
    return ColoredGraph(g.n, edges, alive)


def swap_colors(g):
    """Exchange black and white everywhere; gray is fixed.

    Swapping colors and swapping the mover are the same game: B wins
    moving first on g iff W wins moving first on swap_colors(g).
    """
    flip = {Color.GRAY: Color.GRAY, Color.BLACK: Color.WHITE, Color.WHITE: Color.BLACK}
    return ColoredGraph(g.n, tuple((u, v, flip[c]) for u, v, c in g.edges), g.alive)


def representative_edges(classes):
    """Edges from each cover class's first member to every vertex of its
    gray, black and white masks: the moves into classes that the
    cover-keyed engine tries. classes maps masks to sorted members."""
    edges = set()
    for masks, members in classes.items():
        rep = members[0]
        union = masks[0] | masks[1] | masks[2]
        for u in range(union.bit_length()):
            if union >> u & 1:
                edges.add((min(u, rep), max(u, rep)))
    return edges


def random_lettered_edges(rng, n, p, letters="gbw"):
    return [
        (u, v, rng.choice(letters))
        for u, v in combinations(range(n), 2)
        if rng.random() < p
    ]


@st.composite
def twin_blowups(draw):
    """(graph, a partition finer than the coarsest twin modules). The
    graph blows a random quotient up into modules that are independent
    or one-color cliques and joined completely in one color or not at
    all; each coarsest module is then cut at random, down to singletons."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    blocks, n = [], 0
    for size in sizes:
        blocks.append(range(n, n + size))
        n += size
    letter = st.sampled_from("-gbw")
    edges = []
    for i, left in enumerate(blocks):
        inside = draw(letter)
        if inside != "-":
            edges += [(a, b, inside) for a in left for b in left if a < b]
        for right in blocks[i + 1 :]:
            between = draw(letter)
            if between != "-":
                edges += [(a, b, between) for a in left for b in right]
    g = build(n, edges)
    fine = []
    for module in twin_classes_oracle(edges, range(n)):
        module = draw(st.permutations(module))
        cuts = draw(st.lists(st.booleans(), min_size=len(module) - 1, max_size=len(module) - 1))
        start = 0
        for end, cut in enumerate(cuts, start=1):
            if cut:
                fine.append(module[start:end])
                start = end
        fine.append(module[start:])
    return g, fine


def count_keyed_nd(g, turn, partition=None, restrict_to=None, short_circuit=True):
    """The nd search memoized on the tuple of per-module alive counts,
    which names a position up to isomorphism, in place of the engine's
    alive mask; the driver and the candidate moves are the engine's. The
    two keys merge the same positions exactly when the moves keep every
    module's survivors canonical, and then every counter agrees."""

    def build():
        ms = _ModuleSearch(g, _resolve_partition(g, partition), restrict_to)
        ms.key = lambda mask, side: tuple((mask & mm).bit_count() for mm in ms.module_masks)
        return ms

    return search(g, turn, build, short_circuit)


def random_tree_pairs(rng, n):
    """Uniformly-shaped random tree on 0..n-1 as (u, v) pairs."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def win_oracle(n, lettered_edges, turn):
    """Winner letter (B or W) by direct recursion over vertex sets."""
    plays = {
        "B": [(u, v) for u, v, c in lettered_edges if c in ("g", "b")],
        "W": [(u, v) for u, v, c in lettered_edges if c in ("g", "w")],
    }

    def wins(alive, player):
        other = "W" if player == "B" else "B"
        for u, v in plays[player]:
            if u in alive and v in alive and not wins(alive - {u, v}, other):
                return True
        return False

    if wins(frozenset(range(n)), turn):
        return turn
    return "W" if turn == "B" else "B"


def full_count_oracle(n, lettered_edges, turn):
    """(recursive calls, distinct keys) of a search that evaluates every
    child: no short-circuit, so the counts cover the whole memoized
    recursion tree. The memo keys a position on the set of edges left
    (both ends alive) and the player to move; when every edge is gray
    the game is impartial, and the key leaves the player out."""
    plays = {
        "B": [(u, v) for u, v, c in lettered_edges if c in ("g", "b")],
        "W": [(u, v) for u, v, c in lettered_edges if c in ("g", "w")],
    }
    impartial = all(c == "g" for _, _, c in lettered_edges)
    memo = {}
    calls = 0

    def wins(alive, player):
        nonlocal calls
        calls += 1
        left = frozenset((u, v) for u, v, _ in lettered_edges if u in alive and v in alive)
        key = left if impartial else (left, player)
        if key in memo:
            return memo[key]
        other = "W" if player == "B" else "B"
        children = [
            wins(alive - {u, v}, other)
            for u, v in plays[player]
            if u in alive and v in alive
        ]
        memo[key] = not all(children)
        return memo[key]

    wins(frozenset(range(n)), turn)
    return calls, len(memo)


def grundy_oracle(n, pairs):
    """Grundy value of a gray graph given as (u, v) pairs. No memo and
    no component splitting, to stay independent of the engines."""

    def value(alive):
        seen = set()
        for u, v in pairs:
            if u in alive and v in alive:
                seen.add(value(alive - {u, v}))
        g = 0
        while g in seen:
            g += 1
        return g

    return value(frozenset(range(n)))


def row_game_values(n_max, takes):
    """Grundy values of rows of 0..n_max pins in a game where a move
    knocks down `take` adjacent pins, for some take in takes, anywhere in
    a row, leaving the pins on either side as two rows. Kayles (octal
    0.77) takes 1 or 2; Dawson's Kayles (octal 0.07) takes 2, which is
    Arc Kayles on a path. A plain table over row lengths, no graphs."""
    values = []
    for n in range(n_max + 1):
        seen = {
            values[left] ^ values[n - take - left]
            for take in takes
            for left in range(n - take + 1)
        }
        g = 0
        while g in seen:
            g += 1
        values.append(g)
    return values


def exhaustive_min_cover_size(n, pairs):
    """Smallest vertex cover by subset enumeration in popcount order."""
    if not pairs:
        return 0
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in pairs):
                return size
    raise AssertionError("unreachable")


def prufer_decode(seq, n):
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def prufer_trees(n):
    """Every labeled tree on 0..n-1, as (u, v) pair lists."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_decode(list(seq), n)


def _shape(adjsets, root, alive):
    """Rooted shape string over the vertices in `alive`."""

    def code(v, parent):
        parts = sorted(
            code(w, v) for w in adjsets[v] if w != parent and w in alive
        )
        return "(" + "".join(parts) + ")"

    return code(root, None)


def rooted_shape_oracle(n, pairs, root, alive):
    """Rooted shape string of the tree through `root` on the vertices in
    `alive`, built from scratch by recursion."""
    return _shape(_adjsets(n, pairs), root, alive)


def _adjsets(n, pairs):
    adj = {v: set() for v in range(n)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _root_component(adjsets, root, alive):
    comp = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adjsets[x]:
            if y in alive and y not in comp:
                comp.add(y)
                stack.append(y)
    return comp


def ak_count_oracle(n, pairs, root):
    """Distinct rooted shapes at `root` after removing the vertices of a
    matching; the residual must be root's component plus isolated
    vertices. Brute force over all edge subsets."""
    adjsets = _adjsets(n, pairs)
    shapes = set()
    for r in range(len(pairs) + 1):
        for combo in combinations(pairs, r):
            used = set()
            disjoint = True
            for u, v in combo:
                if u in used or v in used:
                    disjoint = False
                    break
                used.update((u, v))
            if not disjoint or root in used:
                continue
            alive = set(range(n)) - used
            comp = _root_component(adjsets, root, alive)
            if any(
                u in alive and v in alive and u not in comp for u, v in pairs
            ):
                continue
            shapes.add(_shape(adjsets, root, comp))
    return len(shapes)


def nk_count_oracle(n, pairs, root):
    """Distinct rooted shapes at `root` after removing the closed
    neighborhood of an independent set; the residual must be exactly
    root's component. Brute force over all vertex subsets."""
    adjsets = _adjsets(n, pairs)
    shapes = set()
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            chosen = set(combo)
            if any(u in chosen and v in chosen for u, v in pairs):
                continue
            removed = set(chosen)
            for v in chosen:
                removed.update(adjsets[v])
            if root in removed:
                continue
            alive = set(range(n)) - removed
            comp = _root_component(adjsets, root, alive)
            if comp != alive:
                continue
            shapes.add(_shape(adjsets, root, comp))
    return len(shapes)


def forest_oracle(lettered_edges, alive):
    """Verdict on the position restricted to the vertex set `alive`:
    "color" when an edge inside it is not gray, "cycle" when its edges
    close a cycle (union-find), else None for an all-gray forest."""
    inside = [(u, v, c) for u, v, c in lettered_edges if u in alive and v in alive]
    if any(c != "g" for _, _, c in inside):
        return "color"
    root = {v: v for v in alive}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v, _ in inside:
        ru, rv = find(u), find(v)
        if ru == rv:
            return "cycle"
        root[ru] = rv
    return None


def twin_classes_oracle(lettered_edges, alive):
    """Twin classes of the vertex set `alive` by the pairwise test: u and
    v are twins when every third alive vertex is joined to both by the
    same letter, or to neither. Classes are sorted tuples, ordered by
    smallest member."""
    letter = {}
    for u, v, c in lettered_edges:
        if u in alive and v in alive:
            letter[u, v] = letter[v, u] = c

    def twins(u, v):
        return all(letter.get((u, w)) == letter.get((v, w)) for w in alive if w not in (u, v))

    classes, placed = [], set()
    for u in sorted(alive):
        if u not in placed:
            module = [u] + [v for v in sorted(alive) if v > u and v not in placed and twins(u, v)]
            placed.update(module)
            classes.append(tuple(module))
    return tuple(classes)


def tree_code_oracle(n, pairs):
    """Canonical code of a tree on 0..n-1: the smallest recursive rooted
    shape string over its centroids, the vertices whose removal leaves
    the smallest largest component (found by brute force)."""
    adjsets = _adjsets(n, pairs)
    everyone = set(range(n))

    def weight(v):
        rest = everyone - {v}
        return max(
            (len(_root_component(adjsets, w, rest)) for w in adjsets[v]), default=0
        )

    weights = {v: weight(v) for v in everyone}
    best = min(weights.values())
    return min(_shape(adjsets, v, everyone) for v in everyone if weights[v] == best)


def trees_isomorphic(n, pairs1, pairs2):
    """Unlabeled isomorphism of two n-vertex graphs by permutation brute
    force; fine for n <= 8."""
    s1 = {frozenset(e) for e in pairs1}
    s2 = {frozenset(e) for e in pairs2}
    if len(s1) != len(s2):
        return False
    for perm in permutations(range(n)):
        if {frozenset((perm[u], perm[v])) for u, v in s1} == s2:
            return True
    return False
