"""End-to-end acceptance gate.

Ten independent checks, one per test, covering engine agreement, known
board values, subtree-count bounds, state-space bounds for the
cover-keyed and module-keyed engines, hard-instance floors, symmetry
invariance, and Sprague-Grundy consistency. Each test appends one
"ACCEPTANCE nn PASS|FAIL" line that the terminal summary reprints.
"""

import functools
import math
import random
import time

from cak import (
    Color,
    Player,
    count_ak_subtrees,
    count_nd_positions,
    count_nk_subtrees,
    count_vc_positions,
    gen_grid,
    gen_lower_nd,
    gen_lower_vc,
    gen_random,
    grundy_naive,
    grundy_tree,
    min_vertex_cover,
    nd_partition,
    solve_naive,
    solve_nd,
    solve_subset,
    solve_tree,
    solve_vc,
)
from cak.generators import lower_nd_clique_vertices

from _oracles import (
    ACCEPTANCE_LINES,
    build,
    permute,
    prufer_trees,
    random_tree_pairs,
    swap_colors,
)

WEIGHT_MIXES = (
    (1, 1, 1),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (2, 1, 1),
)


def criterion(num):
    """Record an ACCEPTANCE line for the wrapped test, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(num, False)
                raise
            _report(num, True)

        return wrapper

    return deco


def _report(num, passed):
    line = f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def gray(n, pairs):
    return build(n, [(u, v, "g") for u, v in pairs])


def is_gray_forest(g):
    if g.colors_present() - {Color.GRAY}:
        return False
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


@criterion(1)
def test_01_engines_agree_on_random_instances():
    """naive, subset, vc, and nd pick the same winner on 500 seeded
    random colored graphs (n <= 10, p in {0.2, 0.5, 0.8}, every color
    mix, both first players); tree joins in on all-gray forests."""
    t0 = time.monotonic()
    for i in range(500):
        n = 4 + i % 7
        p = (0.2, 0.5, 0.8)[i % 3]
        weights = WEIGHT_MIXES[i % len(WEIGHT_MIXES)]
        g = gen_random(n, p, weights, seed=i)
        tree_applies = is_gray_forest(g)
        for turn in Player:
            winners = {
                solve_naive(g, turn).winner,
                solve_subset(g, turn).winner,
                solve_vc(g, turn).winner,
                solve_nd(g, turn).winner,
            }
            if tree_applies:
                winners.add(solve_tree(g, turn).winner)
            assert len(winners) == 1, f"disagreement on seed {i}, turn {turn}"
    assert time.monotonic() - t0 < 300.0


@criterion(2)
def test_02_cram_board_values():
    """Known Cram outcomes: the second player wins 2x2, 2x4, and 4x4;
    the first player wins 2x3, 2x5, and 4x3."""
    t0 = time.monotonic()
    second_wins = ((2, 2), (2, 4), (4, 4))
    first_wins = ((2, 3), (2, 5), (4, 3))
    for rows, cols in second_wins:
        assert solve_subset(gen_grid(rows, cols), Player.B).winner is Player.W
    for rows, cols in first_wins:
        assert solve_subset(gen_grid(rows, cols), Player.B).winner is Player.B
    assert time.monotonic() - t0 < 60.0


@criterion(3)
def test_03_subtree_counts_on_tiny_trees():
    """Maximum number of distinct rooted subtrees reachable by edge or
    vertex removals, over all rooted trees of order 1..4: 1, 1, 2, 3."""
    expected = {1: 1, 2: 1, 3: 2, 4: 3}
    for n, want in expected.items():
        best_ak = 0
        best_nk = 0
        for pairs in prufer_trees(n):
            g = gray(n, pairs)
            for root in range(n):
                best_ak = max(best_ak, count_ak_subtrees(g, root))
                best_nk = max(best_nk, count_nk_subtrees(g, root))
        assert best_ak == want, f"ak max for order {n}: {best_ak} != {want}"
        assert best_nk == want, f"nk max for order {n}: {best_nk} != {want}"


@criterion(4)
def test_04_subtree_count_bound_on_random_trees():
    """count_ak_subtrees(T, r) <= 2^(n/2) - 1 for 200 random trees with
    4 <= n <= 20, checked at every root (squared to stay in integers)."""
    rng = random.Random(20260826)
    violations = 0
    for _ in range(200):
        n = rng.randint(4, 20)
        g = gray(n, random_tree_pairs(rng, n))
        for root in range(n):
            count = count_ak_subtrees(g, root)
            if (count + 1) ** 2 > 2**n:
                violations += 1
    assert violations == 0


@criterion(5)
def test_05_cover_keyed_state_space_bound():
    """Full-expansion cover-keyed search on instances with cover size
    tau <= 6 stays within 3^tau * max(1, tau^2) * (gamma+1)^(tau^2/4)
    distinct keys, gamma = number of edge colors present (compared at
    the fourth power to stay in integers)."""
    cases = [
        build(5, []),
        build(2, [(0, 1, "g")]),
        build(2, [(0, 1, "b")]),
        build(4, [(0, 1, "g"), (0, 2, "b"), (0, 3, "w")]),
    ]
    seed = 0
    while len(cases) < 34 and seed < 400:
        n = (8, 10, 12, 13)[seed % 4]
        p = (0.15, 0.3, 0.5)[seed % 3]
        weights = WEIGHT_MIXES[seed % len(WEIGHT_MIXES)]
        g = gen_random(n, p, weights, seed=3000 + seed)
        seed += 1
        if min_vertex_cover(g).size <= 6:
            cases.append(g)
    assert len(cases) >= 30, "not enough small-cover instances found"
    for g in cases:
        tau = min_vertex_cover(g).size
        gamma = len(g.colors_present())
        stats = count_vc_positions(g, Player.B)
        lhs = stats.distinct_keys**4
        rhs = (3**tau * max(1, tau * tau)) ** 4 * (gamma + 1) ** (tau * tau)
        assert lhs <= rhs, f"tau={tau} gamma={gamma}: {stats.distinct_keys} keys"


@criterion(6)
def test_06_cover_keyed_hard_family_floor():
    """The cover-size-k hard family forces at least 2^(k^2/2) recursion
    nodes in count mode: >= 4 for k=2 and >= 256 for k=4."""
    t0 = time.monotonic()
    assert count_vc_positions(gen_lower_vc(2), Player.B).node_expansions >= 4
    assert count_vc_positions(gen_lower_vc(4), Player.B).node_expansions >= 256
    assert time.monotonic() - t0 < 600.0


@criterion(7)
def test_07_module_keyed_state_space_bound():
    """Module-keyed search never stores more than 2 * prod(|M_i| + 1)
    keys, and prod(|M_i| + 1) <= (n/nu + 1)^nu holds numerically."""
    cases = [
        gen_grid(2, 3),
        gen_grid(2, 2, "domineering"),
        gen_lower_nd(3, 2),
        build(6, [(u, v, "g") for u in range(3) for v in range(3, 6)]),
        build(5, [(0, i, "g") for i in range(1, 5)]),
    ]
    for i in range(20):
        n = 5 + i % 6
        p = (0.3, 0.5, 0.8)[i % 3]
        cases.append(gen_random(n, p, WEIGHT_MIXES[i % len(WEIGHT_MIXES)], seed=7000 + i))
    for g in cases:
        part = nd_partition(g)
        product = math.prod(len(m) + 1 for m in part.modules)
        for turn in Player:
            stats = count_nd_positions(g, turn)
            assert stats.distinct_keys <= 2 * product
        nu = part.count
        if nu:
            assert product * nu**nu <= (g.n + nu) ** nu


@criterion(8)
def test_08_module_keyed_hard_family_floor():
    """Clique-restricted module-keyed search on the k=3 hard family
    reaches at least 13 distinct keys for s=2 and 32 for s=3."""
    for s, floor in ((2, 13), (3, 32)):
        g = gen_lower_nd(3, s)
        stats = count_nd_positions(
            g, Player.B, restrict_to=lower_nd_clique_vertices(3, s)
        )
        assert stats.distinct_keys >= floor, f"s={s}: {stats.distinct_keys}"


@criterion(9)
def test_09_relabeling_and_color_swap_symmetry():
    """Winners are invariant under vertex relabeling (100 instances x 10
    random permutations) and dualize under the gray-preserving color
    swap combined with swapping the first player."""
    rng = random.Random(424242)
    for i in range(100):
        n = 5 + i % 5
        p = (0.3, 0.5, 0.7)[i % 3]
        g = gen_random(n, p, WEIGHT_MIXES[i % len(WEIGHT_MIXES)], seed=1000 + i)
        base = {turn: solve_subset(g, turn).winner for turn in Player}
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            h = permute(g, perm)
            for turn in Player:
                assert solve_subset(h, turn).winner is base[turn]
        swapped = swap_colors(g)
        for turn in Player:
            dual = solve_subset(swapped, turn.opponent).winner
            assert dual is base[turn].opponent


@criterion(10)
def test_10_grundy_consistency_on_forests():
    """grundy_naive and grundy_tree agree on random gray forests, a
    positive value is equivalent to a first-player win for either
    mover, and values XOR over disjoint unions."""
    rng = random.Random(77)
    forests = []
    for _ in range(60):
        n = rng.randint(2, 12)
        pairs = [e for e in random_tree_pairs(rng, n) if rng.random() > 0.3]
        forests.append((n, pairs))
    values = []
    for n, pairs in forests:
        g = gray(n, pairs)
        value = grundy_tree(g)
        assert value == grundy_naive(g)
        for turn in Player:
            winner = solve_naive(g, turn).winner
            assert (winner is turn) == (value > 0)
        values.append(value)
    for (n1, p1), (n2, p2), v1, v2 in zip(
        forests[0::2], forests[1::2], values[0::2], values[1::2]
    ):
        union = gray(n1 + n2, p1 + [(u + n1, v + n1) for u, v in p2])
        assert grundy_tree(union) == v1 ^ v2
