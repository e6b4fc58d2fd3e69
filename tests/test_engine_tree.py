"""Gray-forest engine: Grundy values, canonical forms, subtree counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cak import (
    CapacityError,
    Player,
    count_ak_subtrees,
    count_nk_subtrees,
    gen_caterpillar_kayles,
    gen_grid,
    grundy_naive,
    grundy_tree,
    remove_closed_edge,
    solve_subset,
    solve_tree,
)
import cak.engines.tree as tree_engine
from cak.engines.common import split_components
from cak.engines.tree import _move_values, _shapes, check_gray_forest, tree_component_code
from cak.graph import bits, induced_mask

from _oracles import (
    ak_count_oracle,
    build,
    forest_oracle,
    grundy_oracle,
    nk_count_oracle,
    prufer_trees,
    random_tree_pairs,
    rooted_shape_oracle,
    row_game_values,
    tree_code_oracle,
    trees_isomorphic,
)


def gray_tree(pairs, n=None):
    size = n if n is not None else max((v for e in pairs for v in e), default=0) + 1
    return build(max(size, 1), [(u, v, "g") for u, v in pairs])


def gray_path(n):
    return gray_tree([(v, v + 1) for v in range(n - 1)], n)


def random_forest(rng, n):
    pairs = [e for e in random_tree_pairs(rng, n) if rng.random() > 0.3]
    return gray_tree(pairs, n)


def test_grundy_known_values():
    p4 = gray_tree([(0, 1), (1, 2), (2, 3)])
    assert grundy_tree(p4) == 2
    two_edges = gray_tree([(0, 1), (2, 3)])
    assert grundy_tree(two_edges) == 0  # 1 xor 1
    star = gray_tree([(0, 1), (0, 2), (0, 3)])
    assert grundy_tree(star) == 1


def test_caterpillars_reproduce_kayles_values():
    kayles = row_game_values(30, (1, 2))
    assert kayles[1:9] == [1, 2, 3, 1, 4, 3, 2, 1]
    values = [grundy_tree(gen_caterpillar_kayles(p)) for p in range(1, 31)]
    assert values == kayles[1:]


def test_matches_naive_grundy_on_forests():
    rng = random.Random(24)
    for _ in range(30):
        g = random_forest(rng, rng.randrange(2, 11))
        assert grundy_tree(g) == grundy_naive(g)
        pairs = [e[:2] for e in g.edges]
        assert grundy_tree(g) == grundy_oracle(g.n, pairs)


def test_alive_mask_restriction():
    c4 = gen_grid(2, 2)  # cycle as a graph, acyclic once one vertex dies
    assert grundy_tree(induced_mask(c4, 0b0111)) == 1
    with pytest.raises(ValueError):
        grundy_tree(c4)


@st.composite
def graphs_with_alive_masks(draw):
    """(n, lettered edges, alive mask). "-" leaves a pair unjoined; the
    sparse palettes mostly give forests, the dense one cycles, and the
    black or white ones color errors. Three vertices in four are alive."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    alphabet = draw(st.sampled_from(["----g", "-g", "----ggggb", "----ggggw"]))
    palette = st.sampled_from(alphabet)
    letters = draw(st.lists(palette, min_size=len(pairs), max_size=len(pairs)))
    lettered = [(u, v, c) for (u, v), c in zip(pairs, letters) if c != "-"]
    alive = draw(st.lists(st.sampled_from([1, 1, 1, 0]), min_size=n, max_size=n))
    return n, lettered, sum(bit << v for v, bit in enumerate(alive))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(graphs_with_alive_masks())
def test_check_gray_forest_matches_union_find_oracle(case):
    n, lettered, mask = case
    g = build(n, lettered)
    verdict = forest_oracle(lettered, {v for v in range(n) if mask >> v & 1})
    if verdict is None:
        check_gray_forest(induced_mask(g, mask))
    elif verdict == "color":
        with pytest.raises(ValueError, match="needs an all-gray position"):
            check_gray_forest(induced_mask(g, mask))
    else:
        with pytest.raises(ValueError, match="contains a cycle"):
            check_gray_forest(induced_mask(g, mask))


def test_rejects_non_gray_edges():
    g = build(3, [(0, 1, "g"), (1, 2, "b")])
    with pytest.raises(ValueError):
        grundy_tree(g)
    with pytest.raises(ValueError):
        solve_tree(g, Player.B)


def test_solver_matches_subset_on_random_trees():
    rng = random.Random(48)
    for _ in range(25):
        n = rng.randrange(2, 13)
        g = gray_tree(random_tree_pairs(rng, n), n)
        for turn in (Player.B, Player.W):
            assert solve_tree(g, turn).winner is solve_subset(g, turn).winner


def copies(rng, pairs, n, k):
    """k disjoint copies of the tree pairs on n vertices: the first on
    0..n-1 as given, copy i relabeled at random onto i*n..(i+1)*n-1."""
    shifted = [[(u + i * n, v + i * n) for u, v in relabeled(rng, n, pairs)] for i in range(1, k)]
    return gray_tree(sum(shifted, pairs), n * k)


def test_solver_move_contract():
    # The winning move is the smallest edge whose child has value zero,
    # and there is none exactly when the position has value zero. In the
    # last case, two paths of four and one edge (value 2 ^ 2 ^ 1), the
    # only winning move is the edge 1-2. It is not the first component,
    # and the first path's end moves leave an edge, so it hits by shape
    # id and is never expanded in the value pass: two keys in all.
    rng = random.Random(52)
    cases = [g for g in shape_cases() if g.n <= 13]
    cases += [random_forest(rng, rng.randrange(2, 14)) for _ in range(25)]
    for _ in range(10):
        n = rng.randrange(2, 7)
        cases.append(copies(rng, random_tree_pairs(rng, n), n, rng.randrange(2, 13 // n + 1)))
    lone_edge = gray_tree([(0, 3), (3, 4), (4, 5), (1, 2), (6, 7), (7, 8), (8, 9)])
    out = solve_tree(lone_edge, Player.B)
    assert (out.winning_move, out.stats.distinct_keys) == ((1, 2), 2)
    for g in [*cases, lone_edge]:
        wins = [(u, v) for u, v, _ in g.edges if grundy_naive(remove_closed_edge(g, (u, v))) == 0]
        for turn in Player:
            out = solve_tree(g, turn)
            assert out.winning_move == min(wins, default=None), g.edges
            assert (out.winning_move is None) == (grundy_naive(g) == 0)
            assert out.winner is (turn if wins else turn.opponent)


def test_memo_reuses_isomorphic_components():
    # two disjoint copies of the same tree: the second costs one lookup.
    # In the second forest the stars' centres are the lowest and the
    # highest id, so the copies share no layout and only the root
    # components' centroid-rooted shape ids can merge them.
    for pairs in (
        [(0, 1), (1, 2), (1, 3)] + [(4, 5), (5, 6), (5, 7)],
        [(0, 1), (0, 2), (0, 3)] + [(4, 7), (5, 7), (6, 7)],
    ):
        g = gray_tree(pairs, 8)
        out = solve_tree(g, Player.B)
        assert out.stats.memo_hits >= 1
        assert grundy_tree(g) == 0
    # Copies of one 12-vertex tree: in grundy mode, and in a solve of an
    # even number of copies (value 0), each further copy is one memo hit.
    # With an odd number the mover wins and every copy's moves are
    # valued, but from parts already keyed: no key is added.
    rng = random.Random(5)
    pairs = random_tree_pairs(rng, 12)
    one = tree_engine._forest_search(gray_tree(pairs, 12), solve=False)[2]
    for k in (2, 4, 6):
        forest = copies(rng, pairs, 12, k)
        grundy = tree_engine._forest_search(forest, solve=False)[2]
        solved = solve_tree(forest, Player.B)
        assert solved.winning_move is None
        for s in (grundy, solved.stats):
            assert (s.node_expansions, s.memo_hits, s.distinct_keys) == (
                one.node_expansions + k - 1, one.memo_hits + k - 1, one.distinct_keys,
            )
    for k in (1, 3, 5):
        out = solve_tree(copies(rng, pairs, 12, k), Player.B)
        s = out.stats
        assert out.winner is Player.B
        assert s.node_expansions == s.memo_hits + s.distinct_keys
        assert s.distinct_keys == one.distinct_keys


def test_canonical_codes_count_unlabeled_trees():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6}
    for n, want in expected.items():
        codes = set()
        for pairs in prufer_trees(n):
            g = gray_tree(pairs, n)
            codes.add(tree_component_code(g, g.alive))
        assert len(codes) == want, n


def test_canonical_codes_match_isomorphism():
    by_code = {}
    for pairs in prufer_trees(6):
        g = gray_tree(pairs, 6)
        by_code.setdefault(tree_component_code(g, g.alive), []).append(pairs)
    groups = sorted(by_code.values(), key=len)
    same = groups[-1]
    assert trees_isomorphic(6, same[0], same[-1])
    assert not trees_isomorphic(6, groups[0][0], groups[-1][0])


def relabeled(rng, n, pairs):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in pairs]


def test_canonical_codes_match_recursive_oracle():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.randrange(1, 41)
        pairs = relabeled(rng, n, random_tree_pairs(rng, n))
        g = gray_tree(pairs, n)
        assert tree_component_code(g, g.alive) == tree_code_oracle(n, pairs)
    # two centroids: two trees of equal size joined by one edge
    for _ in range(40):
        half = rng.randrange(1, 21)
        left = random_tree_pairs(rng, half)
        right = [(u + half, v + half) for u, v in random_tree_pairs(rng, half)]
        bridge = (rng.randrange(half), half + rng.randrange(half))
        pairs = relabeled(rng, 2 * half, left + right + [bridge])
        g = gray_tree(pairs, 2 * half)
        assert tree_component_code(g, g.alive) == tree_code_oracle(2 * half, pairs)


def test_canonical_code_of_one_component_ignores_the_rest():
    rng = random.Random(98)
    for _ in range(20):
        n = rng.randrange(4, 30)
        g = random_forest(rng, n)
        comp = max(split_components(g.alive, g.neighbor_masks()), key=int.bit_count)
        inside = [(u, v) for u, v, _ in g.edges if comp >> u & 1 and comp >> v & 1]
        index = {v: i for i, v in enumerate(v for v in range(n) if comp >> v & 1)}
        local = [(index[u], index[v]) for u, v in inside]
        assert tree_component_code(g, comp) == tree_code_oracle(len(index), local)


def shape_cases():
    """Gray forests whose components stress the rerooting: relabeled
    random trees and forests, stars and spiders with the center at the
    lowest id (the BFS root) or elsewhere, paths and caterpillars."""
    rng = random.Random(113)
    for _ in range(40):
        n = rng.randrange(2, 30)
        yield gray_tree(relabeled(rng, n, random_tree_pairs(rng, n)), n)
        yield random_forest(rng, n)
    for leaves in (1, 2, 5, 12):
        yield gray_tree([(0, leaf) for leaf in range(1, leaves + 1)])
        yield gray_tree([(leaves, leaf) for leaf in range(leaves)])
    for legs, length in ((3, 2), (4, 3), (3, 4), (6, 3), (4, 5)):
        pairs = []
        for leg in range(legs):
            path = [0] + [1 + leg * length + i for i in range(length)]
            pairs += list(zip(path, path[1:]))
        n = 1 + legs * length
        yield gray_tree(pairs, n)
        yield gray_tree(relabeled(rng, n, pairs), n)
    for n in (2, 3, 6, 11):
        yield gray_path(n)
    for pins in (1, 2, 6, 7, 15):
        yield gen_caterpillar_kayles(pins)


def component_shapes(g, ids):
    """(comp, its _shapes) for every component of g, the ids interned in
    the shared table ids."""
    nbr = g.neighbor_masks()
    for comp in split_components(g.alive, nbr):
        yield comp, _shapes(comp, nbr, ids)


def shaped_parts(g, ids):
    """(part, hang, shape id) for every subtree below the BFS root and
    every part above a vertex with children: the part, the vertex it is
    rooted at and its id."""
    for comp, (order, parent, _, sub, down, _, above) in component_shapes(g, ids):
        for v in order[1:]:
            yield sub[v], v, down[v]
        for p, sid in above.items():
            yield comp & ~sub[p], parent[p], sid


def test_move_values_match_naive_grundy():
    # every edge's value is the XOR of grundy_naive over the components
    # of the child; only parts of two or more vertices that some move
    # leaves are valued, each once per component under its own id, and
    # counted per move. grundy_naive caps the graphs at 13 vertices, so
    # forty more random ones of that size join the shape cases.
    rng = random.Random(127)
    small = []
    for _ in range(40):
        n = rng.randrange(2, 14)
        small += [gray_tree(relabeled(rng, n, random_tree_pairs(rng, n)), n), random_forest(rng, n)]
    for g in (g for g in [*shape_cases(), *small] if g.n <= 13):
        nbr = g.neighbor_masks()
        for comp, shapes in component_shapes(g, {}):
            order, parent, _, sub, down, _, above = shapes
            key_of = {sub[v]: down[v] for v in order[1:]}
            key_of.update((comp & ~sub[p], sid) for p, sid in above.items())
            children = {
                (u, v): split_components(comp & ~(1 << u | 1 << v), nbr)
                for u, v, _ in g.edges
                if comp >> u & 1
            }
            left = {part for parts in children.values() for part in parts}
            valued = []

            def naive(part, key):
                assert part in left and part not in valued, (g.edges, part)
                assert key == key_of[part]
                valued.append(part)
                return grundy_naive(induced_mask(g, part))

            values, parts = _move_values(comp, shapes, {}, naive)
            edges = [tuple(sorted((parent[v], v))) for v in order[1:]]
            assert sorted(edges) == sorted(children)
            assert sorted(valued) == sorted(left)
            assert parts == sum(map(len, children.values()))
            for edge, value in zip(edges, values):
                want = 0
                for part in children[edge]:
                    want ^= grundy_naive(induced_mask(g, part))
                assert value == want, (g.edges, edge)


def test_down_and_above_ids_match_rooted_shapes():
    # a subtree is rooted at its top and the part above p at p's parent,
    # where each hangs off the moves that leave it; equal ids must mean
    # equal rooted shapes, across graphs
    ids, shape_of, id_of = {}, {}, {}
    for g in shape_cases():
        pairs = [(u, v) for u, v, _ in g.edges]
        for part, hang, sid in shaped_parts(g, ids):
            want = rooted_shape_oracle(g.n, pairs, hang, set(bits(part)))
            assert shape_of.setdefault(sid, want) == want
            assert id_of.setdefault(want, sid) == sid


def test_each_shape_id_has_one_canonical_code():
    rng = random.Random(131)
    cases = [*shape_cases(), *(random_forest(rng, rng.randrange(2, 40)) for _ in range(40))]
    ids, code_of = {}, {}
    parts = 0
    for g in cases:
        for part, _, sid in shaped_parts(g, ids):
            if part & (part - 1):
                parts += 1
                code = tree_component_code(g, part)
                assert code_of.setdefault(sid, code) == code
    assert len(code_of) < parts


def search_cases():
    """A long path, a random tree and a forest of five components."""
    tree = gray_tree(random_tree_pairs(random.Random(1), 28))
    return [gray_path(80), tree, random_forest(random.Random(7), 30)]


def test_search_never_calls_tree_component_code(monkeypatch):
    # every component, root or part, is keyed by an interned shape id;
    # the string code is only a decoding of those ids
    def refuse(g, comp):
        raise AssertionError("the search coded a component")

    monkeypatch.setattr(tree_engine, "tree_component_code", refuse)
    for g in search_cases():
        grundy_tree(g)
        for turn in Player:
            solve_tree(g, turn)


def test_each_search_splits_the_position_once(monkeypatch):
    # only the root position is split; in solve mode the root's winning
    # edge is read off its components' move values, no child is split
    calls = []

    def counting(mask, nbr):
        calls.append(mask)
        return split_components(mask, nbr)

    monkeypatch.setattr(tree_engine, "split_components", counting)
    for g in search_cases():
        for search in (grundy_tree, lambda g: solve_tree(g, Player.B)):
            calls.clear()
            search(g)
            assert calls == [g.alive]


def test_shapes_of_a_long_path_need_no_recursion():
    g = gray_path(3000)
    _, _, _, sub, down, _, above = _shapes(g.alive, g.neighbor_masks(), {})
    # playing (1499, 1500) leaves 0..1498 rooted at 1498 (the part above
    # 1499) and 1501..2999 rooted at 1501 (a subtree): paths of 1,499
    # rooted at an end
    assert sub[1501].bit_count() == (g.alive & ~sub[1499]).bit_count() == 1499
    assert above[1499] == down[1501]


def test_canonical_code_of_a_long_path_needs_no_recursion():
    def chain(k):  # rooted path of k vertices, rooted at an end
        return "(" * k + ")" * k

    g = gray_path(3000)  # centroids 1499 and 1500, branches of 1500 and 1499
    assert tree_component_code(g, g.alive) == "(" + chain(1500) + chain(1499) + ")"


# A root component is keyed by its shape rooted at a centroid and a part
# by its shape rooted where it hangs, so another rooting of one tree is a
# new key: the random pins count those. Which rooting of a vertex set is
# keyed first follows the order in which parts are first valued: largest
# subtrees first, then the parts above vertices.
@pytest.mark.parametrize(
    "g, turn, stats, move",
    [
        # The root's winning edge is read off the move values that its
        # components' expansions already found, so no move's parts are
        # probed again: was (169, 159, 10), (759, 739, 20), (733, 705, 28)
        # and (5799, 5545, 254).
        (gen_caterpillar_kayles(10), Player.B, (163, 153, 10), (1, 11)),
        (gen_caterpillar_kayles(20), Player.B, (723, 703, 20), (9, 10)),
        (gray_path(30), Player.W, (705, 677, 28), (14, 15)),
        (gray_tree(random_tree_pairs(random.Random(1), 28)), Player.B, (5758, 5504, 254), (6, 13)),
        (gray_tree(random_tree_pairs(random.Random(1), 28)), Player.W, (5758, 5504, 254), (6, 13)),
        # five components; the winning move lies outside the first one.
        # A root component whose centroid-rooted shape a part already had
        # hits by key, and only its moves are valued again, each part
        # probed once per move; the expanded components' moves are read
        # off their values: was (115, 98, 17), before that (152, 133, 19).
        (random_forest(random.Random(7), 30), Player.B, (95, 78, 17), (3, 23)),
        (random_forest(random.Random(7), 30), Player.W, (95, 78, 17), (3, 23)),
    ],
    ids=[
        "caterpillar-10", "caterpillar-20", "path-30", "random-28-B", "random-28-W",
        "forest-30-B", "forest-30-W",
    ],
)
def test_exact_search_stats(g, turn, stats, move):
    out = solve_tree(g, turn)
    s = out.stats
    assert (s.node_expansions, s.memo_hits, s.distinct_keys) == stats
    assert out.winner is turn
    assert out.winning_move == move


@pytest.mark.parametrize("turn", list(Player), ids=lambda p: p.value)
def test_exact_search_stats_under_an_alive_mask(turn):
    g = gray_path(30)
    out = solve_tree(induced_mask(g, g.alive & ~(1 << 10)), turn)  # paths of 10 and 19
    s = out.stats
    # the root path of 10 is rooted at a centroid, so the 10-path parts
    # that moves on the 19-path leave, rooted at an end, do not hit it
    assert (s.node_expansions, s.memo_hits, s.distinct_keys) == (258, 240, 18)
    assert out.winner is turn.opponent
    assert out.winning_move is None


def test_path_30_grundy_value():
    assert grundy_tree(gray_path(30)) == 4


@pytest.mark.parametrize("n, value", [(40, 3), (60, 2), (80, 2)])
def test_longer_path_grundy_values(n, value):
    assert grundy_tree(gray_path(n)) == value


@pytest.mark.parametrize("n", [*range(1, 52), 69, 86, 103, 120, 160, 200])
def test_path_grundy_matches_dawsons_kayles(n):
    # a move on a path removes two adjacent vertices: octal game 0.07
    assert grundy_tree(gray_path(n)) == row_game_values(n, (2,))[n]


def test_too_deep_search_is_a_capacity_error():
    # each move nests two calls: ~1,200 frames against the default 1,000
    g = gray_path(1200)
    with pytest.raises(CapacityError, match="recursion limit"):
        grundy_tree(g)
    with pytest.raises(CapacityError, match="recursion limit"):
        solve_tree(g, Player.B)


def test_lowered_limit_keeps_the_longest_solvable_path(shallow_stack):
    # The limit is set so that a plain recursion from here nests exactly
    # 60 frames, whatever the interpreter counts below this test. A path's
    # search nests two frames per move plus a few at the deepest visit,
    # and no shape or code adds frames per vertex; the solve lambda adds
    # one.
    def nest(depth):
        try:
            return nest(depth + 1)
        except RecursionError:
            return depth

    shallow_stack(60)
    missing = 60 - nest(1)
    shallow_stack(60 + missing)
    assert nest(1) == 60
    for solve, longest in ((grundy_tree, 57), (lambda g: solve_tree(g, Player.B), 55)):
        solve(gray_path(longest))
        with pytest.raises(CapacityError, match="recursion limit"):
            solve(gray_path(longest + 1))


def test_p3_subtree_counts():
    p3 = gray_tree([(0, 1), (1, 2)])
    assert count_ak_subtrees(p3, 0) == 2  # itself, or lone root
    assert count_ak_subtrees(p3, 1) == 1  # any matched edge kills the center
    assert count_nk_subtrees(p3, 0) == 2
    assert count_nk_subtrees(p3, 1) == 1


def test_star_subtree_counts():
    star = gray_tree([(0, 1), (0, 2), (0, 3)])
    assert count_ak_subtrees(star, 0) == 1
    assert count_ak_subtrees(star, 1) == 2
    assert count_nk_subtrees(star, 0) == 1
    assert count_nk_subtrees(star, 1) == 2


def test_counters_match_oracles():
    rng = random.Random(63)
    for _ in range(12):
        n = rng.randrange(2, 9)
        pairs = random_tree_pairs(rng, n)
        g = gray_tree(pairs, n)
        for root in range(n):
            assert count_ak_subtrees(g, root) == ak_count_oracle(n, pairs, root)
            assert count_nk_subtrees(g, root) == nk_count_oracle(n, pairs, root)


def test_counters_match_oracles_up_to_11_vertices():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randrange(2, 12)
        pairs = random_tree_pairs(rng, n)
        g = gray_tree(pairs, n)
        for root in range(n):
            assert count_ak_subtrees(g, root) == ak_count_oracle(n, pairs, root)
            assert count_nk_subtrees(g, root) == nk_count_oracle(n, pairs, root)


def test_counters_match_oracles_on_18_vertex_caterpillar():
    g = gen_caterpillar_kayles(9)
    pairs = [e[:2] for e in g.edges]
    for root in (0, 4, 9):
        assert count_ak_subtrees(g, root) == ak_count_oracle(g.n, pairs, root)
        assert count_nk_subtrees(g, root) == nk_count_oracle(g.n, pairs, root)


def test_counters_on_a_30_leg_spider():
    # each two-edge leg is kept whole or cleared, so the root keeps 0..30
    # whole legs: 31 shapes out of 2^30 keep-or-clear choices
    legs = [(0, 2 * leg + 1) for leg in range(30)]
    spider = gray_tree(legs + [(v, v + 1) for _, v in legs])
    assert count_ak_subtrees(spider, 0) == 31
    assert count_nk_subtrees(spider, 0) == 31


def test_subtree_count_bound():
    rng = random.Random(85)
    for _ in range(20):
        n = rng.randrange(4, 15)
        g = gray_tree(random_tree_pairs(rng, n), n)
        bound = 2 ** (n / 2) - 1
        for root in range(n):
            assert count_ak_subtrees(g, root) <= bound


def test_counters_reject_non_trees():
    c4 = gen_grid(2, 2)
    with pytest.raises(ValueError):
        count_ak_subtrees(c4, 0)
    disconnected = gray_tree([(0, 1), (1, 2)], 5)  # extra isolated vertices
    with pytest.raises(ValueError):
        count_ak_subtrees(disconnected, 0)
    # n - 1 edges, a cycle and an isolated vertex: a BFS without a
    # visited set would circle the triangle forever
    triangle_plus = build(4, [(0, 1, "g"), (0, 2, "g"), (1, 2, "g")])
    with pytest.raises(ValueError):
        count_ak_subtrees(triangle_plus, 0)
    with pytest.raises(ValueError):
        count_nk_subtrees(triangle_plus, 0)
    p2 = gray_tree([(0, 1)])
    with pytest.raises(ValueError):
        count_ak_subtrees(p2, 9)
