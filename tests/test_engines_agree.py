"""Every engine finds the same winner and the same winning move."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cak import (
    Player,
    count_nd_positions,
    count_subset_positions,
    gen_grid,
    solve_naive,
    solve_nd,
    solve_subset,
    solve_tree,
    solve_vc,
)
from cak.engines import (
    VC_THRESHOLD,
    nd as nd_engine,
    select_engine,
    subset as subset_engine,
    vc as vc_engine,
)
from cak.engines.common import search
from cak.engines.tree import check_gray_forest
from cak.params import min_vertex_cover, nd_partition

from _oracles import build, full_count_oracle, twin_blowups, twin_classes_oracle


@st.composite
def positions(draw):
    """(graph under an alive mask, a cover of it that is not always
    minimum). "-" leaves a pair unjoined; the gray palettes give forests
    often, so the tree engine joins in."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    alphabet = draw(st.sampled_from(["--gbw", "-gbw", "-bw", "----g", "-----gb", "g"]))
    letters = draw(st.lists(st.sampled_from(alphabet), min_size=len(pairs), max_size=len(pairs)))
    alive = draw(st.lists(st.sampled_from([1, 1, 1, 0]), min_size=n, max_size=n))
    mask = sum(bit << v for v, bit in enumerate(alive))
    lettered = [
        (u, v, c)
        for (u, v), c in zip(pairs, letters)
        if c != "-" and mask >> u & 1 and mask >> v & 1
    ]
    g = build(n, lettered, alive=mask)
    extra = draw(st.lists(st.sampled_from(range(n)), max_size=3)) if n else []
    return g, min_vertex_cover(g).vertices | set(extra)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(positions())
def test_engines_agree_on_winner_and_move(case):
    g, cover = case
    try:
        check_gray_forest(g)
        tree = True
    except ValueError:
        tree = False
    for turn in Player:
        want = solve_naive(g, turn)
        outcomes = [
            solve_subset(g, turn),
            solve_vc(g, turn),
            solve_vc(g, turn, cover),
            solve_nd(g, turn),
        ]
        if tree:
            outcomes.append(solve_tree(g, turn))
        for out in outcomes:
            assert (out.winner, out.winning_move) == (want.winner, want.winning_move)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(twin_blowups())
def test_nd_under_a_finer_partition_agrees_with_naive(case):
    g, fine = case
    for turn in Player:
        want = solve_naive(g, turn)
        out = solve_nd(g, turn, partition=fine)
        assert (out.winner, out.winning_move) == (want.winner, want.winning_move)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(twin_blowups(), st.sampled_from([0, 2, VC_THRESHOLD]))
def test_auto_on_twin_blowups_agrees_with_naive(case, threshold):
    """auto past the tree and vc cuts takes nd exactly where twins
    exist (nu < n), else subset. Blow-ups this small mostly have tau
    under the constant threshold, so lower ones are patched in too, to
    reach that branch on graphs naive can check."""
    g, _ = case
    nu = len(twin_classes_oracle(g.edges, range(g.n)))
    with patch("cak.engines.VC_THRESHOLD", threshold):
        engine, solve = select_engine("auto", g, count_mode=False)
    if engine not in ("tree", "vc"):
        assert (engine == "nd") == (nu < g.n)
    for turn in Player:
        out, want = solve(g, turn), solve_naive(g, turn)
        assert (out.winner, out.winning_move) == (want.winner, want.winning_move)


# Each memoized engine's solve mode, and the same search with every
# child evaluated. Full expansion computes every win bit, which does not
# depend on the order of the candidates, and its root tries them in
# sorted order too, so its winning move is the smallest one.
SOLVE_AND_FULL = (
    (solve_subset, lambda g, turn: subset_engine._search(g, turn, g.n, False)),
    (solve_vc, lambda g, turn: search(g, turn, lambda: vc_engine._CoverSearch(g, None), False)),
    (
        solve_nd,
        lambda g, turn: search(g, turn, lambda: nd_engine._build(g, nd_partition(g).modules), False),
    ),
)


def assert_order_independent(g):
    for solve, full in SOLVE_AND_FULL:
        for turn in Player:
            out, want = solve(g, turn), full(g, turn)
            assert (out.winner, out.winning_move) == (want.winner, want.winning_move)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(positions())
def test_inner_order_leaves_winner_and_move_alone(case):
    """Below the root an engine may try its candidates in any order; the
    answer must be the one that full expansion gives."""
    assert_order_independent(case[0])


GRIDS = pytest.mark.parametrize("rows, cols", [(2, 3), (3, 3), (2, 5), (3, 4)])
VARIANTS = pytest.mark.parametrize("variant", ["cram", "domineering"])


@VARIANTS
@GRIDS
def test_inner_order_leaves_grid_answers_alone(variant, rows, cols):
    assert_order_independent(gen_grid(rows, cols, variant))


def triple(stats):
    return (stats.node_expansions, stats.memo_hits, stats.distinct_keys)


def assert_subset_is_nd_on_single_vertices(g):
    """The same winner and move, in no more keys, as subset's edge sets
    merge nd's alive masks that leave the same edges (and, all gray, the
    same edges with either side to move). Count mode expands the same
    edge sets as the oracle, in no more keys than nd's count mode."""
    singles = [[v] for v in g.alive_vertices()]
    lettered = [(u, v, c.letter) for u, v, c in g.edges]
    for turn in Player:
        out, want = solve_subset(g, turn), solve_nd(g, turn, partition=singles)
        assert (out.winner, out.winning_move) == (want.winner, want.winning_move)
        assert out.stats.distinct_keys <= want.stats.distinct_keys
        counted = count_subset_positions(g, turn)
        calls, keys = full_count_oracle(g.n, lettered, turn.value)
        assert triple(counted) == (calls, calls - keys, keys)
        assert counted.distinct_keys <= count_nd_positions(g, turn, partition=singles).distinct_keys


@VARIANTS
@GRIDS
def test_subset_is_nd_on_the_one_vertex_partition_on_grids(variant, rows, cols):
    assert_subset_is_nd_on_single_vertices(gen_grid(rows, cols, variant))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(positions())
def test_subset_is_nd_on_the_one_vertex_partition(case):
    assert_subset_is_nd_on_single_vertices(case[0])


def test_root_reports_the_smallest_edge_not_the_smallest_mask():
    """Every move of three disjoint gray edges wins for the mover. The
    smallest edge (0, 5) has the largest mask (33 > 6 for (1, 2)), so a
    root that sorted its candidates by mask would report (1, 2)."""
    g = build(6, [(0, 5, "g"), (1, 2, "g"), (3, 4, "g")])
    for solve in (solve_subset, solve_vc, solve_nd, solve_naive, solve_tree):
        out = solve(g, Player.B)
        assert (out.winner, out.winning_move) == (Player.B, (0, 5)), solve.__name__
