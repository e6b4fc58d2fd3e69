"""Exact search accounting of the memoized driver.

The (node_expansions, memo_hits, distinct_keys) triples below were
recorded with the driver that called itself on every child and looked
the key up inside the call; the subset solve triples were recorded
again when subset began to try, below the root, the edges that destroy
the most opponent edges first, and the vc solve triples when vc stopped
sorting the candidates of inner positions (it now tries its
cover-internal edges first, then the class moves in table order) and
again when vc's solve mode capped each class's count at its number of
alive cover neighbours, merging positions of equal value, and
the nd solve triples when nd took subset's order (subset became nd on
the one-vertex partition): each side's module pairs sorted once by how
many opponent edges their edges destroy, the pairs of two one-vertex
modules, fixed edges, first. The subset solve triples were recorded
again when subset's solve mode left the shared search for its own
search over edge sets, keyed on the edges a position has left; its
count triples are the shared search's. Any
change to how the driver visits positions must reproduce them
exactly: the search tree, the memo and the counts are part of what the
CLI prints. Count mode evaluates every child, so its triples do not
depend on the order of the candidates. The naive engine's node counts
were recorded with its root loop written apart from its recursion, and
pin the plain recursion tree the same way.
"""

from time import sleep
from unittest.mock import patch

import pytest

from cak import (
    Player,
    count_nd_positions,
    count_subset_positions,
    count_vc_positions,
    gen_caterpillar_kayles,
    gen_grid,
    gen_lower_nd,
    gen_lower_vc,
    solve_nd,
    solve_naive,
    solve_subset,
    solve_tree,
    solve_vc,
)
from cak.engines import (
    nd as nd_engine,
    subset as subset_engine,
    tree as tree_engine,
    vc as vc_engine,
)
from cak.engines.common import search
from cak.generators import lower_nd_clique_vertices

from _oracles import build


def triple(stats):
    return (stats.node_expansions, stats.memo_hits, stats.distinct_keys)


# (board, first player) -> (winner, winning move, solve triple, count triple)
SUBSET = {
    ("cram", 4, 5, "B"): ("B", (5, 10), (22596, 15214, 7382), (423583, 364753, 58830)),
    ("cram", 4, 5, "W"): ("W", (5, 10), (22596, 15214, 7382), (423583, 364753, 58830)),
    ("domineering", 4, 6, "B"): ("B", (8, 14), (8666, 3804, 4862), (1027041, 788322, 238719)),
    ("domineering", 4, 6, "W"): ("W", (1, 2), (10767, 4901, 5866), (1077919, 828284, 249635)),
}


@pytest.mark.parametrize("case", sorted(SUBSET), ids=lambda c: "-".join(map(str, c)))
def test_subset_accounting(case):
    """Also: an edge-set key merges alive masks that leave the same
    edges, so solve mode stores no more keys than nd on one-vertex
    modules, which keys the alive mask and tries moves in the same order."""
    variant, rows, cols, first = case
    winner, move, solved, counted = SUBSET[case]
    g = gen_grid(rows, cols, variant)
    out = solve_subset(g, Player(first))
    assert (out.winner.value, out.winning_move, triple(out.stats)) == (winner, move, solved)
    assert triple(count_subset_positions(g, Player(first))) == counted
    singles = solve_nd(g, Player(first), partition=[[v] for v in range(g.n)])
    assert out.stats.distinct_keys <= singles.stats.distinct_keys


# A colored position with cover {1, 2, 3, 5} whose mover, B, wins; its
# solve triple moves with the order in which vc tries inner moves.
VC_WIN = [
    (0, 3, "w"), (0, 5, "w"), (1, 2, "w"), (1, 6, "g"), (1, 7, "g"), (2, 4, "g"), (2, 5, "w"),
    (2, 8, "b"), (3, 6, "b"), (3, 7, "w"), (3, 8, "g"), (4, 5, "b"), (5, 7, "g"), (5, 8, "g"),
]


def test_vc_accounting():
    g = gen_lower_vc(4)
    assert triple(count_vc_positions(g, Player.B)) == (3799, 3476, 323)
    out = solve_vc(g, Player.B)
    assert (out.winner, out.winning_move, triple(out.stats)) == (Player.W, None, (81, 54, 27))
    out = solve_vc(g, Player.W)
    assert (out.winner, out.winning_move, triple(out.stats)) == (Player.B, None, (73, 50, 23))
    g = build(9, VC_WIN)
    assert triple(count_vc_positions(g, Player.B)) == (188, 117, 71)
    out = solve_vc(g, Player.B)
    assert (out.winner, out.winning_move, triple(out.stats)) == (Player.B, (4, 5), (80, 37, 43))
    assert triple(count_vc_positions(g, Player.W)) == (202, 129, 73)
    out = solve_vc(g, Player.W)
    assert (out.winner, out.winning_move, triple(out.stats)) == (Player.W, (1, 2), (26, 10, 16))


def test_nd_accounting():
    g = gen_lower_nd(3, 4)
    assert triple(count_nd_positions(g, Player.B)) == (1954, 1590, 364)
    out = solve_nd(g, Player.W)
    assert (out.winner, out.winning_move, triple(out.stats)) == (Player.W, (0, 1), (179, 94, 85))


@pytest.mark.parametrize("first", list(Player), ids=lambda p: p.value)
def test_restricted_nd_accounting(first):
    g = gen_lower_nd(3, 2)
    stats = count_nd_positions(g, first, restrict_to=lower_nd_clique_vertices(3, 2))
    assert triple(stats) == (34, 20, 14)


@pytest.mark.parametrize(
    "engine, solve, count, modes",
    [
        (subset_engine, solve_subset, count_subset_positions, [False]),
        (nd_engine, solve_nd, count_nd_positions, [True, False]),
    ],
    ids=["subset", "nd"],
)
def test_default_key_is_the_alive_mask(engine, solve, count, modes):
    """nd, and subset in count mode, pass no key, so the search keys them
    on the alive mask; the same search with an explicit identity key,
    patched into the module that calls it, must give the same triple in
    each mode that calls it (modes lists their short_circuit flags), and
    the same winner and move. subset's solve mode runs its own search."""
    calls = []

    def identity_keyed(g, turn, build, short_circuit):
        def keyed():
            engine_setup = build()
            assert engine_setup.key is None
            engine_setup.key = lambda mask, side: mask
            return engine_setup

        calls.append(short_circuit)
        return search(g, turn, keyed, short_circuit)

    boards = [gen_grid(3, 3), gen_grid(2, 5), gen_grid(3, 4, "domineering"), gen_lower_nd(3, 2)]
    for g in boards:
        for first in Player:
            out = solve(g, first)
            counted = count(g, first)
            calls.clear()
            with patch.object(engine, "search", identity_keyed):
                want = solve(g, first)
                want_counted = count(g, first)
            assert calls == modes
            assert (out.winner, out.winning_move) == (want.winner, want.winning_move)
            assert triple(out.stats) == triple(want.stats)
            assert triple(counted) == triple(want_counted)


@pytest.mark.parametrize(
    "setups",
    [
        [
            (subset_engine, "_edge_sides", solve_subset),
            (nd_engine._ModuleSearch, "__init__", count_subset_positions),
        ],
        [(vc_engine._CoverSearch, "__init__", run) for run in (solve_vc, count_vc_positions)],
        [(nd_engine._ModuleSearch, "__init__", run) for run in (solve_nd, count_nd_positions)],
    ],
    ids=["subset", "vc", "nd"],
)
def test_setup_counts_in_elapsed(setups):
    """elapsed runs from before the engine's set-up, not from the first
    node: a set-up slowed by 20 ms shows in it, in both modes, and
    setup_s reports that share of it. Each entry names the set-up one
    mode runs and the function that runs it."""
    g = gen_grid(2, 3)
    for owner, name, run in setups:
        setup = getattr(owner, name)

        def slow(*args, setup=setup):
            sleep(0.02)
            return setup(*args)

        with patch.object(owner, name, slow):
            result = run(g, Player.B)
            stats = getattr(result, "stats", result)
            assert 0.02 <= stats.setup_s <= stats.elapsed


def test_tree_setup_counts_in_setup_s():
    """The tree engine's set-up, the checked split of the forest into
    components, is timed as setup_s inside elapsed when it solves and
    when it only computes the value."""
    check = tree_engine.check_gray_forest

    def slow_check(g):
        sleep(0.02)
        return check(g)

    g = gen_caterpillar_kayles(3)
    with patch.object(tree_engine, "check_gray_forest", slow_check):
        for stats in (solve_tree(g, Player.B).stats, tree_engine._forest_search(g, False)[2]):
            assert 0.02 <= stats.setup_s <= stats.elapsed


# (board, first player) -> (node_expansions, winner, winning move)
NAIVE = {
    ("cram", 2, 3, "B"): (16, "B", (0, 3)),
    ("cram", 2, 3, "W"): (16, "W", (0, 3)),
    ("cram", 3, 3, "B"): (139, "W", None),
    ("cram", 3, 3, "W"): (139, "B", None),
    ("domineering", 3, 3, "B"): (10, "B", (1, 4)),
    ("domineering", 3, 3, "W"): (18, "W", (3, 4)),
}


@pytest.mark.parametrize("case", sorted(NAIVE), ids=lambda c: "-".join(map(str, c)))
def test_naive_accounting(case):
    variant, rows, cols, first = case
    out = solve_naive(gen_grid(rows, cols, variant), Player(first))
    assert (out.stats.node_expansions, out.winner.value, out.winning_move) == NAIVE[case]
