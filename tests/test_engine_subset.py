"""Subset engine: bitmask memo vs the naive reference."""

import random

import pytest

from cak import (
    CapacityError,
    ColoredGraph,
    Player,
    count_nd_positions,
    count_subset_positions,
    count_vc_positions,
    gen_grid,
    gen_lower_nd,
    gen_lower_vc,
    gen_random,
    remove_closed_edge,
    solve_naive,
    solve_nd,
    solve_subset,
    solve_vc,
)
from cak.graph import induced_mask

from _oracles import build, full_count_oracle, random_lettered_edges


def test_matches_naive_on_random_instances():
    """"gb" and "gbw" give the sides unequal edge counts, so W's field
    and the side flag sit past the larger side's width."""
    rng = random.Random(90)
    for case in range(60):
        n = rng.randrange(9)
        letters = rng.choice(["g", "gb", "gbw", "bw"])
        g = build(n, random_lettered_edges(rng, n, rng.choice([0.3, 0.6]), letters))
        for turn in (Player.B, Player.W):
            out, want = solve_subset(g, turn), solve_naive(g, turn)
            assert (out.winner, out.winning_move) == (want.winner, want.winning_move)


@pytest.mark.parametrize(
    "first, want",
    [(Player.B, (Player.W, None, (147, 53, 94))), (Player.W, (Player.W, (0, 1), (112, 44, 68)))],
    ids=["B", "W"],
)
def test_unequal_side_edge_counts(first, want):
    """Domineering 3x5: B plays 10 vertical edges, W 12 horizontal ones.
    Fields as wide as B's count would put the side flag inside W's
    field and merge distinct positions; the answers would still agree,
    but the pinned counters would not."""
    g = gen_grid(3, 5, "domineering")
    singles = [[v] for v in range(g.n)]
    out = solve_subset(g, first)
    assert (out.winner, out.winning_move, counters(out.stats)) == want
    for other in (solve_naive(g, first), solve_nd(g, first, partition=singles)):
        assert (other.winner, other.winning_move) == want[:2]


def test_cram_2x3_first_player_wins():
    assert solve_subset(gen_grid(2, 3), Player.B).winner is Player.B


def test_empty_graph():
    out = solve_subset(ColoredGraph(4, ()), Player.W)
    assert out.winner is Player.B
    assert out.stats.node_expansions == 1


def counters(stats):
    return stats.node_expansions, stats.memo_hits, stats.distinct_keys


def test_capacity_guard():
    # 33 vertices, one gray edge: B plays it and W has no move left.
    g = build(33, [(0, 1, "g")])
    with pytest.raises(CapacityError):
        solve_subset(g, Player.B)
    out = solve_subset(g, Player.B, max_n=40)
    assert (out.winner, out.winning_move) == (Player.B, (0, 1))
    # The bound counts alive vertices, not the universe: 20 alive of 40
    # solve with nd's answer on the same one-vertex modules, and count
    # as nd counts them.
    parent = gen_random(40, 0.1, seed=1)
    g = induced_mask(parent, (1 << 20) - 1)
    singles = [[v] for v in range(20)]
    out, nd_out = solve_subset(g, Player.B), solve_nd(g, Player.B, partition=singles)
    assert out.winner is nd_out.winner is Player.B
    assert out.winning_move == nd_out.winning_move
    full = count_subset_positions(g, Player.B)
    assert counters(full) == counters(count_nd_positions(g, Player.B, partition=singles))
    for run in (solve_subset, count_subset_positions):
        with pytest.raises(CapacityError, match=r"^subset engine .* 2\^40\.0 "):
            run(parent, Player.B)


def test_too_deep_search_is_a_capacity_error(shallow_stack):
    # a matching of 100 edges: the first line of play is 100 moves deep
    g = build(200, [(2 * i, 2 * i + 1, "g") for i in range(100)])
    shallow_stack(60)
    with pytest.raises(CapacityError, match="recursion limit"):
        solve_subset(g, Player.B, max_n=200)


def test_capacity_counts_alive_vertices_in_nds_format():
    """33 alive of 40: both engines refuse, on one-vertex modules, in
    one message format, each naming itself."""
    g = induced_mask(gen_random(40, 0.1, seed=1), (1 << 33) - 1)
    singles = [[v] for v in range(33)]
    for engine, run in (("subset", solve_subset), ("nd", lambda g, t: solve_nd(g, t, singles))):
        with pytest.raises(CapacityError) as err:
            run(g, Player.B)
        assert str(err.value) == (
            f"{engine} engine keys up to prod(|M_i|+1) = 2^33.0 positions; the limit is 2^32"
        )


def test_single_edge_key_count():
    stats = count_subset_positions(build(2, [(0, 1, "g")]), Player.B)
    assert stats.distinct_keys <= 4


def test_key_space_bounds():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(1, 9)
        g = build(n, random_lettered_edges(rng, n, 0.5))
        stats = count_subset_positions(g, Player.B)
        assert stats.distinct_keys <= 2 ** (n + 1)
        assert stats.distinct_keys <= stats.node_expansions + 1
        assert stats.memo_hits <= stats.node_expansions
        assert stats.elapsed >= 0.0


def test_p4_key_bound():
    p4 = build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g")])
    assert count_subset_positions(p4, Player.B).distinct_keys <= 32


def test_winning_move_contract():
    rng = random.Random(23)
    for _ in range(30):
        g = build(7, random_lettered_edges(rng, 7, 0.5))
        for turn in (Player.B, Player.W):
            out = solve_subset(g, turn)
            if out.winner is turn:
                u, v = out.winning_move
                assert turn.can_play(g.color_of(u, v))
                child = remove_closed_edge(g, (u, v))
                assert solve_naive(child, turn.opponent).winner is turn
            else:
                assert out.winning_move is None


def test_deterministic_outcome():
    g = build(8, random_lettered_edges(random.Random(3), 8, 0.5))
    a = solve_subset(g, Player.B)
    b = solve_subset(g, Player.B)
    assert (a.winner, a.winning_move) == (b.winner, b.winning_move)
    assert a.stats.node_expansions == b.stats.node_expansions


def lettered(g):
    return [(u, v, c.letter) for u, v, c in g.edges]


def test_count_mode_expands_every_child():
    cram = gen_grid(3, 3)
    stats = count_subset_positions(cram, Player.B)
    assert (stats.node_expansions, stats.distinct_keys) == (301, 98)
    assert full_count_oracle(cram.n, lettered(cram), "B") == (301, 98)
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randrange(1, 9)
        g = build(n, random_lettered_edges(rng, n, rng.choice([0.3, 0.6])))
        for turn in (Player.B, Player.W):
            stats = count_subset_positions(g, turn)
            want = full_count_oracle(n, lettered(g), turn.value)
            assert (stats.node_expansions, stats.distinct_keys) == want
            assert stats.memo_hits == stats.node_expansions - stats.distinct_keys


def _stats(result):
    stats = getattr(result, "stats", result)
    return (stats.node_expansions, stats.memo_hits, stats.distinct_keys)


@pytest.mark.parametrize(
    "run, want_stats, want_move",
    [
        (lambda: solve_subset(gen_grid(3, 3), Player.B), (75, 38, 37), None),
        (lambda: solve_vc(gen_grid(3, 4, "domineering"), Player.W), (50, 12, 38), (0, 1)),
        (lambda: solve_nd(gen_lower_nd(3, 2), Player.B), (90, 45, 45), None),
        (lambda: count_nd_positions(gen_lower_nd(3, 2), Player.B), (275, 200, 75), None),
        (lambda: count_vc_positions(gen_lower_vc(2), Player.B), (13, 6, 7), None),
    ],
    ids=["subset-cram3x3", "vc-dom3x4", "nd-lower3-2", "nd-count", "vc-count"],
)
def test_exact_stats(run, want_stats, want_move):
    """The CLI prints these counters, so they are pinned exactly. The
    solve triples move with the order of inner moves: nd's was recorded
    again when nd took subset's order (fixed one-vertex edges first, each
    side's moves by how many opponent edges they destroy), and again when
    edges into one-vertex modules came before pairs of larger modules.
    subset's was recorded again when its solve mode began to key a
    position on its remaining edges."""
    result = run()
    assert _stats(result) == want_stats
    assert getattr(result, "winning_move", None) == want_move


def test_domineering_5x6_both_first_players():
    """Transposing the board turns vertical edges into horizontal ones,
    so the 6x5 board with the roles swapped mirrors each answer: the
    cell (r, c) of 5x6 is the cell (c, r) of 6x5."""

    def transpose(v):
        r, c = divmod(v, 6)
        return c * 5 + r

    want = {Player.B: (Player.W, None), Player.W: (Player.W, (0, 1))}
    for first, (winner, move) in want.items():
        out = solve_subset(gen_grid(5, 6, "domineering"), first)
        assert (out.winner, out.winning_move) == (winner, move)
        mirror = solve_subset(gen_grid(6, 5, "domineering"), first.opponent)
        assert mirror.winner is winner.opponent
        assert mirror.winning_move == (move and tuple(sorted(map(transpose, move))))
    assert solve_subset(gen_grid(6, 5, "domineering"), Player.B).winning_move == (0, 5)
