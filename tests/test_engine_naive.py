"""Reference engine: plain recursion against a test-local oracle."""

import random

import pytest

from cak import CapacityError, ColoredGraph, Player, gen_grid, grundy_naive, solve_naive
from cak.engines.common import playable_edges
from cak.graph import induced_mask, remove_closed_edge

from _oracles import build, grundy_oracle, random_lettered_edges, win_oracle


def test_empty_graph_mover_loses():
    g = ColoredGraph(3, ())
    out = solve_naive(g, Player.B)
    assert out.winner is Player.W
    assert out.winning_move is None
    assert out.stats.node_expansions == 1


def test_single_black_edge():
    g = build(2, [(0, 1, "b")])
    out = solve_naive(g, Player.B)
    assert out.winner is Player.B
    assert out.winning_move == (0, 1)
    # W cannot play black, so B wins either way
    assert solve_naive(g, Player.W).winner is Player.B
    assert solve_naive(g, Player.W).winning_move is None


def test_cram_2x2_second_player_wins():
    assert solve_naive(gen_grid(2, 2), Player.B).winner is Player.W


def test_matches_oracle_on_random_instances():
    rng = random.Random(2024)
    for case in range(80):
        n = rng.randrange(8)
        letters = rng.choice(["g", "gb", "gw", "bw", "gbw"])
        edges = random_lettered_edges(rng, n, rng.choice([0.3, 0.6]), letters)
        g = build(n, edges)
        for turn in ("B", "W"):
            got = solve_naive(g, Player.parse(turn)).winner.value
            assert got == win_oracle(n, edges, turn), (edges, turn)


def test_winning_move_contract():
    rng = random.Random(31)
    for case in range(40):
        edges = random_lettered_edges(rng, 6, 0.5)
        g = build(6, edges)
        turn = Player.B if case % 2 else Player.W
        out = solve_naive(g, turn)
        if out.winner is not turn:
            assert out.winning_move is None
            continue
        u, v = out.winning_move
        assert turn.can_play(g.color_of(u, v))
        assert solve_naive(remove_closed_edge(g, (u, v)), turn.opponent).winner is turn
        # reported move is the lexicographically smallest winning edge
        edges = [tuple(v for v in range(g.n) if em >> v & 1) for em in playable_edges(g, turn)]
        winning = [
            e for e in edges if solve_naive(remove_closed_edge(g, e), turn.opponent).winner is turn
        ]
        assert out.winning_move == min(winning)


def test_alive_mask_argument():
    p4 = build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g")])
    out = solve_naive(induced_mask(p4, 0b0011), Player.B)  # just the first edge
    assert out.winner is Player.B
    with pytest.raises(ValueError):
        induced_mask(p4, 0b10000)


def test_grundy_known_values():
    assert grundy_naive(build(2, [(0, 1, "g")])) == 1
    p4 = build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g")])
    assert grundy_naive(p4) == 2
    star = build(4, [(0, 1, "g"), (0, 2, "g"), (0, 3, "g")])
    assert grundy_naive(star) == 1
    assert grundy_naive(ColoredGraph(2, ())) == 0


def test_grundy_rejects_partisan_input():
    g = build(3, [(0, 1, "g"), (1, 2, "b")])
    with pytest.raises(ValueError):
        grundy_naive(g)
    # dead colored edge is fine: only the alive part must be gray
    assert grundy_naive(induced_mask(g, 0b011)) == 1


def test_grundy_matches_oracle():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randrange(2, 8)
        edges = random_lettered_edges(rng, n, 0.4, "g")
        pairs = [e[:2] for e in edges]
        assert grundy_naive(build(n, edges)) == grundy_oracle(n, pairs)


def test_grundy_additive_over_disjoint_union():
    rng = random.Random(13)
    for _ in range(15):
        e1 = random_lettered_edges(rng, 4, 0.6, "g")
        e2 = random_lettered_edges(rng, 4, 0.6, "g")
        shifted = [(u + 4, v + 4, c) for u, v, c in e2]
        union = build(8, e1 + shifted)
        a = grundy_naive(build(4, e1))
        b = grundy_naive(build(4, e2))
        assert grundy_naive(union) == a ^ b


def test_grundy_zero_iff_mover_loses():
    rng = random.Random(40)
    for _ in range(30):
        n = rng.randrange(2, 8)
        g = build(n, random_lettered_edges(rng, n, 0.5, "g"))
        value = grundy_naive(g)
        for turn in (Player.B, Player.W):
            mover_wins = solve_naive(g, turn).winner is turn
            assert mover_wins == (value > 0)


def test_too_deep_search_is_a_capacity_error(shallow_stack):
    # a matching of 100 edges: the first line of play is 100 moves deep
    g = build(200, [(2 * i, 2 * i + 1, "g") for i in range(100)])
    shallow_stack(60)
    with pytest.raises(CapacityError, match="recursion limit"):
        solve_naive(g, Player.B)
