"""Graph model, .cak parsing and serialization, structural edits."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cak import (
    Color,
    ColoredGraph,
    ParseError,
    Player,
    gen_grid,
    gen_random,
    parse_graph,
    remove_closed_edge,
    serialize_graph,
)
from cak.graph import DEFAULT_VERTEX_BUDGET, VERTEX_BUDGET_ENV, induced_mask

from _oracles import build, permute, random_lettered_edges, swap_colors


def test_color_letters():
    assert Color.from_letter("g") is Color.GRAY
    assert Color.from_letter("b") is Color.BLACK
    assert Color.from_letter("w") is Color.WHITE
    assert [c.letter for c in Color] == ["g", "b", "w"]
    with pytest.raises(ValueError):
        Color.from_letter("x")


def test_color_order_for_class_vectors():
    # absent (0) < gray < black < white
    assert 0 < Color.GRAY < Color.BLACK < Color.WHITE


def test_player_rules():
    assert Player.B.opponent is Player.W
    assert Player.W.opponent is Player.B
    assert Player.parse("b") is Player.B
    assert Player.parse("W") is Player.W
    with pytest.raises(ValueError):
        Player.parse("x")
    assert Player.B.can_play(Color.GRAY)
    assert Player.W.can_play(Color.GRAY)
    assert Player.B.can_play(Color.BLACK)
    assert not Player.B.can_play(Color.WHITE)
    assert Player.W.can_play(Color.WHITE)
    assert not Player.W.can_play(Color.BLACK)


def test_graph_normalizes_and_validates():
    g = ColoredGraph(3, ((2, 0, Color.GRAY), (2, 1, Color.BLACK)))
    assert g.edges == ((0, 2, Color.GRAY), (1, 2, Color.BLACK))
    assert g.alive == 0b111
    assert g.m == 2
    assert g.color_of(0, 2) is Color.GRAY
    assert g.color_of(2, 0) is Color.GRAY
    assert g.color_of(0, 1) is None
    with pytest.raises(ValueError):
        ColoredGraph(2, ((0, 0, Color.GRAY),))
    with pytest.raises(ValueError):
        ColoredGraph(2, ((0, 1, Color.GRAY), (1, 0, Color.BLACK)))
    with pytest.raises(ValueError):
        ColoredGraph(2, ((0, 2, Color.GRAY),))
    with pytest.raises(ValueError):
        ColoredGraph(2, ((0, 1, Color.GRAY),), alive=0b01)  # dead endpoint
    with pytest.raises(ValueError):
        ColoredGraph(2, (), alive=0b100)  # mask outside universe


def test_alive_helpers():
    g = build(4, [(0, 1, "g")], alive=0b1011)
    assert g.alive_vertices() == [0, 1, 3]
    assert g.colors_present() == {Color.GRAY}
    h = remove_closed_edge(build(4, [(0, 1, "g"), (2, 3, "w")]), (2, 3))
    assert h.alive == 0b0011
    assert h.edges == ((0, 1, Color.GRAY),)
    assert h.colors_present() == {Color.GRAY}


def test_parse_single_edge():
    g = parse_graph("p cak 2 1\ne 1 2 g")
    assert g.n == 2
    assert g.edges == ((0, 1, Color.GRAY),)


def test_parse_two_edge_path():
    g = parse_graph("p cak 3 2\ne 1 2 b\ne 2 3 w")
    assert g.n == 3
    assert g.edges == ((0, 1, Color.BLACK), (1, 2, Color.WHITE))


def test_parse_comments_blank_lines_and_bytes():
    text = b"c a comment\n\np cak 2 1\nc another\ne 1 2 w\n"
    g = parse_graph(text)
    assert g.edges == ((0, 1, Color.WHITE),)


def test_parse_reversed_duplicate_rejected():
    with pytest.raises(ParseError) as err:
        parse_graph("p cak 2 2\ne 1 2 g\ne 2 1 b")
    assert "duplicate" in str(err.value)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 1 2 g", "before header"),
        ("p cak 2 1\np cak 2 1\ne 1 2 g", "second header"),
        ("p dimacs 2 1\ne 1 2 g", "bad header"),
        ("p cak x 1\ne 1 2 g", "non-integer"),
        ("p cak -1 0", "negative"),
        ("p cak 2 1\ne 1 3 g", "out of range"),
        ("p cak 2 1\ne 1 1 g", "self-loop"),
        ("p cak 2 1\ne 1 2 q", "unknown color"),
        ("p cak 2 1\ne 1 2", "bad edge line"),
        ("p cak 2 1\ne one 2 g", "non-integer"),
        ("p cak 2 2\ne 1 2 g", "declares 2 edges, found 1"),
        ("p cak 2 0\ne 1 2 g", "declares 0 edges, found 1"),
        ("x what is this", "unknown line type"),
        ("c only a comment", "missing"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_bounds_n_by_the_vertex_budget(monkeypatch):
    monkeypatch.delenv(VERTEX_BUDGET_ENV, raising=False)
    with pytest.raises(ParseError) as err:
        parse_graph("c huge\np cak 100000000000 0")
    assert VERTEX_BUDGET_ENV in str(err.value)
    assert err.value.line == 2
    assert parse_graph(f"p cak {DEFAULT_VERTEX_BUDGET} 0").n == DEFAULT_VERTEX_BUDGET
    monkeypatch.setenv(VERTEX_BUDGET_ENV, "10")
    assert parse_graph("p cak 10 0").n == 10
    with pytest.raises(ParseError):
        parse_graph("p cak 11 0")


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_graph("c one\np cak 3 2\ne 1 2 g\ne 9 3 g")
    assert err.value.line == 4


def test_serialize_examples():
    assert serialize_graph(build(2, [(0, 1, "g")])) == "p cak 2 1\ne 1 2 g\n"
    assert serialize_graph(ColoredGraph(3, ())) == "p cak 3 0\n"


def test_round_trip_cram_and_random():
    boards = [gen_grid(2, 2), gen_grid(2, 3, "domineering")]
    rng = random.Random(7)
    for seed in range(20):
        boards.append(gen_random(rng.randrange(9), rng.random(), (1, 2, 1), seed))
    for g in boards:
        assert parse_graph(serialize_graph(g)) == g


@st.composite
def lettered_graphs(draw):
    """(n, edges) with every vertex alive; "-" leaves a pair unjoined."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    letters = draw(st.lists(st.sampled_from("--gbw"), min_size=len(pairs), max_size=len(pairs)))
    return n, [(u, v, c) for (u, v), c in zip(pairs, letters) if c != "-"]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lettered_graphs())
def test_round_trip_property(case):
    g = build(*case)
    assert parse_graph(serialize_graph(g)) == g


def test_remove_closed_edge_on_c4():
    c4 = build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g"), (0, 3, "g")])
    after = remove_closed_edge(c4, (0, 1))
    assert after.edges == ((2, 3, Color.GRAY),)
    assert after.alive == 0b1100
    assert after.alive.bit_count() == c4.alive.bit_count() - 2


def test_remove_closed_edge_star_center():
    p3 = build(3, [(0, 1, "g"), (1, 2, "g")])
    after = remove_closed_edge(p3, (1, 2))
    assert after.edges == ()
    assert after.alive == 0b001


def test_remove_closed_edge_on_p4():
    p4 = build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g")])
    after = remove_closed_edge(p4, (0, 1))
    assert after.edges == ((2, 3, Color.GRAY),)


def test_remove_closed_edge_requires_edge():
    g = build(3, [(0, 1, "g")])
    with pytest.raises(ValueError):
        remove_closed_edge(g, (0, 2))


def test_remove_never_adds_edges():
    rng = random.Random(3)
    for _ in range(20):
        g = build(7, random_lettered_edges(rng, 7, 0.5))
        for u, v, _ in g.edges:
            child = remove_closed_edge(g, (u, v))
            assert set(child.edges) <= set(g.edges)
            assert child.alive.bit_count() == g.alive.bit_count() - 2


def test_permute_identity_and_swap():
    g = build(2, [(0, 1, "b")])
    assert permute(g, [0, 1]) == g
    assert permute(g, [1, 0]) == g  # single edge is symmetric


def test_permute_preserves_structure():
    rng = random.Random(11)
    for _ in range(20):
        g = build(6, random_lettered_edges(rng, 6, 0.5))
        perm = list(range(6))
        rng.shuffle(perm)
        h = permute(g, perm)
        assert h.m == g.m
        assert sorted(c for _, _, c in h.edges) == sorted(c for _, _, c in g.edges)
        for u, v, c in g.edges:
            assert h.color_of(perm[u], perm[v]) is c


def test_permute_tracks_alive_mask():
    g = build(3, [(0, 1, "g")], alive=0b011)
    h = permute(g, [2, 1, 0])
    assert h.alive == 0b110
    assert h.edges == ((1, 2, Color.GRAY),)


def test_permute_rejects_non_bijections():
    g = build(3, [(0, 1, "g")])
    with pytest.raises(ValueError):
        permute(g, [0, 0, 1])
    with pytest.raises(ValueError):
        permute(g, [0, 1])


def test_swap_colors():
    assert swap_colors(build(2, [(0, 1, "b")])).edges == ((0, 1, Color.WHITE),)
    gray = build(3, [(0, 1, "g"), (1, 2, "g")])
    assert swap_colors(gray) == gray
    rng = random.Random(5)
    for _ in range(10):
        g = build(6, random_lettered_edges(rng, 6, 0.5))
        assert swap_colors(swap_colors(g)) == g


def test_induced_mask():
    g = build(4, [(0, 1, "g"), (1, 2, "b"), (2, 3, "w")])
    sub = induced_mask(g, 0b0111)
    assert sub.edges == ((0, 1, Color.GRAY), (1, 2, Color.BLACK))
    assert sub.alive == 0b0111
    with pytest.raises(ValueError):
        induced_mask(sub, 0b1000)
