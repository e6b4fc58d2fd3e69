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
from cak.engines.common import playable_edges
from cak.engines.symmetry import automorphisms, mirror
from cak.graph import Color, bits, induced_mask

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


def two_copies(g, perm=None):
    """g beside a copy of itself on vertices g.n.., relabelled by perm."""
    perm = perm or list(range(2 * g.n))
    edges = g.edges + tuple((u + g.n, v + g.n, c) for u, v, c in g.edges)
    return ColoredGraph(2 * g.n, tuple((perm[u], perm[v], c) for u, v, c in edges))


def random_regular(rng, n, degree, letters):
    """A random degree-regular graph on n vertices (n * degree even):
    colour refinement leaves its vertices in one class when gray, whether
    or not it has a symmetry."""
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == len(stubs) // 2 and all(u != v for u, v in pairs):
            return build(n, [(u, v, rng.choice(letters)) for u, v in sorted(pairs)])


def symmetric_families():
    """Cycles, stars, complete bipartite graphs and two-copy graphs, in
    gray and in colour patterns that keep some of their symmetry."""
    rng = random.Random(7)
    for n in range(3, 10):
        for letters in ("g", "b", "gb", "gbw"):
            yield build(n, [(i, (i + 1) % n, letters[i % len(letters)]) for i in range(n)])
            yield build(n, [(0, i, letters[i % len(letters)]) for i in range(1, n)])
    for a in range(1, 4):
        for b in range(a, 5):
            for letters in ("g", "bw"):
                pairs = [(i, a + j) for i in range(a) for j in range(b)]
                yield build(a + b, [(u, v, letters[(u + v) % len(letters)]) for u, v in pairs])
    for _ in range(20):
        n = rng.randrange(2, 6)
        g = build(n, random_lettered_edges(rng, n, 0.5))
        perm = list(range(2 * n))
        rng.shuffle(perm)
        yield two_copies(g, rng.choice([None, perm]))


def test_automorphisms_keep_edges_and_colours():
    """Every map sends the vertices with edges onto themselves and each
    edge to an edge of the same colour, checked against g.edges; on
    positions with dead or isolated vertices too, which no map moves."""
    rng = random.Random(33)
    graphs = list(symmetric_families())
    for _ in range(150):
        n = rng.randrange(1, 12)
        letters = rng.choice(["g", "gb", "gbw"])
        g = build(n, random_lettered_edges(rng, n, rng.choice([0.2, 0.4]), letters))
        graphs += [g, induced_mask(g, rng.getrandbits(n) & g.alive), two_copies(g)]
        graphs.append(random_regular(rng, rng.choice([6, 8, 10]), rng.choice([3, 4]), letters[:2]))
    found = 0
    for g in graphs:
        ends = sorted({v for e in g.edges for v in e[:2]})
        for sigma in automorphisms(g)[0]:
            assert sorted(sigma) == sorted(sigma.values()) == ends
            moved = {(*sorted((sigma[u], sigma[v])), c) for u, v, c in g.edges}
            assert moved == set(g.edges)
            found += 1
    assert found > len(graphs) // 2


@pytest.mark.parametrize(
    "board, first, orbits, edges",
    [
        ((4, 6, "cram"), Player.B, 12, 38),
        ((5, 5, "cram"), Player.B, 6, 40),
        ((4, 6, "domineering"), Player.B, 6, 18),
    ],
    ids=["cram4x6", "cram5x5", "domineering4x6-B"],
)
def test_root_orbit_counts(board, first, orbits, edges):
    """The mover's edges fall into the orbits of the board's symmetries
    that keep colours: four on 4x6 boards, eight on Cram 5x5. Each
    orbit's lead is its first edge in (u, v) order, one of the mover's."""
    g = gen_grid(*board)
    mine = playable_edges(g, first)
    leads = automorphisms(g)[1]
    assert (len({leads[em] for em in mine}), len(mine)) == (orbits, edges)
    for em in mine:
        assert leads[em] in mine and leads[leads[em]] == leads[em]
        assert bits(leads[em]) <= bits(em)


def test_matches_naive_on_symmetric_families():
    """The root skips an edge when an edge of its orbit lost, which the
    random graphs above almost never allow; these families do, and their
    gray members often stop at a mirror strategy instead."""
    rng = random.Random(8)
    graphs = list(symmetric_families())
    graphs += [random_regular(rng, 8, 3, "g") for _ in range(20)]
    boards = [(r, c) for r in range(1, 5) for c in range(1, 5) if r * c <= 12]
    graphs += [gen_grid(r, c, v) for r, c in boards for v in ("cram", "domineering")]
    for g in graphs:
        for turn in (Player.B, Player.W):
            out, want = solve_subset(g, turn), solve_naive(g, turn)
            assert (out.winner, out.winning_move) == (want.winner, want.winning_move)


def test_mirror_roots_lose_for_the_mover():
    """Wherever an all-gray root finds a mirror strategy, the naive
    search agrees that the mover loses, whichever side moves, and subset
    stops at the root. Each sigma is checked here without symmetry's
    code: an automorphism of g, an involution, no vertex with an edge
    fixed and no edge {v, sigma(v)}. The graphs: the gray symmetric
    families, two copies of random gray graphs and Cram boards of at
    most 16 cells."""
    rng = random.Random(35)
    graphs = [g for g in symmetric_families() if all(c is Color.GRAY for *_, c in g.edges)]
    for _ in range(150):
        n = rng.randrange(1, 9)
        perm = list(range(2 * n))
        rng.shuffle(perm)
        g = build(n, random_lettered_edges(rng, n, rng.choice([0.3, 0.5]), "g"))
        graphs.append(two_copies(g, rng.choice([None, perm])))
    graphs += [gen_grid(r, c) for r in range(1, 17) for c in range(1, 16 // r + 1)]
    fired = 0
    for g in graphs:
        sigma = mirror(g, automorphisms(g)[0])
        if sigma is None:
            continue
        fired += 1
        pairs = {(u, v) for u, v, _ in g.edges}
        assert sorted(sigma) == sorted(sigma.values()) == sorted({v for e in pairs for v in e})
        assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in pairs} == pairs
        for v, w in sigma.items():
            assert w != v and sigma[w] == v and (min(v, w), max(v, w)) not in pairs
        for turn in (Player.B, Player.W):
            assert solve_naive(g, turn).winner is turn.opponent
            out = solve_subset(g, turn)
            assert (out.winner, out.winning_move, counters(out.stats)) == (turn.opponent, None, (1, 0, 1))
    assert fired >= 150


def test_mirror_needs_a_disjoint_image_of_every_edge():
    """K2's one swap and P4's reversal each map an edge to itself, so no
    mirror applies, and the mover wins both."""
    for g in (build(2, [(0, 1, "g")]), build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g")])):
        maps = automorphisms(g)[0]
        assert maps and mirror(g, maps) is None
        assert solve_subset(g, Player.B).winner is Player.B


@pytest.mark.parametrize(
    "board, first, want",
    [
        ((4, 5, "cram"), Player.B, (Player.B, (5, 10), (17966, 11937, 6029))),
        ((4, 5, "cram"), Player.W, (Player.W, (5, 10), (17966, 11937, 6029))),
        ((3, 7, "cram"), Player.B, (Player.B, (3, 10), (34422, 23673, 10749))),
        ((3, 7, "cram"), Player.W, (Player.W, (3, 10), (34422, 23673, 10749))),
        ((4, 6, "domineering"), Player.B, (Player.B, (8, 14), (7295, 3148, 4147))),
        ((4, 6, "domineering"), Player.W, (Player.W, (1, 2), (10767, 4901, 5866))),
        ((4, 4, "cram"), Player.B, (Player.W, None, (1, 0, 1))),
        ((4, 4, "cram"), Player.W, (Player.B, None, (1, 0, 1))),
        ((4, 6, "cram"), Player.B, (Player.W, None, (1, 0, 1))),
    ],
    ids=["cram4x5-B", "cram4x5-W", "cram3x7-B", "cram3x7-W", "dom4x6-B", "dom4x6-W"]
    + ["cram4x4-B", "cram4x4-W", "cram4x6-B"],
)
def test_root_symmetry_stats(board, first, want):
    """Cram 4x5 and 3x7 map their centre domino onto itself under every
    symmetry, so no mirror applies, and Domineering is partizan: these
    keep the triples of the root that tries one edge per orbit. Cram 4x4
    and 4x6 are lost to the 180-degree rotation at the root (4x6 took
    179,447 / 128,298 / 51,149 without it)."""
    out = solve_subset(gen_grid(*board), first)
    assert (out.winner, out.winning_move, counters(out.stats)) == want


def test_mirror_is_the_half_turn_on_cram_4x6():
    g = gen_grid(4, 6)
    assert mirror(g, automorphisms(g)[0]) == {v: 23 - v for v in range(24)}


def test_count_mode_takes_no_mirror():
    """Count mode evaluates every child, so a mirror root still counts
    its whole tree."""
    for first in (Player.B, Player.W):
        assert counters(count_subset_positions(gen_grid(4, 4), first)) == (28557, 24291, 4266)


@pytest.mark.parametrize(
    "first, want",
    [(Player.B, (Player.W, None, (51, 14, 37))), (Player.W, (Player.W, (0, 1), (112, 44, 68)))],
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
    # in no more keys than nd's alive masks there.
    parent = gen_random(40, 0.1, seed=1)
    g = induced_mask(parent, (1 << 20) - 1)
    singles = [[v] for v in range(20)]
    out, nd_out = solve_subset(g, Player.B), solve_nd(g, Player.B, partition=singles)
    assert out.winner is nd_out.winner is Player.B
    assert out.winning_move == nd_out.winning_move
    full = count_subset_positions(g, Player.B)
    assert counters(full) == (21095, 16848, 4247)
    assert full.distinct_keys <= count_nd_positions(g, Player.B, partition=singles).distinct_keys
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
    assert (stats.node_expansions, stats.distinct_keys) == (289, 78)
    assert full_count_oracle(cram.n, lettered(cram), "B") == (289, 78)
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
        (lambda: solve_subset(gen_grid(3, 3), Player.B), (13, 4, 9), None),
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
