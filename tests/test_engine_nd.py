"""Module-keyed engine: mask keys, twin validation, move thinning."""

import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cak import (
    CapacityError,
    ColoredGraph,
    Player,
    VertexError,
    count_nd_positions,
    gen_lower_nd,
    gen_random,
    nd_partition,
    solve_nd,
    solve_subset,
)
from cak.engines import nd as nd_engine
from cak.engines.common import PLAYERS, edges_to, side_reach
from cak.generators import lower_nd_clique_vertices
from cak.graph import induced_mask

from _oracles import build, count_keyed_nd, random_lettered_edges, twin_blowups


def test_matches_subset_on_random_instances():
    rng = random.Random(550)
    for case in range(50):
        n = rng.randrange(10)
        letters = rng.choice(["g", "gbw", "bw"])
        g = build(n, random_lettered_edges(rng, n, rng.choice([0.3, 0.6]), letters))
        for turn in (Player.B, Player.W):
            assert solve_nd(g, turn).winner is solve_subset(g, turn).winner


def test_side_reach_is_each_sides_playable_neighbours():
    """side_reach, and edges_to toward a random target, from which nd's
    and vc's per-side edge lists are built, equal oracles read off
    g.edges with Player.can_play, on random colored graphs and on
    sub-positions of them."""
    rng = random.Random(2911)
    for case in range(60):
        n = rng.randrange(1, 12)
        letters = rng.choice(["g", "gbw", "bw", "b"])
        g = build(n, random_lettered_edges(rng, n, rng.choice([0.3, 0.6]), letters))
        for h in (g, induced_mask(g, rng.getrandbits(n))):
            target = rng.getrandbits(n)
            want = [[0] * n for _ in PLAYERS]
            want_edges = [[[] for _ in range(n)] for _ in PLAYERS]
            for side, player in enumerate(PLAYERS):
                for u, v, c in h.edges:
                    if player.can_play(c):
                        want[side][u] |= 1 << v
                        want[side][v] |= 1 << u
                        for a, b in ((u, v), (v, u)):
                            if target >> b & 1:
                                want_edges[side][a].append((b, 1 << a | 1 << b))
            assert side_reach(h) == tuple(map(tuple, want))
            assert edges_to(side_reach(h), target) == tuple(
                tuple(tuple(em for _, em in sorted(row)) for row in rows) for rows in want_edges
            )


def test_supplied_partitions():
    rng = random.Random(31)
    for _ in range(20):
        g = build(7, random_lettered_edges(rng, 7, 0.5))
        want = solve_subset(g, Player.W).winner
        computed = nd_partition(g)
        assert solve_nd(g, Player.W, partition=computed).winner is want
        singletons = [[v] for v in range(7)]
        assert solve_nd(g, Player.W, partition=singletons).winner is want


def test_invalid_partitions_rejected():
    p3 = build(3, [(0, 1, "g"), (1, 2, "g")])
    with pytest.raises(ValueError):
        solve_nd(p3, Player.B, partition=[[0, 1], [2]])  # 0 and 1 not twins
    with pytest.raises(ValueError):
        solve_nd(p3, Player.B, partition=[[0, 2]])  # vertex 1 missing
    with pytest.raises(ValueError):
        solve_nd(p3, Player.B, partition=[[0, 2], [1], [1]])  # duplicate
    with pytest.raises(ValueError):
        solve_nd(p3, Player.B, partition=[[0, 2], [1], []])  # empty module
    with pytest.raises(ValueError):
        solve_nd(p3, Player.B, partition=[[0, 2], [1, 5]])  # out of range


def test_partition_errors_carry_their_vertex_ids():
    # The ids stay data, so the CLI can print them 1-based; str() is 0-based.
    p3 = build(3, [(0, 1, "g"), (1, 2, "g")])
    cases = [
        ([[0, 2], [1], [1]], "vertex 1 appears twice", (1,)),
        ([[0, 1], [2]], "0 and 1 are not colored twins", (0, 1)),
    ]
    for partition, message, ids in cases:
        with pytest.raises(VertexError) as info:
            solve_nd(p3, Player.B, partition=partition)
        assert str(info.value) == f"invalid partition: {message}"
        assert info.value.ids == ids
    # A dead vertex cannot reach the CLI, whose files hold live vertices only.
    g = ColoredGraph(3, ((0, 1, 1),), alive=0b011)
    with pytest.raises(VertexError) as info:
        solve_nd(g, Player.B, partition=[[0, 1], [2]])
    assert info.value.ids == (2,)
    assert info.value.one_based() == "invalid partition: vertex 3 not alive in the graph"


def test_partition_rejects_ids_that_are_not_ints():
    p3 = build(3, [(0, 1, "g"), (1, 2, "g")])
    for bad in (1.0, "1", None):
        with pytest.raises(VertexError, match="is not an int") as info:
            solve_nd(p3, Player.B, partition=[[0, 2], [bad]])
        assert info.value.ids == (bad,)


def test_k33_key_count():
    k33 = build(6, [(u, v, "g") for u in range(3) for v in range(3, 6)])
    out = solve_nd(k33, Player.B)
    assert out.stats.distinct_keys <= 16  # (3+1)^2
    stats = count_nd_positions(k33, Player.B)
    assert stats.distinct_keys == 4  # (3,3) (2,2) (1,1) (0,0), turns alternate


def test_single_clique_module():
    k4 = build(4, [(u, v, "g") for u in range(4) for v in range(u + 1, 4)])
    assert nd_partition(k4).count == 1
    stats = count_nd_positions(k4, Player.B)
    assert stats.distinct_keys <= 5
    # intra-module moves drop the count by two each turn
    assert solve_nd(k4, Player.B).winner is solve_subset(k4, Player.B).winner


def test_empty_graph():
    out = solve_nd(ColoredGraph(0, ()), Player.B)
    assert out.winner is Player.W
    out = solve_nd(ColoredGraph(3, ()), Player.W)
    assert out.winner is Player.B


def test_key_bound_holds_everywhere():
    # The key leaves the side out: the alive count already fixes it.
    rng = random.Random(660)
    for _ in range(30):
        n = rng.randrange(1, 10)
        g = build(n, random_lettered_edges(rng, n, 0.5))
        modules = nd_partition(g).modules
        bound = math.prod(len(m) + 1 for m in modules)
        for turn in (Player.B, Player.W):
            assert count_nd_positions(g, turn).distinct_keys <= bound


def test_module_moves_reach_every_child_key():
    """One candidate edge per module pair gives the same set of child
    count vectors (children up to isomorphism) as the full playable move
    set, at every reachable position."""
    rng = random.Random(818)
    for case in range(20):
        n = rng.randrange(3, 9)
        g = build(n, random_lettered_edges(rng, n, 0.5))
        modules = nd_partition(g).modules
        index = {v: i for i, m in enumerate(modules) for v in m}

        def key(mask):
            return tuple(sum(1 for v in m if mask >> v & 1) for m in modules)

        seen = {(g.alive, Player.B)}
        frontier = [(g.alive, Player.B)]
        while frontier:
            mask, player = frontier.pop()
            full, thinned = set(), set()
            for u, v, c in g.edges:
                em = 1 << u | 1 << v
                if mask & em != em or not player.can_play(c):
                    continue
                child = (mask & ~em, player.opponent)
                full.add(key(child[0]))
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
                lowest = [
                    min(w for w in modules[index[x]] if mask >> w & 1)
                    for x in (u, v)
                ]
                if sorted((u, v)) == sorted(lowest) or (
                    index[u] == index[v] and {u, v} == set(
                        [w for w in modules[index[u]] if mask >> w & 1][:2]
                    )
                ):
                    thinned.add(key(child[0]))
            assert thinned == full, (case, mask, player)


@st.composite
def restricted_blowups(draw):
    """(graph, finer partition, None or a union of its modules)."""
    g, fine = draw(twin_blowups())
    if not draw(st.booleans()):
        return g, fine, None
    picks = draw(st.lists(st.booleans(), min_size=len(fine), max_size=len(fine)))
    return g, fine, {v for module, pick in zip(fine, picks) if pick for v in module}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(restricted_blowups())
def test_every_module_keeps_its_highest_members(case):
    """The mask is a canonical key because every position the search
    keys has, in each module, its highest members alive. The search keys
    nd on the mask itself, so every distinct mask it reaches misses the
    memo once and is expanded exactly once: spying on candidates sees
    every keyed position."""
    g, fine, restrict = case
    keyed = []
    candidates = nd_engine._ModuleSearch.candidates

    def spy(self, mask, side, key):
        keyed.append((self.module_masks, mask))
        return candidates(self, mask, side, key)

    with patch.object(nd_engine._ModuleSearch, "candidates", spy):
        for turn in Player:
            count_nd_positions(g, turn, partition=fine, restrict_to=restrict)
    assert keyed
    for module_masks, mask in keyed:
        for mm in module_masks:
            members = [v for v in range(mm.bit_length()) if mm >> v & 1]
            survivors = [v for v in members if mask >> v & 1]
            assert survivors == members[len(members) - len(survivors) :], (mm, mask)


def triple(stats):
    return (stats.node_expansions, stats.memo_hits, stats.distinct_keys)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(restricted_blowups())
def test_mask_key_counts_like_the_count_key(case):
    """Keyed on per-module counts instead, the same search gives the same
    answer and the same counters, in solve and in count mode."""
    g, fine, restrict = case
    for turn in Player:
        want = count_keyed_nd(g, turn, fine, restrict, short_circuit=False).stats
        assert triple(count_nd_positions(g, turn, fine, restrict)) == triple(want)
        out = solve_nd(g, turn, partition=fine)
        want = count_keyed_nd(g, turn, fine)
        assert (out.winner, out.winning_move, triple(out.stats)) == (
            want.winner,
            want.winning_move,
            triple(want.stats),
        )


def test_clique_restricted_exploration():
    g = gen_lower_nd(3, 2)
    clique = lower_nd_clique_vertices(3, 2)
    stats = count_nd_positions(g, Player.B, restrict_to=clique)
    assert stats.distinct_keys >= 13  # (s+1)^k / 2 for s=2, k=3
    unrestricted = count_nd_positions(g, Player.B)
    assert unrestricted.distinct_keys >= stats.distinct_keys


def test_restriction_must_align_with_modules():
    k33 = build(6, [(u, v, "g") for u in range(3) for v in range(3, 6)])
    with pytest.raises(ValueError):
        count_nd_positions(k33, Player.B, restrict_to={0})
    assert count_nd_positions(k33, Player.B, restrict_to={0, 1, 2}).distinct_keys >= 1


def test_too_deep_search_is_a_capacity_error(shallow_stack):
    # K_{m,m} is two modules; every line of play is m moves deep
    m = 120
    g = build(2 * m, [(u, m + v, "g") for u in range(m) for v in range(m)])
    shallow_stack(60)
    with pytest.raises(CapacityError, match="recursion limit"):
        solve_nd(g, Player.B)


def test_key_space_over_32_bits_is_refused():
    """nd refuses a partition whose prod(|M_i| + 1) is over 2^32, the
    subset engine's default limit, before it searches."""
    g = gen_random(40, 0.15, seed=3)
    assert nd_partition(g).count == 40
    for run in (solve_nd, count_nd_positions):
        with pytest.raises(CapacityError, match=r"^nd engine .* 2\^40\.0 .*the limit is 2\^32$"):
            run(g, Player.B)
    # Edgeless graphs: every vertex is a twin, so any partition is valid.
    with pytest.raises(CapacityError, match=r"2\^33\.0"):
        solve_nd(ColoredGraph(33, ()), Player.B, partition=[[v] for v in range(33)])
    at_limit = solve_nd(ColoredGraph(32, ()), Player.B, partition=[[v] for v in range(32)])
    assert at_limit.winner is Player.W
    # subset makes nd's check on one-vertex modules; a raised max_n lifts
    # its bound, and nd's does not apply.
    assert solve_subset(ColoredGraph(40, ()), Player.B, max_n=40).winner is Player.W
