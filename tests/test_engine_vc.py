"""Cover-keyed engine: soundness, key merging, move restriction."""

import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cak import (
    Player,
    count_vc_positions,
    equivalence_classes,
    gen_lower_vc,
    min_vertex_cover,
    solve_naive,
    solve_subset,
    solve_vc,
    vc_canonical_key,
)
from cak.engines.common import PLAYERS
from cak.engines.vc import _CoverSearch
from cak.graph import induced_mask

from _oracles import build, permute, random_lettered_edges, representative_edges


def reachable_positions(g, turn):
    """All (mask, player) pairs reachable by alternating play."""
    start = (g.alive, turn)
    seen = {start}
    frontier = [start]
    while frontier:
        mask, player = frontier.pop()
        for u, v, c in g.edges:
            em = 1 << u | 1 << v
            if mask & em == em and player.can_play(c):
                child = (mask & ~em, player.opponent)
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return seen


def vc_layout(g, cover, mask):
    """Independent reconstruction of the key layout: surviving non-
    isolated cover vertices and non-cover classes by color vector."""
    nbr = g.neighbor_masks()
    alive_cover = tuple(
        s for s in sorted(cover) if mask >> s & 1 and nbr[s] & mask
    )
    classes = {}
    for v in range(g.n):
        if v in cover or not mask >> v & 1:
            continue
        vec = tuple(
            0 if g.color_of(v, u) is None else int(g.color_of(v, u))
            for u in alive_cover
        )
        if any(vec):
            classes.setdefault(vec, []).append(v)
    return alive_cover, classes


def test_matches_subset_on_random_instances():
    rng = random.Random(404)
    for case in range(50):
        n = rng.randrange(10)
        letters = rng.choice(["g", "gbw", "bw"])
        g = build(n, random_lettered_edges(rng, n, rng.choice([0.3, 0.6]), letters))
        for turn in (Player.B, Player.W):
            assert solve_vc(g, turn).winner is solve_subset(g, turn).winner


def test_accepts_non_minimal_covers():
    rng = random.Random(77)
    for _ in range(20):
        g = build(7, random_lettered_edges(rng, 7, 0.5))
        want = solve_subset(g, Player.B).winner
        assert solve_vc(g, Player.B, cover=range(7)).winner is want
        bigger = set(min_vertex_cover(g).vertices)
        for v in range(7):
            if v not in bigger:
                bigger.add(v)
                break
        assert solve_vc(g, Player.B, cover=bigger).winner is want


def test_rejects_non_covers():
    p3 = build(3, [(0, 1, "g"), (1, 2, "g")])
    with pytest.raises(ValueError):
        solve_vc(p3, Player.B, cover={0})
    with pytest.raises(ValueError):
        solve_vc(p3, Player.B, cover={99})


def test_star_k1_50_collapses():
    star = build(51, [(0, i, "g") for i in range(1, 51)])
    for turn in (Player.B, Player.W):
        out = solve_vc(star, turn)
        assert out.winner is turn  # one move kills the center, game over
        assert out.stats.distinct_keys <= 8


def test_lower_vc_2_winner_and_expansion_floor():
    g = gen_lower_vc(2)
    for turn in (Player.B, Player.W):
        assert solve_vc(g, turn).winner is solve_naive(g, turn).winner
    stats = count_vc_positions(g, Player.B)
    assert stats.node_expansions >= 4  # 2^(k*k/2) for k=2


def test_single_edge_key_count():
    stats = count_vc_positions(build(2, [(0, 1, "g")]), Player.B)
    assert stats.distinct_keys <= 4


def test_fresh_star_key_shape():
    star = build(4, [(0, 1, "g"), (0, 2, "g"), (0, 3, "g")])
    key = vc_canonical_key(star, None, {0}, Player.B)
    # (alive cover mask, sorted (class masks, class size) pairs, side index)
    assert key == (0b1, (((0b1, 0, 0), 3),), 0)


def test_key_invariant_under_noncover_relabeling():
    g = build(5, [(0, 1, "g"), (0, 2, "g"), (0, 3, "b"), (0, 4, "w")])
    # permute only the non-cover vertices; the key must not move
    perm = [0, 3, 4, 2, 1]
    h = permute(g, perm)
    key_g = vc_canonical_key(g, None, {0}, Player.W)
    key_h = vc_canonical_key(h, None, {0}, Player.W)
    assert key_g == key_h


def test_equal_keys_mean_isomorphic_positions():
    """Positions sharing a key are related by a class-preserving
    bijection on their non-isolated vertices; build it and check it."""
    rng = random.Random(909)
    merged_groups = 0
    for case in range(25):
        n = rng.randrange(4, 10)
        g = build(n, random_lettered_edges(rng, n, 0.5))
        cover = min_vertex_cover(g).vertices
        groups = {}
        for mask, player in reachable_positions(g, Player.B):
            key = vc_canonical_key(g, mask, cover, player)
            groups.setdefault(key, []).append(mask)
        for key, masks in groups.items():
            if len(masks) < 2:
                continue
            merged_groups += 1
            base = masks[0]
            ac0, cl0 = vc_layout(g, cover, base)
            for other in masks[1:3]:
                ac1, cl1 = vc_layout(g, cover, other)
                assert ac0 == ac1
                assert sorted((v, len(m)) for v, m in cl0.items()) == sorted(
                    (v, len(m)) for v, m in cl1.items()
                )
                phi = {s: s for s in ac0}
                for vec, members in cl0.items():
                    phi.update(zip(members, cl1[vec]))
                dom = sorted(phi)
                for i, a in enumerate(dom):
                    for b in dom[i + 1 :]:
                        assert g.color_of(a, b) is g.color_of(phi[a], phi[b])
    assert merged_groups > 0  # the property was actually exercised


def test_restricted_moves_reach_every_child_key():
    """Cover-internal plus representative edges produce exactly the same
    set of child keys as the full playable move set."""
    rng = random.Random(313)
    for case in range(20):
        n = rng.randrange(3, 10)
        g = build(n, random_lettered_edges(rng, n, 0.5))
        cover = min_vertex_cover(g).vertices
        for mask, player in reachable_positions(g, Player.B):
            full, restricted = set(), set()
            classes = equivalence_classes(induced_mask(g, mask), cover)
            # the mask grouping is the vector grouping of the reference
            _, layout = vc_layout(g, cover, mask)
            assert sorted(m for k, m in classes.items() if any(k)) == sorted(layout.values())
            rep = representative_edges(classes)
            for u, v, c in g.edges:
                em = 1 << u | 1 << v
                if mask & em != em or not player.can_play(c):
                    continue
                child = vc_canonical_key(g, mask & ~em, cover, player.opponent)
                full.add(child)
                if (u in cover and v in cover) or (u, v) in rep:
                    restricted.add(child)
            assert restricted == full


def test_one_search_object_keys_every_position_like_a_fresh_one():
    """The per-cover class tables a search keeps must not leak between
    positions: one _CoverSearch reused over every reachable position
    gives the packed key and the candidates of a fresh object, and that
    key decodes (vc_canonical_key) to an oracle built from
    equivalence_classes. Its
    live candidates, as edge masks, are the oracle's: the alive, playable
    cover-internal edges, plus each class's lowest member joined by a
    playable edge to each alive cover vertex. They also come in the
    order inner positions try them: the cover-internal edges in
    lexicographic order, then the classes sorted by their (gray, black,
    white) masks toward the alive cover, as the class table lists them,
    each joined to its cover vertices in increasing id."""
    rng = random.Random(1313)
    rep_below_cover = False
    for case in range(30):
        n = rng.randrange(2, 11)
        g = build(n, random_lettered_edges(rng, n, rng.choice([0.3, 0.5])))
        minimum = set(min_vertex_cover(g).vertices)
        larger = minimum | set(rng.sample(range(n), rng.randrange(1, n)))
        for cover in (minimum, larger):
            cs = _CoverSearch(g, cover)
            positions = sorted(
                reachable_positions(g, Player.B) | reachable_positions(g, Player.W),
                key=lambda p: (-p[0].bit_count(), p[0], p[1] is Player.W),
            )
            for mask, player in positions:
                side = 0 if player is Player.B else 1
                key = cs.key(mask, side)
                fresh = _CoverSearch(g, cover)
                assert key == fresh.key(mask, side)
                live_cover = 0
                for u, v, _ in g.edges:
                    if mask >> u & 1 and mask >> v & 1:
                        live_cover |= (u in cover) << u | (v in cover) << v
                classes = equivalence_classes(induced_mask(g, mask), cover)
                pairs = sorted((k, len(m)) for k, m in classes.items() if any(k))
                assert vc_canonical_key(g, mask, cover, player) == (live_cover, tuple(pairs), side)
                want = fresh.candidates(mask, side, fresh.key(mask, side))
                got = cs.candidates(mask, side, key)
                assert got == want
                oracle = [
                    1 << u | 1 << v
                    for u, v, c in g.edges
                    if u in cover and v in cover and mask >> u & mask >> v & 1 and player.can_play(c)
                ]
                for _, members in sorted(classes.items()):
                    rep = members[0]
                    for u in sorted(cover):
                        c = g.color_of(rep, u)
                        if mask >> u & 1 and c is not None and player.can_play(c):
                            oracle.append(1 << u | 1 << rep)
                            rep_below_cover |= rep < u
                live = [em for em in got if mask & em == em]
                assert sorted(live) == sorted(oracle)
                assert live == oracle
    assert rep_below_cover  # a class move whose low bit is the representative


@st.composite
def class_vectors(draw, max_k, unique=False):
    """(k, edges, vectors): cover vertices 0..k-1 with random edges among
    them, and up to three color vectors toward the cover ('-' for no
    edge), each the vector of one class of non-cover vertices."""
    k = draw(st.integers(1, max_k))
    color = st.sampled_from("gbw")
    edges = [(u, v, draw(color)) for u, v in combinations(range(k), 2) if draw(st.booleans())]
    vector = st.tuples(*[st.sampled_from("-gbw")] * k).filter(lambda vec: set(vec) != {"-"})
    return k, edges, draw(st.lists(vector, min_size=1, max_size=3, unique=unique))


def with_classes(k, edges, sized_vectors):
    """The graph of edges on cover vertices 0..k-1 plus, per (vector,
    size), size non-cover vertices joined to each cover vertex u by an
    edge of color vector[u]: false twins, whose cover degree is the
    number of edges in the vector."""
    edges = list(edges)
    n = k
    for vec, size in sized_vectors:
        edges += [(u, x, c) for x in range(n, n + size) for u, c in enumerate(vec) if c != "-"]
        n += size
    return build(n, edges)


def cover_degree(vec):
    return sum(c != "-" for c in vec)


@st.composite
def boundary_classes(draw):
    """(graph, k): non-cover classes side by side, each a distinct color
    vector toward the cover 0..k-1, with sizes at the packed key's field
    boundaries (1, 2^j - 1 and 2^j)."""
    k, edges, vectors = draw(class_vectors(3, unique=True))
    size = st.sampled_from([1, 2, 3, 4, 7, 8])
    return with_classes(k, edges, [(vec, draw(size)) for vec in vectors]), k


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(boundary_classes(), st.randoms(use_true_random=False))
def test_packed_key_merges_what_the_tuple_key_merged(case, rng):
    """Over every reachable position, the packed keys of one search
    object split the positions into the same classes as the readable
    (cover, sorted (class masks, size) pairs, side) key built from
    equivalence_classes, which vc_canonical_key returns: with the
    minimum cover, the built one whose classes sit at field boundaries,
    and a larger one."""
    g, k = case
    built = set(range(k))
    larger = built | {rng.randrange(k, g.n)}
    nbr = g.neighbor_masks()
    positions = reachable_positions(g, Player.B) | reachable_positions(g, Player.W)
    for cover in (set(min_vertex_cover(g).vertices), built, larger):
        cs = _CoverSearch(g, cover)
        pairs = set()
        for mask, player in positions:
            side = PLAYERS.index(player)
            live_cover = sum(1 << s for s in cover if mask >> s & 1 and nbr[s] & mask)
            classes = equivalence_classes(induced_mask(g, mask), cover)
            sizes = sorted((c, len(m)) for c, m in classes.items() if any(c))
            want = (live_cover, tuple(sizes), side)
            assert vc_canonical_key(g, mask, cover, player) == want
            pairs.add((cs.key(mask, side), want))
        assert len({key for key, _ in pairs}) == len({want for _, want in pairs}) == len(pairs)


def test_count_mode_disables_short_circuit():
    g = build(6, random_lettered_edges(random.Random(8), 6, 0.6))
    solved = solve_vc(g, Player.B)
    counted = count_vc_positions(g, Player.B)
    assert counted.node_expansions >= solved.stats.node_expansions
    assert counted.distinct_keys <= counted.node_expansions + 1


@st.composite
def classes_by_degree(draw, fewest, most):
    """(graph, k): classes of false twins toward the cover 0..k-1, each
    with between fewest and most members more than its cover degree
    (and at least one member)."""
    k, edges, vectors = draw(class_vectors(4))
    extra = st.integers(fewest, most)
    sized = [(vec, max(1, cover_degree(vec) + draw(extra))) for vec in vectors]
    return with_classes(k, edges, sized), k


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(classes_by_degree(1, 2))
def test_capped_solve_agrees_with_subset_past_the_cover_degree(case):
    """Solve mode keys a class only up to its number of alive cover
    neighbours; on classes larger than that, with the built cover and a
    minimum one, it finds subset's winner and winning move for both
    movers."""
    g, k = case
    for turn in Player:
        want = solve_subset(g, turn)
        for cover in (None, range(k)):
            out = solve_vc(g, turn, cover)
            assert (out.winner, out.winning_move) == (want.winner, want.winning_move)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(class_vectors(3), st.integers(1, 3))
def test_twins_at_the_cover_degree_leave_the_capped_key_alone(case, twins):
    """The first class has exactly as many members as its cover degree.
    False twins added to it leave solve mode's capped root key and the
    whole solve (winner, move and triple) as they were, for both movers,
    while the uncapped key that count mode and vc_canonical_key use
    tells the two roots apart. Count mode's triple does not move either:
    every class move also kills one of the class's cover neighbours, so
    at most d members ever leave, and the twins shift the class's count
    by the same amount in every position of an otherwise equal tree."""
    k, edges, vectors = case
    at_degree = [(vec, cover_degree(vec)) for vec in vectors]
    g = with_classes(k, edges, at_degree)
    h = with_classes(k, edges, at_degree + [(vectors[0], twins)])
    cover = range(k)

    def triple(stats):
        return (stats.node_expansions, stats.memo_hits, stats.distinct_keys)

    for turn in Player:
        side = PLAYERS.index(turn)
        capped = [_CoverSearch(x, cover, True).key(x.alive, side) for x in (g, h)]
        uncapped = [vc_canonical_key(x, None, cover, turn) for x in (g, h)]
        assert capped[0] == capped[1] and uncapped[0] != uncapped[1]
        solved, twinned = solve_vc(g, turn, cover), solve_vc(h, turn, cover)
        assert (twinned.winner, twinned.winning_move, triple(twinned.stats)) == (
            solved.winner,
            solved.winning_move,
            triple(solved.stats),
        )
        counts = [triple(count_vc_positions(x, turn, cover)) for x in (g, h)]
        assert counts[0] == counts[1]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(classes_by_degree(-1, 2))
def test_equal_capped_keys_mean_equal_value(case):
    """Over every reachable position, positions sharing a solve-mode
    (capped) key have the same winner, by a plain recursion over alive
    masks, with the built cover and a minimum one."""
    g, k = case
    plays = {p: [1 << u | 1 << v for u, v, c in g.edges if p.can_play(c)] for p in Player}

    @cache
    def wins(mask, player):
        return any(
            mask & em == em and not wins(mask ^ em, player.opponent) for em in plays[player]
        )

    positions = reachable_positions(g, Player.B) | reachable_positions(g, Player.W)
    for cover in (None, range(k)):
        cs = _CoverSearch(g, cover, True)
        values = {}
        for mask, player in positions:
            key = cs.key(mask, PLAYERS.index(player))
            assert values.setdefault(key, wins(mask, player)) is wins(mask, player)
