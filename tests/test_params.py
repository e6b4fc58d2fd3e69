"""Vertex covers, twin partitions, cover classes, representative edges."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cak import (
    ColoredGraph,
    Player,
    VertexCover,
    VertexError,
    equivalence_classes,
    gen_grid,
    gen_lower_vc,
    gen_random,
    min_vertex_cover,
    nd_partition,
    solve_vc,
    vc_canonical_key,
)
from cak.graph import induced_mask
from cak.params import as_cover, cover_at_most

from _oracles import (
    build,
    exhaustive_min_cover_size,
    random_lettered_edges,
    representative_edges,
    twin_classes_oracle,
)


def _is_cover(g, vertices):
    return all(u in vertices or v in vertices for u, v, _ in g.edges)


def test_min_cover_small_cases():
    assert min_vertex_cover(build(2, [(0, 1, "g")])).size == 1
    c4 = build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g"), (0, 3, "g")])
    assert min_vertex_cover(c4).size == 2
    star = build(51, [(0, i, "g") for i in range(1, 51)])
    assert min_vertex_cover(star).vertices == frozenset({0})
    p4 = build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g")])
    assert min_vertex_cover(p4).size == 2
    assert min_vertex_cover(ColoredGraph(5, ())).size == 0


def test_min_cover_lower_vc_4():
    cover = min_vertex_cover(gen_lower_vc(4))
    assert cover.size == 4
    assert cover.vertices == frozenset({0, 1, 2, 3})


def test_min_cover_matches_exhaustive():
    rng = random.Random(101)
    for case in range(60):
        n = rng.randrange(11)
        edges = random_lettered_edges(rng, n, rng.choice([0.2, 0.4, 0.7]))
        g = build(n, edges)
        cover = min_vertex_cover(g)
        assert _is_cover(g, cover.vertices)
        assert cover.size == exhaustive_min_cover_size(n, [e[:2] for e in edges])


def test_min_cover_deterministic():
    g = gen_random(10, 0.5, seed=5)
    assert min_vertex_cover(g).vertices == min_vertex_cover(g).vertices


C4 = build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g"), (0, 3, "g")])

# Covers min_vertex_cover returned before it moved onto neighbour masks:
# each graph has several minimum covers, so these pin the tie-breaks.
PINNED_COVERS = [
    (C4, [0, 2]),
    (gen_grid(3, 3), [1, 3, 5, 7]),
    (gen_grid(4, 4), [0, 2, 5, 7, 8, 10, 13, 15]),
    (gen_grid(5, 5, "domineering"), [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23]),
    # the greedy incumbent is already minimum, so it is what comes back
    (gen_random(12, 0.5, seed=57), [0, 1, 2, 3, 4, 5, 6, 7]),
    (gen_random(12, 0.5, seed=58), [0, 1, 2, 3, 4, 5, 7, 8]),
    *(
        (gen_random(16 + seed % 5 * 3, 0.25, seed=seed), cover)
        for seed, cover in enumerate(
            [
                [0, 2, 3, 6, 7, 10, 11, 13, 14, 15],
                [3, 5, 6, 8, 9, 10, 11, 12, 15, 16, 17],
                [4, 6, 7, 9, 10, 13, 15, 16, 17, 18, 19, 21],
                [0, 1, 3, 5, 6, 7, 10, 11, 12, 13, 14, 17, 18, 19, 22, 23],
                [0, 3, 4, 5, 6, 7, 8, 9, 10, 14, 15, 17, 18, 20, 22, 23, 24, 26, 27],
                [1, 3, 4, 6, 10, 11, 13, 15],
                [0, 2, 5, 6, 9, 10, 13, 14, 15, 16, 17],
                [0, 1, 4, 6, 7, 8, 14, 16, 17, 18, 19, 20, 21],
                [0, 1, 4, 5, 6, 7, 9, 10, 13, 15, 16, 17, 20, 22, 23, 24],
                [0, 1, 3, 4, 6, 7, 8, 12, 15, 16, 17, 18, 19, 20, 21, 22, 23, 27],
                [0, 6, 7, 10, 11, 12, 13, 14, 15],
                [0, 1, 7, 8, 12, 14, 15, 17, 18],
                [0, 2, 5, 6, 9, 10, 12, 13, 14, 16, 17, 18, 19],
                [2, 3, 5, 6, 7, 8, 9, 11, 12, 14, 15, 17, 20, 22, 24],
                [1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 15, 16, 19, 22, 23, 25, 26],
                [1, 4, 5, 6, 7, 8, 10, 11, 14],
                [0, 2, 10, 11, 12, 13, 14, 16, 17, 18],
                [0, 1, 2, 4, 7, 8, 12, 13, 14, 16, 17, 18, 19, 21],
                [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 15, 17, 21, 22, 23],
                [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 15, 16, 18, 20, 23, 24, 26, 27],
            ]
        )
    ),
]


@pytest.mark.parametrize("g, cover", PINNED_COVERS)
def test_min_cover_pins_the_chosen_cover(g, cover):
    assert sorted(min_vertex_cover(g).vertices) == cover


@st.composite
def graphs_with_alive_sets(draw):
    """(n, lettered edges, alive set). "-" leaves a pair unjoined; the
    one-letter and sparse palettes give twins often. Three vertices in
    four are alive."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    alphabet = draw(st.sampled_from(["-g", "--gbw", "-gb", "gw", "----g", "g"]))
    letters = draw(st.lists(st.sampled_from(alphabet), min_size=len(pairs), max_size=len(pairs)))
    lettered = [(u, v, c) for (u, v), c in zip(pairs, letters) if c != "-"]
    alive = draw(st.lists(st.sampled_from([1, 1, 1, 0]), min_size=n, max_size=n))
    return n, lettered, {v for v in range(n) if alive[v]}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(graphs_with_alive_sets())
def test_nd_partition_matches_pairwise_oracle(case):
    n, lettered, alive = case
    inside = [(u, v, c) for u, v, c in lettered if u in alive and v in alive]
    g = build(n, inside, alive=sum(1 << v for v in alive))
    assert nd_partition(g).modules == twin_classes_oracle(lettered, alive)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(graphs_with_alive_sets())
def test_cover_at_most_matches_the_minimum_cover(case):
    n, lettered, alive = case
    inside = [(u, v, c) for u, v, c in lettered if u in alive and v in alive]
    g = build(n, inside, alive=sum(1 << v for v in alive))
    tau = min_vertex_cover(g).size
    assert [cover_at_most(g, k) for k in range(-1, n + 1)] == [k >= tau for k in range(-1, n + 1)]


def test_nd_partition_k3():
    k3 = build(3, [(0, 1, "g"), (0, 2, "g"), (1, 2, "g")])
    part = nd_partition(k3)
    assert part.modules == ((0, 1, 2),)


def test_nd_partition_p3():
    p3 = build(3, [(0, 1, "g"), (1, 2, "g")])
    assert nd_partition(p3).modules == ((0, 2), (1,))


def test_nd_partition_respects_colors():
    # mixed-color triangle: no two vertices agree toward the third
    k3 = build(3, [(0, 1, "g"), (0, 2, "b"), (1, 2, "w")])
    assert nd_partition(k3).count == 3


def test_nd_partition_star_by_leaf_color():
    star = build(5, [(0, 1, "g"), (0, 2, "g"), (0, 3, "b"), (0, 4, "b")])
    assert nd_partition(star).modules == ((0,), (1, 2), (3, 4))


def test_nd_partition_isolated_and_empty():
    assert nd_partition(ColoredGraph(0, ())).count == 0
    assert nd_partition(ColoredGraph(3, ())).modules == ((0, 1, 2),)
    g = build(4, [(0, 1, "g")], alive=0b0111)  # vertex 3 dead, 2 isolated
    assert nd_partition(g).modules == ((0, 1), (2,))


def test_nd_partition_modules_are_pairwise_twins():
    def twins(g, u, v):
        return all(
            g.color_of(u, w) is g.color_of(v, w)
            for w in range(g.n)
            if w not in (u, v)
        )

    rng = random.Random(55)
    for _ in range(30):
        g = build(8, random_lettered_edges(rng, 8, 0.5))
        for module in nd_partition(g).modules:
            for i, u in enumerate(module):
                for v in module[i + 1 :]:
                    assert twins(g, u, v)


def test_nd_bound_by_cover_for_gray_graphs():
    # module count is at most 2^tau + tau on gray graphs
    rng = random.Random(77)
    for _ in range(30):
        g = build(9, random_lettered_edges(rng, 9, rng.random(), "g"))
        tau = min_vertex_cover(g).size
        assert nd_partition(g).count <= 2**tau + tau


def test_equivalence_classes_single_black_edge():
    g = build(2, [(0, 1, "b")])
    classes = equivalence_classes(g, cover={0})
    # keyed by (gray, black, white) neighbor masks within the cover
    assert classes == {(0, 0b1, 0): [1]}


def test_equivalence_classes_star():
    star = build(4, [(0, 1, "g"), (0, 2, "g"), (0, 3, "g")])
    classes = equivalence_classes(star, cover={0})
    assert classes == {(0b1, 0, 0): [1, 2, 3]}


def test_equivalence_classes_lower_vc_2():
    g = gen_lower_vc(2)
    classes = equivalence_classes(g, cover={0, 1})
    assert len(classes) == 4  # one class per base-4 pattern
    assert all(len(members) == 1 for members in classes.values())
    # every class is black toward vertex 1; toward vertex 0 it is
    # absent, gray, black or white
    assert set(classes) == {(0, 0b10, 0), (0b01, 0b10, 0), (0, 0b11, 0), (0, 0b10, 0b01)}


def test_equivalence_classes_respect_alive_mask():
    star = build(4, [(0, 1, "g"), (0, 2, "g"), (0, 3, "g")])
    classes = equivalence_classes(induced_mask(star, 0b0101), cover={0})
    assert classes == {(0b1, 0, 0): [2]}
    with pytest.raises(ValueError):
        induced_mask(star, 0b11111)


def test_alive_masks_that_are_not_ints_are_value_errors():
    star = build(4, [(0, 1, "g"), (0, 2, "g"), (0, 3, "g")])
    with pytest.raises(ValueError):
        vc_canonical_key(star, "x", {0}, Player.B)
    with pytest.raises(ValueError):
        induced_mask(star, 1.5)


def test_equivalence_classes_need_a_cover():
    p3 = build(3, [(0, 1, "g"), (1, 2, "g")])
    with pytest.raises(ValueError):
        equivalence_classes(p3, cover={0})


def test_equivalence_classes_check_a_given_cover_like_the_engine():
    p3 = build(3, [(0, 1, "g"), (1, 2, "g")])
    for cover in ({1, 7}, {1, -1}):
        with pytest.raises(VertexError, match="out of range"):
            equivalence_classes(p3, cover=cover)
        with pytest.raises(VertexError, match="out of range"):
            vc_canonical_key(p3, None, cover, Player.B)
    # only the edges between alive vertices need covering
    assert equivalence_classes(induced_mask(p3, 0b011), cover={0}) == {(0b1, 0, 0): [1]}


def test_representative_edges_examples():
    star = build(4, [(0, 1, "g"), (0, 2, "g"), (0, 3, "g")])
    assert representative_edges(equivalence_classes(star, cover={0})) == {(0, 1)}
    black = build(2, [(0, 1, "b")])
    assert representative_edges(equivalence_classes(black, cover={0})) == {(0, 1)}
    c4 = build(4, [(0, 1, "g"), (1, 2, "g"), (2, 3, "g"), (0, 3, "g")])
    # one class {1, 3} with representative 1, adjacent to both cover ends
    classes = equivalence_classes(c4, cover={0, 2})
    assert classes == {(0b101, 0, 0): [1, 3]}
    assert representative_edges(classes) == {(0, 1), (1, 2)}


def test_as_cover_normalizes_and_validates():
    g = build(3, [(0, 1, "g"), (1, 2, "g")])
    assert as_cover(g, [1]) == frozenset({1})
    assert as_cover(g, VertexCover(frozenset({0, 1}))) == frozenset({0, 1})
    with pytest.raises(ValueError):
        as_cover(g, [0])
    with pytest.raises(ValueError):
        as_cover(g, [7])


def test_as_cover_rejects_ids_that_are_not_ints():
    p3 = build(3, [(0, 1, "g"), (1, 2, "g")])
    for bad in (1.0, "1", None):
        with pytest.raises(VertexError, match="is not an int") as info:
            as_cover(p3, [bad])
        assert info.value.ids == (bad,)
        with pytest.raises(VertexError, match="is not an int"):
            solve_vc(p3, Player.B, cover=[bad])
