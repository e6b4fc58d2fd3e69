"""Instance generators: grids, caterpillars, hard families, random."""

import pytest

from cak import (
    Color,
    gen_caterpillar_kayles,
    gen_grid,
    gen_lower_nd,
    gen_lower_vc,
    gen_random,
    nd_partition,
)
from cak.generators import VERTEX_BUDGET_ENV, SplitMix64, lower_nd_clique_vertices
from cak.graph import DEFAULT_VERTEX_BUDGET


def test_splitmix_is_deterministic():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert all(0 <= SplitMix64(9).below(7) < 7 for _ in range(20))


def test_grid_cram_2x2_is_c4():
    g = gen_grid(2, 2, "cram")
    assert g.n == 4
    assert g.m == 4
    assert g.colors_present() == {Color.GRAY}


def test_grid_domineering_2x3():
    g = gen_grid(2, 3, "domineering")
    assert g.n == 6
    vertical = [e for e in g.edges if e[2] is Color.BLACK]
    horizontal = [e for e in g.edges if e[2] is Color.WHITE]
    assert len(vertical) == 3
    assert len(horizontal) == 4
    assert g.m == 7
    # vertical edges connect cells cols apart
    assert all(v - u == 3 for u, v, _ in vertical)
    assert all(v - u == 1 for u, v, _ in horizontal)


def test_grid_1x5_is_path():
    g = gen_grid(1, 5, "cram")
    assert g.n == 5
    assert g.edges == tuple((i, i + 1, Color.GRAY) for i in range(4))


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        gen_grid(0, 3)
    with pytest.raises(ValueError):
        gen_grid(2, 2, "chess")


def test_caterpillar_structure():
    g = gen_caterpillar_kayles(1)
    assert g.n == 2
    assert g.edges == ((0, 1, Color.GRAY),)
    g = gen_caterpillar_kayles(3)
    assert g.n == 6
    assert g.m == 5
    spine = {(0, 1), (1, 2)}
    legs = {(0, 3), (1, 4), (2, 5)}
    assert {(u, v) for u, v, _ in g.edges} == spine | legs
    assert g.colors_present() == {Color.GRAY}
    with pytest.raises(ValueError):
        gen_caterpillar_kayles(0)


def test_lower_vc_k2_layout():
    g = gen_lower_vc(2)
    assert g.n == 6  # 2 + 4^1 * 1
    # the single v (id 1) attaches to all four x's in black
    v_edges = [e for e in g.edges if 1 in e[:2]]
    assert len(v_edges) == 4
    assert all(c is Color.BLACK for _, _, c in v_edges)
    # x_{1,p} has one u-edge colored by digit p, absent for p=0
    digit_color = {1: Color.GRAY, 2: Color.BLACK, 3: Color.WHITE}
    for p in range(4):
        x = 2 + p
        u_edges = [e for e in g.edges if e[:2] == (0, x)]
        if p == 0:
            assert u_edges == []
        else:
            assert u_edges == [(0, x, digit_color[p])]


def test_lower_vc_k4_shape():
    g = gen_lower_vc(4)
    assert g.n == 36  # 4 + 16 * 2
    cover = {0, 1, 2, 3}
    assert all(u in cover or v in cover for u, v, _ in g.edges)
    # degree of x_{i,p} is one v-edge plus one edge per nonzero digit of p
    patterns = 16
    for i in (1, 2):
        for p in range(patterns):
            x = 4 + (i - 1) * patterns + p
            digits = [(p >> (2 * j)) & 3 for j in range(2)]
            degree = sum(1 for e in g.edges if x in e[:2])
            assert degree == 1 + sum(1 for d in digits if d)
    # one black slot, one white slot when k=4
    side = {e[2] for e in g.edges if 2 in e[:2]}
    assert side == {Color.BLACK}
    side = {e[2] for e in g.edges if 3 in e[:2]}
    assert side == {Color.WHITE}


def test_lower_vc_rejects_bad_k():
    for k in (0, 1, 3, 5, 6):
        with pytest.raises(ValueError):
            gen_lower_vc(k)


def test_lower_vc_budget(monkeypatch):
    monkeypatch.setenv(VERTEX_BUDGET_ENV, "100")
    with pytest.raises(ValueError) as err:
        gen_lower_vc(8)  # needs 8 + 256*4 = 1032 vertices
    assert "budget" in str(err.value)
    monkeypatch.setenv(VERTEX_BUDGET_ENV, "10")
    gen_lower_vc(2)  # n=6 still fits
    with pytest.raises(ValueError):
        gen_lower_vc(4)
    monkeypatch.setenv(VERTEX_BUDGET_ENV, "not a number")
    with pytest.raises(ValueError):
        gen_lower_vc(2)
    monkeypatch.delenv(VERTEX_BUDGET_ENV)
    assert gen_lower_vc(4).n == 36
    assert DEFAULT_VERTEX_BUDGET >= 36


def test_lower_nd_3_2_layout():
    g = gen_lower_nd(3, 2)
    assert g.n == 9  # 6 + 2*3/2
    assert g.colors_present() == {Color.GRAY}
    clique = lower_nd_clique_vertices(3, 2)
    assert clique == frozenset(range(6))
    for u in clique:
        for v in clique:
            if u < v:
                assert g.color_of(u, v) is Color.GRAY
    # x_i (ids 6, 7) adjacent to clique C_j iff bit i-1 of j is set
    for i, x in ((1, 6), (2, 7)):
        expected = set()
        for j in (1, 2, 3):
            if j >> (i - 1) & 1:
                expected.update(range((j - 1) * 2, j * 2))
        actual = {u for u, v, _ in g.edges if v == x and u in clique}
        assert actual == expected
    # pendant counts 0 and 1: only x_2 carries the last vertex
    assert g.color_of(7, 8) is Color.GRAY
    assert all(8 not in e[:2] or 7 in e[:2] for e in g.edges)


def test_lower_nd_module_count():
    # 3 cliques + x_1 + x_2 + x_2's pendant: the coarsest twin partition
    # has 6 modules (x_1 has no pendants, so no seventh class exists)
    assert nd_partition(gen_lower_nd(3, 2)).count == 6


def test_lower_nd_smallest_case():
    g = gen_lower_nd(1, 3)
    assert g.n == 4
    assert {frozenset(e[:2]) for e in g.edges} == {
        frozenset(p) for p in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    }


def test_lower_nd_rejects_bad_params(monkeypatch):
    for k in (0, 2, 4, 5):
        with pytest.raises(ValueError):
            gen_lower_nd(k, 2)
    with pytest.raises(ValueError):
        gen_lower_nd(3, 0)
    monkeypatch.setenv(VERTEX_BUDGET_ENV, "500")
    with pytest.raises(ValueError):
        gen_lower_nd(7, 2000)


def test_random_extremes():
    assert gen_random(5, 0.0).m == 0
    k4 = gen_random(4, 1.0, (1, 0, 0))
    assert k4.m == 6
    assert k4.colors_present() == {Color.GRAY}
    allwhite = gen_random(4, 1.0, (0, 0, 1), seed=3)
    assert {c for _, _, c in allwhite.edges} == {Color.WHITE}


def test_random_determinism():
    a = gen_random(9, 0.4, (1, 2, 3), seed=77)
    b = gen_random(9, 0.4, (1, 2, 3), seed=77)
    assert a == b
    c = gen_random(9, 0.4, (1, 2, 3), seed=78)
    assert a != c


def test_random_density_tracks_p():
    g = gen_random(40, 0.5, seed=1)
    assert 0.35 * 780 < g.m < 0.65 * 780


def test_random_rejects_bad_input():
    with pytest.raises(ValueError):
        gen_random(-1, 0.5)
    with pytest.raises(ValueError):
        gen_random(4, 1.5)
    with pytest.raises(ValueError):
        gen_random(4, 0.5, (0, 0, 0))
    with pytest.raises(ValueError):
        gen_random(4, 0.5, (1, -1, 1))


def test_every_generator_checks_the_vertex_budget(monkeypatch):
    monkeypatch.setenv(VERTEX_BUDGET_ENV, "12")
    fitting = (
        lambda: gen_grid(3, 4),
        lambda: gen_caterpillar_kayles(6),
        lambda: gen_lower_nd(3, 2),
        lambda: gen_random(12, 0.5),
    )
    for make in fitting:
        assert make().n <= 12
    # (what the message names, the exact vertex count, the generator)
    too_big = (
        ("grid rows=3 cols=5", 15, lambda: gen_grid(3, 5)),
        ("caterpillar pins=7", 14, lambda: gen_caterpillar_kayles(7)),
        ("lower-vc k=4", 36, lambda: gen_lower_vc(4)),
        ("lower-nd k=3 s=4", 15, lambda: gen_lower_nd(3, 4)),
        ("random n=13", 13, lambda: gen_random(13, 0.5)),
    )
    for what, n, make in too_big:
        for budget in (12, n - 1):
            monkeypatch.setenv(VERTEX_BUDGET_ENV, str(budget))
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == (
                f"{what} is over the budget of {budget} vertices"
                f" (raise {VERTEX_BUDGET_ENV} to allow it)"
            )
        monkeypatch.setenv(VERTEX_BUDGET_ENV, str(n))
        assert make().n == n  # the budget is compared with the exact count
    monkeypatch.delenv(VERTEX_BUDGET_ENV)
    with pytest.raises(ValueError, match="over the budget"):
        gen_grid(100000, 100000)  # refused before any edge is built
