"""Benchmark harness: suite expansion, consistency, CSV output."""

import pytest

from cak import (
    ColoredGraph,
    gen_caterpillar_kayles,
    gen_grid,
    gen_random,
    min_vertex_cover,
    nd_partition,
)
from cak.bench import (
    CSV_COLUMNS,
    BenchConsistencyError,
    expand_suite,
    pick_auto_engine,
    records_to_csv,
    run_bench,
)
from cak.engines import SOLVERS, VC_THRESHOLD
from cak.graph import Player
from cak.params import cover_at_most

from _oracles import build


def small_suite():
    return {
        "seed": 5,
        "turn": "B",
        "engines": ["naive", "subset", "vc", "nd"],
        "suites": [
            {
                "generator": "random",
                "grid": {"n": [5, 6], "p": [0.4]},
                "repetitions": 2,
            },
            {"generator": "grid", "grid": {"rows": [2], "cols": [2, 3]}},
            {
                "generator": "caterpillar",
                "grid": {"pins": [2]},
                "engines": ["tree", "subset"],
            },
            {
                "generator": "lower-vc",
                "grid": {"k": [2]},
                "engines": ["vc"],
                "count_mode": True,
            },
            {
                "generator": "lower-nd",
                "grid": {"k": [3], "s": [2]},
                "engines": ["nd"],
                "count_mode": True,
                "restrict_clique_edges": True,
            },
        ],
    }


def test_expand_suite_grid_product_and_seeds():
    tasks = expand_suite(small_suite())
    random_tasks = [t for t in tasks if t.instance.startswith("random")]
    assert len(random_tasks) == 4  # two n values x one p x two repetitions
    assert [t.graph for t in random_tasks] == [
        gen_random(5, 0.4, seed=5),
        gen_random(5, 0.4, seed=6),
        gen_random(6, 0.4, seed=7),
        gen_random(6, 0.4, seed=8),
    ]
    cat = next(t for t in tasks if t.instance.startswith("caterpillar"))
    assert cat.engines == ("tree", "subset")
    assert not cat.count_mode
    nd_task = next(t for t in tasks if t.instance.startswith("lower-nd"))
    assert nd_task.count_mode
    assert nd_task.restrict_to == frozenset(range(6))


def test_expand_suite_rejects_bad_specs():
    with pytest.raises(ValueError):
        expand_suite({"suites": [{"generator": "nope", "grid": {}}]})
    with pytest.raises(ValueError):
        expand_suite(
            {"suites": [{"generator": "grid", "grid": {"rows": [2], "k": [1]}}]}
        )
    with pytest.raises(ValueError):
        expand_suite(
            {"suites": [{"generator": "random", "grid": {"n": [4], "p": [0.5], "seed": [1]}}]}
        )
    with pytest.raises(ValueError):
        expand_suite(
            {"engines": ["warp"], "suites": [{"generator": "grid", "grid": {"rows": [1], "cols": [2]}}]}
        )
    with pytest.raises(ValueError):
        expand_suite(
            {"suites": [{"generator": "grid", "grid": {"rows": [1], "cols": [2]}, "restrict_clique_edges": True}]}
        )
    # A misspelled field is an error, not a silent default: an unread
    # "engins" or "engine" would run subset.
    grid = {"generator": "grid", "grid": {"rows": [1], "cols": [2]}}
    with pytest.raises(ValueError, match="unknown suite field 'engins'"):
        expand_suite({"suites": [grid], "engins": ["nd"]})
    with pytest.raises(ValueError, match="unknown suite entry field 'engine'"):
        expand_suite({"suites": [{**grid, "engine": ["vc"]}]})
    with pytest.raises(ValueError, match="repetitions only applies to random"):
        expand_suite({"suites": [{**grid, "repetitions": 3}]})


def test_run_bench_records():
    records = run_bench(small_suite())
    assert records == sorted(records, key=lambda r: (r.instance, r.engine))
    assert all(r.status == "ok" for r in records)
    by_instance = {}
    for r in records:
        assert r.elapsed == ""  # timing off by default
        if r.winner:
            by_instance.setdefault(r.instance, set()).add(r.winner)
    assert all(len(winners) == 1 for winners in by_instance.values())
    cram = [r for r in records if "cols=2" in r.instance and r.engine == "subset"]
    assert cram[0].winner == "W"
    assert cram[0].tau == min_vertex_cover(gen_grid(2, 2)).size
    counted = [r for r in records if r.instance.startswith("lower-vc")]
    assert counted[0].winner == ""
    assert counted[0].node_expansions >= 4
    restricted = [r for r in records if r.instance.startswith("lower-nd")]
    assert restricted[0].distinct_keys >= 13


def test_top_level_count_mode_is_each_entry_default():
    grid = {"generator": "grid", "grid": {"rows": [2], "cols": [2]}}
    (counted,) = run_bench({"count_mode": True, "suites": [grid]})
    assert counted.winner == ""
    (solved,) = run_bench({"count_mode": True, "suites": [{**grid, "count_mode": False}]})
    assert solved.winner == "W"


def test_run_bench_captures_engine_errors():
    spec = {
        "suites": [
            {
                "generator": "grid",
                "grid": {"rows": [2], "cols": [2]},
                "engines": ["tree", "subset"],
            }
        ]
    }
    records = run_bench(spec)
    by_engine = {r.engine: r for r in records}
    assert by_engine["tree"].status.startswith("error:")
    assert by_engine["tree"].winner == ""
    assert by_engine["subset"].status == "ok"


def test_run_bench_flags_disagreement(monkeypatch):
    def contrarian(g, turn, **kwargs):
        out = SOLVERS["subset"](g, turn)
        out.winner = out.winner.opponent
        return out

    monkeypatch.setitem(SOLVERS, "naive", contrarian)
    spec = {
        "engines": ["naive", "subset"],
        "suites": [{"generator": "grid", "grid": {"rows": [2], "cols": [2]}}],
    }
    with pytest.raises(BenchConsistencyError):
        run_bench(spec)


def test_csv_shape_and_stability():
    records = run_bench(small_suite())
    text = records_to_csv(records)
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[-1] == ""
    assert len(lines) == len(records) + 2
    again = records_to_csv(run_bench(small_suite()))
    assert text == again


def test_timing_fills_elapsed():
    spec = {"suites": [{"generator": "grid", "grid": {"rows": [2], "cols": [2]}}]}
    records = run_bench(spec, timing=True)
    assert all(float(r.elapsed) >= 0.0 for r in records if r.status == "ok")


def test_pick_auto_engine():
    assert pick_auto_engine(gen_caterpillar_kayles(3)) == "tree"
    assert pick_auto_engine(gen_grid(2, 2)) == "vc"  # cycle, tiny cover
    # K12 has tau 11, over the threshold, and all its vertices are twins
    # (nu 1, so 11 merged vertices), so it goes to nd.
    k12 = build(12, [(u, v, "g") for u in range(12) for v in range(u + 1, 12)])
    assert pick_auto_engine(k12) == "nd"
    forest_with_colors = build(2, [(0, 1, "b")])
    assert pick_auto_engine(forest_with_colors) == "vc"


def test_pick_auto_engine_bounds_the_cover_search():
    # a greedy matching has 95 edges, so tau is far over the threshold;
    # the graph is twin-free (nu = n), so auto keeps subset
    assert pick_auto_engine(gen_random(200, 0.05)) == "subset"


def test_pick_auto_engine_cuts_tau_at_the_threshold():
    """All-gray K_n has tau n - 1: K9 is at the threshold of 8 and goes
    to vc; K10 is over it and goes to nd, every vertex a twin of the rest."""
    def clique(n):
        return build(n, [(u, v, "g") for u in range(n) for v in range(u + 1, n)])

    assert pick_auto_engine(clique(9)) == "vc"
    assert pick_auto_engine(clique(10)) == "nd"


@pytest.mark.parametrize("copies, engine", [(0, "subset"), (1, "nd"), (3, "nd"), (4, "nd")])
def test_pick_auto_engine_takes_nd_wherever_twins_exist(copies, engine):
    """gen_random(14, 0.4) is twin-free with tau over the threshold.
    Each copy of vertex 0 (same colored neighbours, not adjacent to it)
    joins 0's module and merges one more vertex: nd is picked from one
    merged vertex on (nu < n), and subset only on the twin-free graph."""
    g = gen_random(14, 0.4)
    copied = [(v, g.n + i, c) for i in range(copies) for u, v, c in g.edges if u == 0]
    blown = ColoredGraph(g.n + copies, g.edges + tuple(copied))
    assert nd_partition(blown).count == g.n
    assert not cover_at_most(blown, VC_THRESHOLD)
    assert pick_auto_engine(blown) == engine
