"""Command-line interface: JSON shapes, exit codes, byte stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cak import (
    gen_caterpillar_kayles,
    gen_grid,
    gen_random,
    nd_partition,
    parse_graph,
    serialize_graph,
)
from cak.bench import BenchConsistencyError
from cak.cli import build_parser, main

from _oracles import build


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cak(path, g, name="g.cak"):
    target = path / name
    target.write_text(serialize_graph(g))
    return str(target)


def test_gen_and_solve_pipeline(tmp_path, capsys):
    out = str(tmp_path / "cram.cak")
    code, _, _ = invoke(
        capsys, "gen", "grid", "--rows", "2", "--cols", "2", "-o", out
    )
    assert code == 0
    code, stdout, _ = invoke(
        capsys, "solve", "-f", out, "--first", "B", "-e", "subset"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["engine"] == "subset"
    assert report["first"] == "B"
    assert report["winner"] == "W"
    assert report["winning_move"] is None
    assert set(report["stats"]) == {"node_expansions", "memo_hits", "distinct_keys"}
    assert report["stats"]["node_expansions"] >= 1


def test_solve_reports_one_based_move(tmp_path, capsys):
    f = write_cak(tmp_path, build(2, [(0, 1, "g")]))
    code, stdout, _ = invoke(capsys, "solve", "-f", f, "-e", "naive")
    assert code == 0
    report = json.loads(stdout)
    assert report["winner"] == "B"
    assert report["winning_move"] == [1, 2]


def test_solve_timing_flag(tmp_path, capsys):
    f = write_cak(tmp_path, gen_grid(2, 2))
    _, stdout, _ = invoke(capsys, "solve", "-f", f, "--timing")
    report = json.loads(stdout)
    assert "elapsed" in report["stats"]
    assert report["stats"]["elapsed"] >= 0.0


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_solve_example():
    """The JSON block README shows as the exact output of solving board.cak."""
    after = README.read_text().split("`cak solve -f board.cak -e subset` prints exactly", 1)[1]
    return after.split("```json\n", 1)[1].split("```", 1)[0]


def test_solve_output_is_byte_stable(tmp_path, capsys):
    f = write_cak(tmp_path, gen_grid(2, 3))
    _, first, _ = invoke(capsys, "solve", "-f", f, "-e", "subset")
    _, second, _ = invoke(capsys, "solve", "-f", f, "-e", "subset")
    assert first == second
    assert first == readme_solve_example()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["slove"],
        ["sol"],
        ["solve"],
        ["solve", "-f", "x.cak", "--bogus"],
        ["gen"],
        ["gen", "grid", "-h"],
        ["count", "-h"],
    ],
    ids=["empty", "help", "unknown", "truncated", "no-file", "bad-flag", "gen", "gen-grid", "count"],
)
def test_parser_of_one_command_prints_what_the_full_parser_does(argv, capsys):
    """main builds only the subparser its first argument names; whatever
    argparse prints and exits with must be what the parser of every
    command gives. Only names cak does not know reach the full build, the
    one parser that can say "invalid choice" or "required: command"."""

    def run(parse):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        out, err = capsys.readouterr()
        return stop.value.code, out, err

    got = run(main)
    assert got == run(build_parser().parse_args)
    full_only = "argument command: invalid choice" in got[2] or "required: command" in got[2]
    assert full_only == (argv in ([], ["slove"], ["sol"]))
    assert got[0] == (0 if "-h" in argv else 2)
    if argv[:1] == ["gen"]:  # the parser main used for it lists no other command
        assert "determine the winner" not in build_parser("gen").format_help()


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process, and one call's options do not
    # carry over to the next
    assert build_parser() is build_parser()
    path = write_cak(tmp_path, gen_grid(2, 2))
    _, first, _ = invoke(capsys, "solve", "-f", path, "--first", "W", "-e", "subset")
    _, second, _ = invoke(capsys, "solve", "-f", path)
    assert (json.loads(first)["first"], json.loads(first)["engine"]) == ("W", "subset")
    assert (json.loads(second)["first"], json.loads(second)["engine"]) == ("B", "vc")


def test_output_is_byte_stable_across_hash_seeds(tmp_path):
    """Set and dict iteration order of str keys depends on the hash seed,
    so run each command in fresh processes under two seeds."""
    cat = write_cak(tmp_path, gen_caterpillar_kayles(7), "cat.cak")
    colored = write_cak(tmp_path, gen_random(12, 0.3, seed=5), "colored.cak")
    commands = (
        ("solve", "-f", cat),
        ("grundy", "-f", cat),
        ("params", "-f", colored),
        ("solve", "-f", colored, "-e", "vc", "--count-mode"),
    )
    for argv in commands:
        outputs = set()
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "cak.cli", *argv],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv


def test_auto_engine_selection(tmp_path, capsys):
    cat = write_cak(tmp_path, gen_caterpillar_kayles(3), "cat.cak")
    _, stdout, _ = invoke(capsys, "solve", "-f", cat, "-e", "auto")
    assert json.loads(stdout)["engine"] == "tree"
    cram = write_cak(tmp_path, gen_grid(2, 2), "cram.cak")
    _, stdout, _ = invoke(capsys, "solve", "-f", cram, "-e", "auto")
    assert json.loads(stdout)["engine"] == "vc"


def test_auto_routes_twins_to_nd_past_subset_capacity(tmp_path, capsys):
    """lower-nd with k = 3, s = 11 has n = 36 but nu = 6: auto takes nd,
    whose key-space bound admits it, where subset's one-vertex modules
    put the same bound at 2^36."""
    f = str(tmp_path / "lnd.cak")
    assert invoke(capsys, "gen", "lower-nd", "--k", "3", "--s", "11", "-o", f)[0] == 0
    code, auto, _ = invoke(capsys, "solve", "-f", f)
    assert code == 0
    report = json.loads(auto)
    assert report["engine"] == "nd"
    assert (report["winner"], report["winning_move"]) == ("B", [12, 35])
    assert invoke(capsys, "solve", "-f", f, "-e", "nd") == (0, auto, "")
    code, _, stderr = invoke(capsys, "solve", "-f", f, "-e", "subset")
    assert code == 2 and "subset engine keys up to prod(|M_i|+1) = 2^36.0 positions" in stderr
    # auto's options are checked against nd, the engine it picks.
    modules = [[v + 1 for v in m] for m in nd_partition(parse_graph(Path(f).read_bytes())).modules]
    part = tmp_path / "part.json"
    part.write_text(json.dumps(modules))
    assert invoke(capsys, "solve", "-f", f, "-e", "auto", "--partition", str(part)) == (0, auto, "")
    code, _, stderr = invoke(capsys, "solve", "-f", f, "-e", "auto", "--max-n", "40")
    assert code == 2
    assert stderr == "error: option max_n does not apply to engine 'nd'\n"


def test_solve_with_cover_and_partition(tmp_path, capsys):
    star = write_cak(tmp_path, build(4, [(0, 1, "g"), (0, 2, "g"), (0, 3, "g")]))
    code, stdout, _ = invoke(
        capsys, "solve", "-f", star, "-e", "vc", "--cover", "1"
    )
    assert code == 0
    assert json.loads(stdout)["winner"] == "B"
    k33 = write_cak(
        tmp_path,
        build(6, [(u, v, "g") for u in range(3) for v in range(3, 6)]),
        "k33.cak",
    )
    part = tmp_path / "part.json"
    part.write_text("[[1, 2, 3], [4, 5, 6]]")
    code, stdout, _ = invoke(
        capsys, "solve", "-f", k33, "-e", "nd", "--partition", str(part)
    )
    assert code == 0
    assert json.loads(stdout)["winner"] == "B"


def test_solve_error_paths(tmp_path, capsys):
    cram = write_cak(tmp_path, gen_grid(2, 2))
    code, _, stderr = invoke(capsys, "solve", "-f", cram, "-e", "tree")
    assert code == 2
    assert "not a forest" in stderr
    code, _, stderr = invoke(
        capsys, "solve", "-f", cram, "-e", "vc", "--cover", "abc"
    )
    assert code == 2
    code, _, stderr = invoke(
        capsys, "solve", "-f", cram, "-e", "vc", "--cover", "1"
    )
    assert code == 2  # vertex 1 alone covers nothing here
    code, _, stderr = invoke(capsys, "solve", "-f", str(tmp_path / "no.cak"))
    assert code == 2
    bad = tmp_path / "bad.cak"
    bad.write_text("p cak 2 1\ne 1 5 g\n")
    code, _, stderr = invoke(capsys, "solve", "-f", str(bad))
    assert code == 2
    assert "line 2" in stderr
    part = tmp_path / "part.json"
    part.write_text('{"not": "a list"}')
    k33 = write_cak(tmp_path, build(2, [(0, 1, "g")]), "e.cak")
    code, _, _ = invoke(
        capsys, "solve", "-f", k33, "-e", "nd", "--partition", str(part)
    )
    assert code == 2


def test_count_mode_cli(tmp_path, capsys):
    f = write_cak(tmp_path, gen_grid(2, 2))
    code, stdout, _ = invoke(
        capsys, "solve", "-f", f, "-e", "subset", "--count-mode"
    )
    assert code == 0
    report = json.loads(stdout)
    assert set(report) == {"engine", "first", "stats"}
    code, _, stderr = invoke(
        capsys, "solve", "-f", f, "-e", "naive", "--count-mode"
    )
    assert code == 2
    assert "count mode" in stderr


def test_grundy_cli(tmp_path, capsys):
    cat = write_cak(tmp_path, gen_caterpillar_kayles(2))
    for engine in ("tree", "naive"):
        code, stdout, _ = invoke(capsys, "grundy", "-f", cat, "-e", engine)
        assert code == 0
        assert json.loads(stdout) == {"engine": engine, "grundy": 2}
    colored = write_cak(tmp_path, build(2, [(0, 1, "b")]), "colored.cak")
    code, _, stderr = invoke(capsys, "grundy", "-f", colored)
    assert code == 2


def test_params_cli(tmp_path, capsys):
    f = write_cak(tmp_path, gen_grid(2, 2))
    code, stdout, _ = invoke(capsys, "params", "-f", f)
    assert code == 0
    report = json.loads(stdout)
    assert report["n"] == 4
    assert report["m"] == 4
    assert report["colors"] == ["g"]
    assert report["tau"] == 2
    assert report["nu"] == 2
    assert report["module_sizes"] == [2, 2]
    assert report["equivalence_classes"] == 1
    assert report["class_sizes"] == [2]
    assert len(report["cover"]) == 2
    assert all(1 <= v <= 4 for v in report["cover"])


def test_count_cli(tmp_path, capsys):
    p3 = write_cak(tmp_path, build(3, [(0, 1, "g"), (1, 2, "g")]))
    code, stdout, _ = invoke(capsys, "count", "ak-subtrees", "-f", p3, "--root", "1")
    assert code == 0
    assert json.loads(stdout) == {"kind": "ak-subtrees", "root": 1, "count": 2}
    _, stdout, _ = invoke(capsys, "count", "ak-subtrees", "-f", p3, "--root", "2")
    assert json.loads(stdout)["count"] == 1
    _, stdout, _ = invoke(capsys, "count", "nk-subtrees", "-f", p3, "--root", "1")
    assert json.loads(stdout)["count"] == 2
    cram = write_cak(tmp_path, gen_grid(2, 2), "cram.cak")
    code, _, _ = invoke(capsys, "count", "ak-subtrees", "-f", cram, "--root", "1")
    assert code == 2


def test_gen_cli_variants(tmp_path, capsys):
    code, stdout, _ = invoke(capsys, "gen", "lower-vc", "--k", "2")
    assert code == 0
    assert stdout.startswith("c lower-vc k=2\np cak 6 7\n")
    code, stdout, _ = invoke(capsys, "gen", "lower-nd", "--k", "3", "--s", "2")
    assert code == 0
    assert "p cak 9" in stdout
    code, first, _ = invoke(
        capsys, "gen", "random", "--n", "7", "--p", "0.5", "--weights", "2,1,0",
        "--seed", "9",
    )
    assert code == 0
    code, second, _ = invoke(
        capsys, "gen", "random", "--n", "7", "--p", "0.5", "--weights", "2,1,0",
        "--seed", "9",
    )
    assert first == second
    # gen_random checks the weights, whatever the CLI made of the text.
    for weights in ("1,2", "a,b,c", "1,-1,1", "0,0,0"):
        code, stdout, stderr = invoke(
            capsys, "gen", "random", "--n", "5", "--p", "0.5", "--weights", weights
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: weights must be three nonnegative integers, not all zero\n"
    code, _, _ = invoke(capsys, "gen", "lower-vc", "--k", "3")
    assert code == 2


def test_bench_cli(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps(
            {
                "seed": 1,
                "engines": ["subset", "vc"],
                "suites": [
                    {"generator": "grid", "grid": {"rows": [2], "cols": [2, 3]}},
                    {"generator": "random", "grid": {"n": [5], "p": [0.5]}},
                ],
            }
        )
    )
    code, stdout, _ = invoke(capsys, "bench", "--suite", str(suite))
    assert code == 0
    header = stdout.split("\n", 1)[0]
    assert header == (
        "instance,generator_params,engine,n,m,tau,nu,winner,"
        "node_expansions,distinct_keys,elapsed,status"
    )
    out_file = tmp_path / "out.csv"
    code, _, _ = invoke(
        capsys, "bench", "--suite", str(suite), "-o", str(out_file)
    )
    assert code == 0
    assert out_file.read_text() == stdout
    code, timed, _ = invoke(capsys, "bench", "--suite", str(suite), "--timing")
    assert code == 0
    row = timed.strip().split("\n")[1].split(",")
    assert row[-2] != ""  # elapsed column filled


def test_bench_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    import cak.cli as cli_module

    def boom(spec, timing=False):
        raise BenchConsistencyError("winner disagreement on x")

    monkeypatch.setattr(cli_module, "run_bench", boom)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"suites": []}))
    code, _, stderr = invoke(capsys, "bench", "--suite", str(suite))
    assert code == 3
    assert "disagreement" in stderr


def test_cli_runs_as_module(tmp_path):
    f = tmp_path / "edge.cak"
    f.write_text("p cak 2 1\ne 1 2 g\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cak.cli", "solve", "-f", str(f), "-e", "naive"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["winner"] == "B"


def test_engine_options_must_apply_to_the_engine_that_runs(tmp_path, capsys):
    cram = write_cak(tmp_path, gen_grid(2, 2))
    code, _, stderr = invoke(capsys, "solve", "-f", cram, "-e", "subset", "--cover", "1,4")
    assert code == 2
    assert "'subset'" in stderr
    cat = write_cak(tmp_path, gen_caterpillar_kayles(3), "cat.cak")
    part = tmp_path / "part.json"
    part.write_text("[[1], [2], [3], [4], [5], [6], [7], [8], [9]]")
    code, _, stderr = invoke(capsys, "solve", "-f", cat, "--partition", str(part))
    assert code == 2
    assert "'tree'" in stderr  # what auto picked
    code, _, stderr = invoke(capsys, "solve", "-f", cram, "--max-n", "40")
    assert code == 2
    assert "'vc'" in stderr
    code, _, stderr = invoke(capsys, "solve", "-f", cram, "-e", "nd", "--count-mode", "--cover", "1,4")
    assert code == 2
    assert "'nd'" in stderr
    for extra in ([], ["--count-mode"]):
        code, stdout, _ = invoke(capsys, "solve", "-f", cram, "-e", "subset", "--max-n", "4", *extra)
        assert code == 0
        assert json.loads(stdout)["engine"] == "subset"
    code, _, stderr = invoke(capsys, "solve", "-f", cram, "-e", "subset", "--max-n", "3")
    assert code == 2


def test_empty_engine_options_are_given_options(tmp_path, capsys):
    cram = write_cak(tmp_path, gen_grid(2, 2))
    for option in ("--cover", "--partition"):
        code, _, stderr = invoke(capsys, "solve", "-f", cram, "-e", "subset", option, "")
        assert code == 2
        assert f"option {option[2:]} does not apply to engine 'subset'" in stderr
    code, _, stderr = invoke(capsys, "solve", "-f", cram, "-e", "vc", "--cover", "")
    assert code == 2
    assert "not a vertex cover" in stderr


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cak.cli", *argv], capture_output=True, text=True
    )


def test_suite_entry_without_generator_exits_2(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"suites": [{"grid": {"rows": [2], "cols": [2]}}]}))
    proc = run_cli("bench", "--suite", str(suite))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "generator" in proc.stderr


def test_non_integer_suite_grid_value_exits_2(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps({"suites": [{"generator": "grid", "grid": {"rows": ["two"], "cols": [2]}}]})
    )
    proc = run_cli("bench", "--suite", str(suite))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_partition_with_non_integer_ids_exits_2(tmp_path):
    k33 = write_cak(
        tmp_path, build(6, [(u, v, "g") for u in range(3) for v in range(3, 6)])
    )
    part = tmp_path / "part.json"
    part.write_text('[["1", "2", "3"], [4, 5, 6]]')
    proc = run_cli("solve", "-f", k33, "-e", "nd", "--partition", str(part))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_vertex_count_over_budget_exits_2(tmp_path):
    huge = tmp_path / "huge.cak"
    huge.write_text("p cak 100000000000 0\n")
    proc = run_cli("solve", "-f", str(huge))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "CAK_MAX_VERTICES" in proc.stderr


def test_gen_far_over_budget_names_the_budget(monkeypatch):
    """4 ** 50000 vertices: the count has over 4,300 digits, too many
    for Python to print, and the message names only the budget."""
    monkeypatch.delenv("CAK_MAX_VERTICES", raising=False)
    proc = run_cli("gen", "lower-vc", "--k", "100000")
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: lower-vc k=100000 is over the budget of 5000 vertices"
        " (raise CAK_MAX_VERTICES to allow it)\n"
    )


def test_too_deep_tree_search_exits_2(tmp_path):
    n = 2500
    path = tmp_path / "path.cak"
    path.write_text(
        f"p cak {n} {n - 1}\n" + "".join(f"e {v} {v + 1} g\n" for v in range(1, n))
    )
    proc = run_cli("grundy", "-f", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "recursion limit" in proc.stderr


def test_suite_field_types_exit_2(tmp_path, capsys):
    cases = {
        "suite spec must be a JSON object": [{"generator": "grid"}],
        "suite field 'turn' must be a JSON string": {"turn": 1, "suites": []},
        "suite entry field 'turn' must be a JSON string": {
            "suites": [{"generator": "grid", "grid": {"rows": [2], "cols": [2]}, "turn": 1}]
        },
        "suite field 'engines' must be a JSON list": {"engines": "subset", "suites": []},
        "suite entry field 'engines' must be a JSON list": {
            "suites": [{"generator": "grid", "grid": {"rows": [2], "cols": [2]}, "engines": "nd"}]
        },
        "suite field 'seed' must be a JSON integer": {"seed": [1], "suites": []},
        "suite entry field 'repetitions' must be a JSON integer": {
            "suites": [{"generator": "random", "grid": {"n": [4], "p": [0.5]}, "repetitions": {}}]
        },
        "suite entry field 'grid' must be a JSON object": {
            "suites": [{"generator": "grid", "grid": [2, 2]}]
        },
        "suite field 'count_mode' must be a JSON boolean": {"count_mode": "yes", "suites": []},
        "suite entry field 'count_mode' must be a JSON boolean": {
            "suites": [{"generator": "grid", "grid": {"rows": [2], "cols": [2]}, "count_mode": "false"}]
        },
        "suite entry field 'restrict_clique_edges' must be a JSON boolean": {
            "suites": [{"generator": "lower-nd", "grid": {"k": [3], "s": [2]},
                        "restrict_clique_edges": "false"}]
        },
        # Each spec below would run nothing and print a header-only CSV.
        "suite entry field 'repetitions' must be at least 1, not 0": {
            "suites": [{"generator": "random", "grid": {"n": [4], "p": [0.5]}, "repetitions": 0}]
        },
        "suite entry field 'repetitions' must be at least 1, not -1": {
            "suites": [{"generator": "random", "grid": {"n": [4], "p": [0.5]}, "repetitions": -1}]
        },
        "suite field 'engines' must not be empty": {
            "engines": [], "suites": [{"generator": "grid", "grid": {"rows": [2], "cols": [2]}}]
        },
        "suite entry field 'engines' must not be empty": {
            "suites": [{"generator": "grid", "grid": {"rows": [2], "cols": [2]}, "engines": []}]
        },
    }
    booleans_as_integers = [  # messages already above, given a JSON boolean
        ("suite field 'seed' must be a JSON integer", {"seed": True, "suites": []}),
        ("suite entry field 'repetitions' must be a JSON integer", {
            "suites": [{"generator": "random", "grid": {"n": [4], "p": [0.5]}, "repetitions": True}]
        }),
    ]
    suite = tmp_path / "suite.json"
    for message, spec in [*cases.items(), *booleans_as_integers]:
        suite.write_text(json.dumps(spec))
        code, _, stderr = invoke(capsys, "bench", "--suite", str(suite))
        assert code == 2
        assert stderr == f"error: {message}\n"


def test_bench_weights_are_checked_by_the_generator(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    for weights in ([1, 1], [1.0, 1, 1], [True, 1, 1]):
        grid = {"n": [4], "p": [0.5], "weights": [weights]}
        suite.write_text(json.dumps({"suites": [{"generator": "random", "grid": grid}]}))
        code, stdout, stderr = invoke(capsys, "bench", "--suite", str(suite))
        assert (code, stdout) == (2, "")
        assert stderr == "error: weights must be three nonnegative integers, not all zero\n"


def test_ids_are_checked_one_based_at_the_cli_edge(tmp_path, capsys):
    p3 = write_cak(tmp_path, build(3, [(0, 1, "g"), (1, 2, "g")]))
    part = tmp_path / "part.json"
    cases = {
        "cover vertex 0 out of range 1..3": ("solve", "-f", p3, "-e", "vc", "--cover", "0"),
        "cover vertex 9 out of range 1..3": ("solve", "-f", p3, "-e", "vc", "--cover", "2,9"),
        "partition vertex 4 out of range 1..3": (
            "solve", "-f", p3, "-e", "nd", "--partition", str(part)
        ),
        "root 0 out of range 1..3": ("count", "ak-subtrees", "-f", p3, "--root", "0"),
        "root 4 out of range 1..3": ("count", "nk-subtrees", "-f", p3, "--root", "4"),
    }
    part.write_text("[[1, 3], [2], [4]]")
    for message, argv in cases.items():
        code, _, stderr = invoke(capsys, *argv)
        assert code == 2
        assert stderr == f"error: {message}\n"
    code, stdout, _ = invoke(capsys, "solve", "-f", p3, "-e", "vc", "--cover", "2")
    assert code == 0
    assert json.loads(stdout)["winner"] == "B"


def test_auto_on_a_large_cover_exits_2_from_subset(tmp_path, capsys):
    f = write_cak(tmp_path, gen_random(200, 0.05))
    code, _, stderr = invoke(capsys, "solve", "-f", f)
    assert code == 2
    assert "subset" in stderr


@pytest.mark.parametrize("engine", ["nd", "subset"])
def test_key_space_over_32_bits_exits_2(tmp_path, capsys, engine):
    f = write_cak(tmp_path, gen_random(40, 0.15, seed=3))
    code, stdout, stderr = invoke(capsys, "solve", "-f", f, "-e", engine)
    assert (code, stdout) == (2, "")
    # One refusal, nd's builder's, naming the engine the user ran.
    assert stderr == (
        f"error: {engine} engine keys up to prod(|M_i|+1) = 2^40.0 positions; the limit is 2^32\n"
    )


def test_negative_max_n_exits_2_naming_it(tmp_path, capsys):
    cram = write_cak(tmp_path, gen_grid(2, 2))
    code, stdout, stderr = invoke(capsys, "solve", "-f", cram, "-e", "subset", "--max-n", "-1")
    assert (code, stdout, stderr) == (2, "", "error: max_n must be >= 0, got -1\n")


def test_too_deep_nd_search_exits_2(tmp_path, capsys, shallow_stack):
    m = 120
    f = write_cak(tmp_path, build(2 * m, [(u, m + v, "g") for u in range(m) for v in range(m)]))
    shallow_stack(100)
    code, _, stderr = invoke(capsys, "solve", "-f", f, "-e", "nd")
    assert code == 2
    assert "recursion limit" in stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("-e", "vc", "--cover", "1"), "not a vertex cover: edge {2, 3} uncovered"),
        (("-e", "nd", "--partition", "[[1], [1, 3]]"), "invalid partition: vertex 1 appears twice"),
        (
            ("-e", "nd", "--partition", "[[1, 2], [3]]"),
            "invalid partition: 1 and 2 are not colored twins",
        ),
    ],
    ids=["uncovered", "twice", "not-twins"],
)
def test_library_errors_name_one_based_ids(tmp_path, capsys, argv, message):
    p3 = write_cak(tmp_path, build(3, [(0, 1, "g"), (1, 2, "g")]))
    if "--partition" in argv:
        part = tmp_path / "part.json"
        part.write_text(argv[-1])
        argv = (*argv[:-1], str(part))
    code, stdout, stderr = invoke(capsys, "solve", "-f", p3, *argv)
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
