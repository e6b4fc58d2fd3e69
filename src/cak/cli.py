"""Command-line interface.

Vertex ids in files, flags, and JSON output are 1-based, matching the
.cak format; the library API is 0-based. Output is byte-stable for
fixed inputs and seeds: timings are only emitted under --timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .bench import BenchConsistencyError, records_to_csv, run_bench
from .engines import COUNTERS, ENGINE_NAMES, GRUNDY, SUBTREE_COUNTERS, select_engine
from .engines.nd import MAX_KEY_BITS
from .generators import GENERATORS
from .graph import Player, VertexError, parse_graph, serialize_graph
from .params import equivalence_classes, min_vertex_cover, nd_partition


def _read_graph(path: str):
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj) -> None:
    _write(json.dumps(obj, indent=2) + "\n", None)


def _stats_json(stats, timing: bool) -> dict:
    out = {
        "node_expansions": stats.node_expansions,
        "memo_hits": stats.memo_hits,
        "distinct_keys": stats.distinct_keys,
    }
    if timing:
        out["elapsed"] = round(stats.elapsed, 6)
    return out


def _zero_based(ids: list[int], n: int, what: str) -> list[int]:
    """The 0-based form of 1-based ids, each checked against 1..n."""
    for v in ids:
        if not 1 <= v <= n:
            raise ValueError(f"{what} {v} out of range 1..{n}")
    return [v - 1 for v in ids]


def _parse_cover(text: str, n: int) -> list[int]:
    try:
        ids = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad cover list {text!r} (expected comma-separated 1-based ids)")
    return _zero_based(ids, n, "cover vertex")


def _load_partition(path: str, n: int) -> list[list[int]]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not all(
        isinstance(m, list) and all(type(v) is int for v in m) for m in data
    ):
        raise ValueError("partition file must be a JSON list of integer vertex-id lists")
    return [_zero_based(module, n, "partition vertex") for module in data]


def _cmd_solve(args) -> int:
    g = _read_graph(args.file)
    turn = Player.parse(args.first)
    given = {"max_n": args.max_n, "cover": args.cover, "partition": args.partition}
    options = {key: value for key, value in given.items() if value is not None}
    # Whether the engine takes an option is checked before the option's value.
    engine, fn = select_engine(args.engine, g, args.count_mode, options)
    if "cover" in options:
        options["cover"] = _parse_cover(args.cover, g.n)
    if "partition" in options:
        options["partition"] = _load_partition(args.partition, g.n)
    result = fn(g, turn, **options)
    report = {"engine": engine, "first": turn.value}
    if args.count_mode:
        report["stats"] = _stats_json(result, args.timing)
    else:
        move = result.winning_move
        report["winner"] = result.winner.value
        report["winning_move"] = [move[0] + 1, move[1] + 1] if move else None
        report["stats"] = _stats_json(result.stats, args.timing)
    _emit(report)
    return 0


def _cmd_grundy(args) -> int:
    g = _read_graph(args.file)
    _emit({"engine": args.engine, "grundy": GRUNDY[args.engine](g)})
    return 0


def _cmd_gen(args) -> int:
    fn, param_names = GENERATORS[args.kind]
    params = {name: getattr(args, name) for name in param_names}
    header = " ".join(["c", args.kind, *(f"{k}={v}" for k, v in params.items())])
    if "weights" in params:  # gen_random checks them; a token not a plain int stays text
        tokens = args.weights.split(",")
        params["weights"] = tuple(int(x) if x.strip().isdecimal() else x for x in tokens)
    _write(header + "\n" + serialize_graph(fn(**params)), args.output)
    return 0


def _cmd_params(args) -> int:
    g = _read_graph(args.file)
    cover = min_vertex_cover(g)
    partition = nd_partition(g)
    classes = equivalence_classes(g, cover=cover.vertices)
    _emit(
        {
            "n": g.n,
            "m": g.m,
            "colors": sorted(c.letter for c in g.colors_present()),
            "tau": cover.size,
            "cover": sorted(v + 1 for v in cover.vertices),
            "nu": partition.count,
            "module_sizes": sorted((len(m) for m in partition.modules), reverse=True),
            "equivalence_classes": len(classes),
            "class_sizes": sorted((len(m) for m in classes.values()), reverse=True),
        }
    )
    return 0


def _cmd_count(args) -> int:
    g = _read_graph(args.file)
    (root,) = _zero_based([args.root], g.n, "root")
    _emit({"kind": args.kind, "root": args.root, "count": SUBTREE_COUNTERS[args.kind](g, root)})
    return 0


def _cmd_bench(args) -> int:
    with open(args.suite) as fh:
        spec = json.load(fh)
    records = run_bench(spec, timing=args.timing)
    _write(records_to_csv(records), args.output)
    return 0


COMMANDS = ("solve", "grundy", "gen", "params", "count", "bench")


@functools.cache  # one parser per command, however often main() runs in a process
def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """cak's parser. When command is one of COMMANDS, only its subparser
    is built, under a metavar that keeps the usage line listing all of
    them; otherwise every one is, so argparse can name the valid choices."""
    parser = argparse.ArgumentParser(
        prog="cak",
        description="Solve and instrument Colored Arc Kayles positions.",
    )
    built = (command,) if command in COMMANDS else COMMANDS
    metavar = None if built is COMMANDS else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if "solve" in built:
        p = sub.add_parser("solve", help="determine the winner of a position")
        p.add_argument("-f", "--file", required=True, help=".cak input file")
        p.add_argument("--first", default="B", choices=["B", "W"], help="player to move")
        p.add_argument(
            "-e",
            "--engine",
            default="auto",
            choices=ENGINE_NAMES,
        )
        p.add_argument("--max-n", type=int, help=f"subset engine's alive-vertex limit ({MAX_KEY_BITS})")
        p.add_argument("--cover", help="comma-separated 1-based cover for the vc engine")
        p.add_argument("--partition", help="JSON file of 1-based modules for the nd engine")
        p.add_argument(
            "--count-mode",
            action="store_true",
            help=f"full-expansion instrumentation (no short-circuit; {'/'.join(COUNTERS)})",
        )
        p.add_argument("--timing", action="store_true", help="include elapsed seconds")
        p.set_defaults(func=_cmd_solve)

    if "grundy" in built:
        p = sub.add_parser("grundy", help="Sprague-Grundy value of a gray position")
        p.add_argument("-f", "--file", required=True)
        p.add_argument("-e", "--engine", default="tree", choices=list(GRUNDY))
        p.set_defaults(func=_cmd_grundy)

    if "gen" in built:
        p = sub.add_parser("gen", help="write a generated instance as .cak")
        gen_sub = p.add_subparsers(dest="kind", required=True)
        q = gen_sub.add_parser("grid")
        q.add_argument("--rows", type=int, required=True)
        q.add_argument("--cols", type=int, required=True)
        q.add_argument("--variant", default="cram", choices=["cram", "domineering"])
        q = gen_sub.add_parser("caterpillar")
        q.add_argument("--pins", type=int, required=True)
        q = gen_sub.add_parser("lower-vc")
        q.add_argument("--k", type=int, required=True)
        q = gen_sub.add_parser("lower-nd")
        q.add_argument("--k", type=int, required=True)
        q.add_argument("--s", type=int, required=True)
        q = gen_sub.add_parser("random")
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--p", type=float, required=True)
        q.add_argument("--weights", default="1,1,1", help="gray,black,white integer weights")
        q.add_argument("--seed", type=int, default=0)
        for q in gen_sub.choices.values():
            q.add_argument("-o", "--output")
        p.set_defaults(func=_cmd_gen)

    if "params" in built:
        p = sub.add_parser("params", help="structural parameters of an instance")
        p.add_argument("-f", "--file", required=True)
        p.set_defaults(func=_cmd_params)

    if "count" in built:
        p = sub.add_parser("count", help="count rooted subtrees reachable by removals")
        p.add_argument("kind", choices=list(SUBTREE_COUNTERS))
        p.add_argument("-f", "--file", required=True)
        p.add_argument("--root", type=int, required=True, help="1-based root vertex")
        p.set_defaults(func=_cmd_count)

    if "bench" in built:
        p = sub.add_parser("bench", help="run a benchmark suite, emit CSV")
        p.add_argument("--suite", required=True, help="suite spec JSON file")
        p.add_argument("-o", "--output")
        p.add_argument("--timing", action="store_true", help="fill the elapsed column")
        p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except BenchConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VertexError as exc:
        print(f"error: {exc.one_based()}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
