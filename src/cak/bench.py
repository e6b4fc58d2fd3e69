"""Benchmark harness: expand a suite spec, run engines, emit CSV.

A suite spec is JSON:

    {
      "seed": 42,
      "turn": "B",
      "engines": ["naive", "subset", "vc", "nd"],
      "suites": [
        {"generator": "random",
         "grid": {"n": [6, 8], "p": [0.2, 0.5], "weights": [[1, 1, 1]]},
         "repetitions": 3},
        {"generator": "grid", "grid": {"rows": [2], "cols": [2, 3],
                                       "variant": ["cram"]}},
        {"generator": "caterpillar", "grid": {"pins": [2, 3]},
         "engines": ["tree", "subset"]},
        {"generator": "lower-vc", "grid": {"k": [2]},
         "engines": ["vc"], "count_mode": true},
        {"generator": "lower-nd", "grid": {"k": [3], "s": [2]},
         "engines": ["nd"], "count_mode": true,
         "restrict_clique_edges": true}
      ]
    }

Each suite entry takes the cartesian product of its grid lists (keys in
sorted order). Random instances draw sequential seeds seed, seed+1, ...
in expansion order; "repetitions" repeats each random parameter combo.
Per-entry "engines", "turn", "count_mode" override the top level. A
field not named here is an error, and so is "repetitions" outside a
random entry.

Rows are sorted by instance id then engine, and the winners of all
successful solve rows for one instance must agree; a disagreement
aborts the run with diagnostics. Engine errors (wrong instance shape,
capacity) land in the row's status column instead of aborting.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from itertools import product
from typing import Optional

from .engines import ENGINE_NAMES, select_engine
# perfbench/spans.py traces cak.bench.pick_auto_engine by this name.
from .engines import pick_auto_engine  # noqa: F401
from .generators import GENERATORS, lower_nd_clique_vertices
from .graph import ColoredGraph, Player
from .params import min_vertex_cover, nd_partition


class BenchConsistencyError(RuntimeError):
    """Engines disagreed about a winner."""


@dataclass
class BenchRecord:
    instance: str
    generator_params: str
    engine: str
    n: int
    m: int
    tau: int
    nu: int
    winner: str
    node_expansions: int
    distinct_keys: int
    elapsed: str
    status: str


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


@dataclass
class _Task:
    instance: str
    params: str
    graph: ColoredGraph
    turn: Player
    engines: tuple[str, ...]
    count_mode: bool
    restrict_to: Optional[frozenset[int]]


# The fields a suite spec and each of its entries may have.
_SUITE_FIELDS = {"seed", "turn", "engines", "count_mode", "suites"}
_ENTRY_FIELDS = {
    "generator", "grid", "turn", "engines", "count_mode", "restrict_clique_edges", "repetitions"
}


def _fmt_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return ":".join(str(x) for x in v)
    return str(v)


def _field(obj: dict, name: str, kind: type, default, where: str):
    """obj[name], or default when absent; raises unless its type is
    exactly `kind`, so a JSON boolean is not an integer."""
    value = obj.get(name, default)
    if type(value) is not kind:
        json_type = {
            bool: "boolean", int: "integer", str: "string", list: "list", dict: "object"
        }[kind]
        raise ValueError(f"{where} field {name!r} must be a JSON {json_type}")
    return value


def _check_fields(obj: dict, allowed: set[str], where: str) -> None:
    """Rejects a field of obj outside allowed, so a misspelled field
    is an error instead of a silent default."""
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise ValueError(f"unknown {where} field {unknown[0]!r}")


def expand_suite(spec: dict) -> list[_Task]:
    if not isinstance(spec, dict):
        raise ValueError("suite spec must be a JSON object")
    _check_fields(spec, _SUITE_FIELDS, "suite")
    base_turn = Player.parse(_field(spec, "turn", str, "B", "suite"))
    base_engines = _field(spec, "engines", list, ["subset"], "suite")
    base_count_mode = _field(spec, "count_mode", bool, False, "suite")
    seed_counter = _field(spec, "seed", int, 0, "suite")
    tasks: list[_Task] = []
    for entry in _field(spec, "suites", list, [], "suite"):
        if not isinstance(entry, dict) or "generator" not in entry:
            raise ValueError('every suite entry must be an object with a "generator"')
        name = entry["generator"]
        if name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        _check_fields(entry, _ENTRY_FIELDS, "suite entry")
        fn, param_names = GENERATORS[name]
        grid = _field(entry, "grid", dict, {}, "suite entry")
        for key, values in grid.items():
            if key not in param_names or key == "seed":
                raise ValueError(f"generator {name!r} does not take parameter {key!r}")
            if not isinstance(values, list):
                raise ValueError(f"generator {name!r}: {key!r} must be a list of values")
        turn = Player.parse(_field(entry, "turn", str, base_turn.value, "suite entry"))
        engines = tuple(_field(entry, "engines", list, base_engines, "suite entry"))
        for eng in engines:
            if eng not in ENGINE_NAMES:
                raise ValueError(f"unknown engine {eng!r}")
        count_mode = _field(entry, "count_mode", bool, base_count_mode, "suite entry")
        restrict = _field(entry, "restrict_clique_edges", bool, False, "suite entry")
        if restrict and name != "lower-nd":
            raise ValueError("restrict_clique_edges only applies to lower-nd")
        keys = sorted(grid)
        combos = [dict(zip(keys, values)) for values in product(*(grid[k] for k in keys))]
        if "repetitions" in entry and name != "random":
            raise ValueError("repetitions only applies to random")
        repetitions = _field(entry, "repetitions", int, 1, "suite entry")
        for combo in combos:
            for _ in range(repetitions):
                params = dict(combo)
                if name == "random":
                    params.setdefault("weights", (1, 1, 1))
                    params["seed"] = seed_counter
                    seed_counter += 1
                if isinstance(params.get("weights"), list):
                    params["weights"] = tuple(params["weights"])
                try:
                    graph = fn(**params)
                except TypeError as exc:  # a value of the wrong JSON type
                    raise ValueError(f"generator {name!r} given {params}: {exc}") from None
                param_str = ",".join(f"{k}={_fmt_value(params[k])}" for k in sorted(params))
                restrict_to = (
                    lower_nd_clique_vertices(params["k"], params["s"]) if restrict else None
                )
                tasks.append(
                    _Task(
                        instance=f"{name}[{param_str}]",
                        params=param_str,
                        graph=graph,
                        turn=turn,
                        engines=engines,
                        count_mode=count_mode,
                        restrict_to=restrict_to,
                    )
                )
    return tasks


def _run_engine(task: _Task, engine: str):
    """Returns (winner string or '', stats)."""
    options = {} if task.restrict_to is None else {"restrict_to": task.restrict_to}
    _, fn = select_engine(engine, task.graph, task.count_mode, options=options)
    result = fn(task.graph, task.turn, **options)
    if task.count_mode:
        return "", result
    return result.winner.value, result.stats


def run_bench(spec: dict, timing: bool = False) -> list[BenchRecord]:
    records: list[BenchRecord] = []
    winners: dict[str, dict[str, str]] = {}
    for task in expand_suite(spec):
        g = task.graph
        tau = min_vertex_cover(g).size
        nu = nd_partition(g).count
        for engine in task.engines:
            winner, stats, status = "", None, "ok"
            try:
                winner, stats = _run_engine(task, engine)
            except ValueError as exc:
                status = f"error: {exc}"
            records.append(
                BenchRecord(
                    instance=task.instance,
                    generator_params=task.params,
                    engine=engine,
                    n=g.n,
                    m=g.m,
                    tau=tau,
                    nu=nu,
                    winner=winner,
                    node_expansions=stats.node_expansions if stats else 0,
                    distinct_keys=stats.distinct_keys if stats else 0,
                    elapsed=f"{stats.elapsed:.6f}" if (stats and timing) else "",
                    status=status,
                )
            )
            if winner:
                winners.setdefault(task.instance, {})[engine] = winner
    for instance, by_engine in winners.items():
        if len(set(by_engine.values())) > 1:
            detail = ", ".join(f"{e}->{w}" for e, w in sorted(by_engine.items()))
            raise BenchConsistencyError(
                f"winner disagreement on {instance}: {detail}"
            )
    records.sort(key=lambda r: (r.instance, r.engine))
    return records


def records_to_csv(records: list[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([getattr(rec, col) for col in CSV_COLUMNS])
    return buf.getvalue()
