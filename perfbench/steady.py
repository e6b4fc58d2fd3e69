"""Steadiness check: repeat run.py and summarise the spread of every metric.

    python3 perfbench/steady.py run --runs 10 --first-seed 1 --out a.json
    python3 perfbench/steady.py run --runs 1                # one table of every metric
    python3 perfbench/steady.py compare a.json b.json

`run` executes run.py once per (seed, workload) for every workload of
BENCHMARK.json, for run_seconds each, seeds first-seed, first-seed+1,
..., interleaving workloads so that slow phases of a shared machine hit
all of them. It prints, per workload and metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, and the
error rate over all solves. A count that differs between runs is marked
DRIFT and makes `run` exit 1. `compare` prints, per metric, how far the
second set's median moved from the first's, as a share of the first,
against the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _declared(bench: dict, trace: int) -> dict:
    return {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _run(args) -> int:
    bench = _benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
                return 1
            line = json.loads(proc.stdout.splitlines()[-1])
            results[w].append({"seed": seed, **line})
            print(f"{w} seed {seed}: correct={line['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)
    drift = _summarise(results, _declared(bench, args.trace))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"trace": args.trace, "seconds": seconds, "results": results}, fh, indent=1)
    return 1 if drift else 0


def _summarise(results: dict, declared: dict) -> int:
    """Print the table; return how many counts differ between runs."""
    drift = 0
    for w, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n== {w}: {len(runs)} runs, error_rate {failed / attempted:.4f} "
              f"({failed} of {attempted} solves)")
        print(f"{'metric':28s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name, decl in declared.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = decl.get("bound")
            flag = ""
            if bound is not None:
                flag = "OVER" if spread > bound else ("ok" if spread < bound / 3 else "wide")
            elif decl["unit"] == "count" and len(set(values)) > 1:
                flag = "DRIFT"
                drift += 1
            bound_text = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"{name:28s} {decl['unit']:6s} {med:14.6f} {q1:14.6f} {q3:14.6f} {spread:8.4f} {bound_text} {flag}")
    return drift


def _compare(args) -> int:
    with open(args.first) as fh:
        a = json.load(fh)
    with open(args.second) as fh:
        b = json.load(fh)
    declared = _declared(_benchmark(), a["trace"])
    worst = 0
    for w in a["results"]:
        if w not in b["results"]:
            continue
        print(f"\n== {w}")
        for name, decl in declared.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a["results"][w])
            mb = statistics.median(r["metrics"][name]["value"] for r in b["results"][w])
            if not ma:
                print(f"{name:28s} {ma:14.6f} -> {mb:14.6f}")
                continue
            worse = (mb - ma) / ma if decl["better"] == "lower" else (ma - mb) / ma
            bound = decl.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "WORSE" if worse > bound else "ok"
                worst += worse > bound
            print(f"{name:28s} {ma:14.6f} -> {mb:14.6f}  worse by {worse:+.4f}  bound {bound}  {verdict}")
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    p.set_defaults(func=_run)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
