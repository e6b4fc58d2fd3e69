"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds src/cak. The load is closed
loop: one client, one instance at a time, in one process per pass.

1. Set-up runs SETUP_REPS times, each in a fresh process that imports
   cak and writes the workload's .cak files into .perfbench_work/<workload>/.
   The files' sha256 must match expected.json.
2. Passes follow until --seconds have been spent (at least MIN_PASSES).
   Each pass is a fresh process that solves every instance once through
   cak.cli.main, in an order shuffled from --seed. Every output is
   checked against expected.json.
3. With --trace 0 the end-to-end metrics of BENCHMARK.json are reported;
   with --trace 1 untraced and traced passes alternate, the per-layer
   metrics are reported, and the spans of the last traced pass, their
   self times and the tracing overhead are written to
   .perfbench_work/<workload>/trace-seed<seed>.json.

Times are reported in reference seconds: each worker also times a fixed
pure-Python probe (worker.probe) and its measured seconds are scaled by
PROBE_REF_S / (median probe time of that worker). The probe does not
use cak, so a change to cak does not move it, while a slow phase of a
shared machine slows both alike. The measured (unscaled) medians are
printed as well. See README.md for the measured effect on spread.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 9
# The fewest passes a 25-second run makes on grid, the slowest workload.
MIN_PASSES = 7
WORKER_TIMEOUT_S = 150
# Probe time that defines a reference second: 10 ms for worker.probe().
PROBE_REF_S = 0.01

sys.path.insert(0, HERE)

import instances  # noqa: E402  (does not import cak)
from spans import PER_LAYER, unit_of  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
        env=env,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def scale(report: dict) -> float:
    """Reference seconds per measured second in one worker process."""
    return PROBE_REF_S / statistics.median(report["probes"])


def _scaled(value: float, unit: str, factor: float) -> float:
    if unit in ("s", "us"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tail_level(instances_per_pass: int) -> int:
    """Highest whole percentile with at least ten samples beyond it in a
    run of MIN_PASSES passes; fixed per workload so that every run
    reports the same percentile."""
    samples = instances_per_pass * MIN_PASSES
    return max(p for p in range(50, 100) if samples * (100 - p) >= 1000)


def check(result: dict, expect: dict) -> str:
    """'' when the CLI call matches the expected answer, else why not."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr'].strip()}"
    try:
        out = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return "output is not JSON"
    wrong = [k for k, v in expect.items() if out.get(k) != v]
    return f"differs in {', '.join(wrong)}" if wrong else ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "cak", "__init__.py")):
        print(f"error: no cak package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    if args.workload not in instances.WORKLOADS or args.workload not in expected:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ids = [inst.id for inst in instances.WORKLOADS[args.workload]]
    cases = expected[args.workload]
    if sorted(ids) != sorted(cases):
        print("error: expected.json does not list this workload's instances", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, args.workload)

    try:
        setups = [_worker(["setup", "--workload", args.workload, "--dir", work_dir]) for _ in range(SETUP_REPS)]
        bad_input = {i for i in ids if _sha256(os.path.join(work_dir, i + ".cak")) != cases[i]["sha256"]}
        for i in sorted(bad_input):
            print(f"input changed: {i}.cak does not match its recorded sha256")

        rng = random.Random(args.seed)
        passes, traced = [], []
        attempted = failed = 0
        started = time.perf_counter()
        while True:
            trace_this = bool(args.trace) and len(passes) > len(traced)
            order = rng.sample(range(len(ids)), len(ids))
            argv = ["pass", "--workload", args.workload, "--dir", work_dir]
            argv += ["--order", ",".join(map(str, order))] + ["--trace"] * trace_this
            report = _worker(argv)
            for i, result in report["results"].items():
                attempted += 1
                why = "input changed" if i in bad_input else check(result, cases[i]["expect"])
                if why:
                    failed += 1
                    print(f"wrong: {i}: {why}")
            (traced if trace_this else passes).append(report)
            elapsed = time.perf_counter() - started
            done = len(passes) + len(traced)
            if done >= MIN_PASSES and elapsed * (done + 1) / done > args.seconds:
                break
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: {len(ids)} instances, seed {args.seed}, "
          f"{len(passes)} untraced and {len(traced)} traced passes, set-up x{SETUP_REPS}")
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} solves)")
    print(f"measured, unscaled: wall_s {statistics.median(p['wall_s'] for p in passes):.6f} s, "
          f"setup_s {statistics.median(s['setup_s'] for s in setups):.6f} s; "
          f"reference seconds per measured second {statistics.median(scale(p) for p in passes):.4f}")
    if args.trace:
        metrics = {}
        for m in PER_LAYER:
            unit = unit_of(m)
            values = [_scaled(r["layers"][m], unit, scale(r)) for r in traced]
            if unit == "count" and len(set(values)) > 1:
                failed += 1
                print(f"wrong: {m} differs between traced passes: {values}")
            metrics[m] = {"value": values[0] if unit == "count" else statistics.median(values), "unit": unit}
        untraced_wall = statistics.median(r["wall_s"] * scale(r) for r in passes)
        traced_wall = statistics.median(r["wall_s"] * scale(r) for r in traced)
        _write_trace(args, work_dir, traced[-1], untraced_wall, traced_wall)
        print(f"tracing overhead {traced_wall - untraced_wall:.4f} s "
              f"(traced wall {traced_wall:.4f} s, untraced {untraced_wall:.4f} s)")
    else:
        samples = [r["seconds"] * scale(p) for p in passes for r in p["results"].values()]
        level = tail_level(len(ids))
        values = {
            "wall_s": statistics.median(p["wall_s"] * scale(p) for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] * scale(p) for p in passes),
            "solve_p50_s": statistics.median(samples),
            "solve_tail_s": statistics.quantiles(samples, n=100, method="inclusive")[level - 1],
            "setup_s": statistics.median(s["setup_s"] * scale(s) for s in setups),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}
        beyond = sum(s > values["solve_tail_s"] for s in samples)
        print(f"solve_tail_s is p{level} of {len(samples)} per-instance samples ({beyond} beyond it)")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _write_trace(args, work_dir: str, report: dict, untraced_wall: float, traced_wall: float) -> None:
    self_by_name: dict[str, float] = {}
    for s in report["spans"]:
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + s["self"]
    path = os.path.join(work_dir, f"trace-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "overhead_s": traced_wall - untraced_wall,
            "reference_seconds_per_span_second": scale(report),
            "self_s_by_span": self_by_name,
            "spans": report["spans"],
        }, fh, indent=1)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
