"""One benchmark process: either the set-up step or one solving pass.

    worker.py setup --workload W --dir D
        Imports cak, generates the workload's instances and writes them as
        D/<id>.cak. Prints {"setup_s": ..., "probes": [...]}: the time
        from before the import to the last file written, and three probe
        times taken afterwards.

    worker.py pass --workload W --dir D --order i,j,... [--trace]
        Solves every instance once, in the given order, through
        cak.cli.main in this process, and prints one JSON object with the
        CLI outputs, per-instance times, wall and CPU seconds summed over
        the calls, the probe times taken before each call and after the
        last, and peak RSS. With --trace the calls into cak's layers are
        recorded as spans and per-layer metrics are added.

A pass is a fresh process so that nothing cached by one pass can serve
the next. run.py starts these processes; they are not meant to be run
by hand except for debugging.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import instances  # noqa: E402  (needs HERE on sys.path; does not import cak)


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not
    touch cak: a memoized search of the take-an-edge game on a 3x6 grid,
    run twice with the collector off. It measures how fast this machine
    runs Python at the moment, for scaling the times of cak's work."""

    def search(ems, memo, mask):
        hit = memo.get(mask)
        if hit is None:
            hit = any(mask & em == em and not search(ems, memo, mask & ~em) for em in ems)
            memo[mask] = hit
        return hit

    n, cols = 18, 6
    edges = [(v, v + 1) for v in range(n - 1) if (v + 1) % cols] + [(v, v + cols) for v in range(n - cols)]
    ems = [1 << u | 1 << v for u, v in edges]
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(2):
            search(ems, {}, (1 << n) - 1)
        return time.perf_counter() - t
    finally:
        gc.enable()


def _setup(workload: str, out_dir: str) -> dict:
    t0 = time.perf_counter()
    import cak  # noqa: F401  (the import is part of set-up time)

    os.makedirs(out_dir, exist_ok=True)
    for inst in instances.WORKLOADS[workload]:
        with open(os.path.join(out_dir, inst.id + ".cak"), "w") as fh:
            fh.write(instances.cak_text(inst))
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "probes": [probe() for _ in range(3)]}


def _call_cli(argv: list[str]):
    """(exit code, stdout text, stderr text) of one cak.cli.main call."""
    import cak.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cak.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash counts as a failed instance
            rc = 1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def _time_vc_keys(path: str, first: str) -> tuple[int, float]:
    """Time vc_canonical_key on the start position and every position one
    move away, with the minimum cover the engine would use."""
    from cak.engines import vc_canonical_key
    from cak.graph import Player, parse_graph
    from cak.params import min_vertex_cover

    with open(path, "rb") as fh:
        g = parse_graph(fh.read())
    cover = min_vertex_cover(g).vertices
    turn = Player.parse(first)
    masks = [g.alive] + [g.alive & ~(1 << u | 1 << v) for u, v, _ in g.edges]
    t = time.perf_counter()
    for mask in masks:
        vc_canonical_key(g, mask, cover, turn)
    return len(masks), time.perf_counter() - t


def _pass(workload: str, in_dir: str, order: list[int], trace: bool) -> dict:
    import cak.cli  # noqa: F401  (imported before timing starts)

    tracer = None
    if trace:
        from spans import Tracer, layer_metrics, self_times

        tracer = Tracer()
        tracer.install()
    insts = instances.WORKLOADS[workload]
    results = {}
    probes = []
    wall, cpu = 0.0, 0.0
    wall0 = time.perf_counter()
    for idx in order:
        inst = insts[idx]
        # Start each call from a collected heap, as a fresh `cak` process
        # would, so that garbage left by the previous instance is not
        # charged to this one.
        gc.collect()
        probes.append(probe())
        if tracer:
            tracer.instance = inst.id
        argv = instances.argv_for(inst, os.path.join(in_dir, inst.id + ".cak"))
        t, c = time.perf_counter(), time.process_time()
        rc, out, err = _call_cli(argv)
        seconds = time.perf_counter() - t
        wall, cpu = wall + seconds, cpu + time.process_time() - c
        results[inst.id] = {"rc": rc, "seconds": seconds, "stdout": out, "stderr": err}
    probes.append(probe())
    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if tracer:
        # Keys are timed below through cak's public functions, which are
        # still wrapped; their spans are the benchmark's work, not the pass's.
        spans = list(tracer.spans)
        vc_ids = {s.instance for s in spans if s.layer == "engines.vc"}
        calls, secs = 0, 0.0
        for inst in insts:
            if inst.id in vc_ids:
                c, s = _time_vc_keys(os.path.join(in_dir, inst.id + ".cak"), instances.first_player(inst))
                calls, secs = calls + c, secs + s
        report["layers"] = layer_metrics(spans, (calls, secs))
        own = self_times(spans)
        report["spans"] = [s.to_json(wall0, t) for s, t in zip(spans, own)]
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["setup", "pass"])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--order", default="")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        report = _setup(args.workload, args.dir)
    else:
        order = [int(i) for i in args.order.split(",")] if args.order else []
        report = _pass(args.workload, args.dir, order, args.trace)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
