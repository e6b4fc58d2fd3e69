"""Record expected.json: every instance's input hash and expected answer.

    python3 perfbench/record.py            # check, time and write expected.json

Each instance is generated, written, solved once through cak.cli.main,
and its answer is cross-checked against a source independent of the
engine that produced it, where one exists:

- Cram: even x even boards are second-player wins and even x odd boards
  first-player wins (the first player takes the two central squares and
  then mirrors through the centre; on even x even the second player
  mirrors).
- Caterpillars are Kayles rows (octal game 0.77) and gray paths are
  Dawson's Kayles (0.07); their Grundy values come from the octal-game
  DP below, and a winning move must leave a position of value 0.
- vc, nd and gray-tree instances are solved again with solve_subset and
  a raised max_n; the winner must agree, and the winning move must leave
  a position the opponent loses.

Domineering, Cram 3x7 and count-mode statistics have no independent
source here; their recorded values are the output of this commit.
"""

from __future__ import annotations

import io
import contextlib
import hashlib
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import instances  # noqa: E402
from cak import cli  # noqa: E402
from cak.engines import solve_subset  # noqa: E402
from cak.graph import Player, remove_closed_edge  # noqa: E402

PARAMS_FIELDS = ("n", "m", "colors", "tau", "nu", "module_sizes")


def octal_grundy(n: int, takes: tuple[int, ...]) -> list[int]:
    """Grundy values of rows of 0..n pins in an octal game whose moves
    remove k adjacent pins, k in takes, from anywhere in one row (leaving
    zero, one or two rows): 0.77 (Kayles) is (1, 2), 0.07 (Dawson's
    Kayles) is (2,)."""
    g = [0] * (n + 1)
    for size in range(1, n + 1):
        seen = {g[a] ^ g[size - k - a] for k in takes for a in range(size - k + 1)}
        value = 0
        while value in seen:
            value += 1
        g[size] = value
    return g


KAYLES = (1, 2)
DAWSON = (2,)


def _runs(alive: list[bool]) -> list[int]:
    runs, current = [], 0
    for up in alive + [False]:
        if up:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    return runs


def _nim_sum(values) -> int:
    total = 0
    for v in values:
        total ^= v
    return total


def _oracle(inst, g, out) -> str:
    """'' when out agrees with the independent source, else the disagreement."""
    p = inst.params
    if "--count-mode" in inst.argv or inst.argv[0] == "params":
        return ""
    first = Player.parse(instances.first_player(inst))
    if inst.generator == "grid" and p["variant"] == "cram" and (p["rows"] * p["cols"]) % 2 == 0:
        both_even = p["rows"] % 2 == 0 and p["cols"] % 2 == 0
        want = first.opponent if both_even else first
        return "" if out["winner"] == want.value else f"Cram symmetry says {want.value}"
    if inst.generator == "gray-path":
        want = octal_grundy(p["n"], DAWSON)[p["n"]]
        return "" if out["grundy"] == want else f"Dawson's Kayles says {want}"
    if inst.generator == "caterpillar":
        pins = p["pins"]
        table = octal_grundy(pins, KAYLES)
        if (out["winner"] == first.value) != (table[pins] != 0):
            return f"Kayles value {table[pins]} disagrees with winner {out['winner']}"
        if out["winning_move"]:
            u, v = sorted(x - 1 for x in out["winning_move"])
            knocked = {u, v} if v < pins else {u}
            alive = [i not in knocked for i in range(pins)]
            if _nim_sum(table[r] for r in _runs(alive)):
                return "winning move leaves a Kayles position of nonzero value"
        return ""
    if inst.generator in ("small-cover", "lower-vc", "lower-nd", "twin-blowup", "gray-tree"):
        truth = solve_subset(g, first, max_n=g.n)
        if truth.winner.value != out["winner"]:
            return f"solve_subset says {truth.winner.value}"
        if out["winning_move"]:
            u, v = (x - 1 for x in out["winning_move"])
            child = solve_subset(remove_closed_edge(g, (u, v)), first.opponent, max_n=g.n)
            if child.winner is not first:
                return "winning move does not leave a lost position (solve_subset)"
        return ""
    return ""


def _expect(inst, out) -> dict:
    if inst.argv[0] == "params":
        return {k: out[k] for k in PARAMS_FIELDS}
    if inst.argv[0] == "grundy":
        return {"grundy": out["grundy"]}
    if "--count-mode" in inst.argv:
        return {"stats": out["stats"]}
    return {"winner": out["winner"], "winning_move": out["winning_move"]}


def main() -> int:
    recorded = {}
    problems = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload, insts in instances.WORKLOADS.items():
            recorded[workload] = {}
            for inst in insts:
                text = instances.cak_text(inst)
                path = os.path.join(tmp, inst.id + ".cak")
                with open(path, "w") as fh:
                    fh.write(text)
                buf = io.StringIO()
                t = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(instances.argv_for(inst, path))
                seconds = time.perf_counter() - t
                if rc != 0:
                    print(f"{workload}/{inst.id}: exit code {rc}")
                    problems += 1
                    continue
                out = json.loads(buf.getvalue())
                g = instances.build(inst)
                why = _oracle(inst, g, out)
                if why:
                    print(f"{workload}/{inst.id}: {why}")
                    problems += 1
                recorded[workload][inst.id] = {
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                    "expect": _expect(inst, out),
                }
                print(f"{workload:8s} {inst.id:22s} n={g.n:<4d} m={g.m:<5d} {seconds:8.3f} s  "
                      f"{json.dumps(recorded[workload][inst.id]['expect'])}")
    if problems:
        print(f"{problems} problem(s); expected.json not written")
        return 1
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
