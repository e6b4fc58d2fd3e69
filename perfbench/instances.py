"""Workload definitions and the benchmark's own instance generators.

Every instance is pinned: its generator, parameters and generator seed
are fixed here, and `expected.json` records the sha256 of the `.cak`
file it produces and the answer the solver must give. The run seed
(`--seed`) only shuffles the order in which a pass solves the
instances; see README.md for why instance content is not drawn from it.

This module must import cheaply and import `cak` lazily, because the
set-up step times the import of `cak` itself.
"""

from __future__ import annotations

from typing import NamedTuple


class Instance(NamedTuple):
    id: str
    generator: str
    params: dict
    argv: tuple  # CLI arguments around "-f <file>": (command, *flags)


def _solve(*flags):
    return ("solve", *flags)


# Seeds of the random families were chosen by measured solve time (see
# README.md): neighbouring seeds of one family differ in cost by up to 50x.
WORKLOADS: dict[str, tuple[Instance, ...]] = {
    "grid": (
        Instance("cram-4x5", "grid", {"rows": 4, "cols": 5, "variant": "cram"}, _solve()),
        Instance("cram-4x6", "grid", {"rows": 4, "cols": 6, "variant": "cram"}, _solve()),
        Instance("cram-3x7", "grid", {"rows": 3, "cols": 7, "variant": "cram"}, _solve()),
        *(
            Instance(
                f"dom-{r}x{c}-{first}",
                "grid",
                {"rows": r, "cols": c, "variant": "domineering"},
                _solve("--first", first),
            )
            for r, c in ((4, 5), (4, 6), (5, 5), (3, 8))
            for first in ("B", "W")
        ),
    ),
    "cover": (
        Instance("cover-n30-k7-a", "small-cover", {"n": 30, "k": 7, "seed": 1307}, _solve()),
        Instance("cover-n30-k7-b", "small-cover", {"n": 30, "k": 7, "seed": 307}, _solve()),
        Instance("cover-n40-k6", "small-cover", {"n": 40, "k": 6, "seed": 2406}, _solve()),
        Instance("cover-n30-k8", "small-cover", {"n": 30, "k": 8, "seed": 1308}, _solve()),
        Instance("cover-n50-k8", "small-cover", {"n": 50, "k": 8, "seed": 1508}, _solve()),
        Instance("cover-n50-k6", "small-cover", {"n": 50, "k": 6, "seed": 506}, _solve()),
        Instance("lower-vc-4-count", "lower-vc", {"k": 4}, _solve("-e", "vc", "--count-mode")),
        Instance("params-n200-k6", "small-cover", {"n": 200, "k": 6, "seed": 206}, ("params",)),
        Instance("params-n250-k6", "small-cover", {"n": 250, "k": 6, "seed": 256}, ("params",)),
    ),
    "forest": (
        Instance("caterpillar-20", "caterpillar", {"pins": 20}, _solve()),
        Instance("caterpillar-30", "caterpillar", {"pins": 30}, _solve()),
        Instance("caterpillar-40", "caterpillar", {"pins": 40}, _solve()),
        Instance("gray-tree-25", "gray-tree", {"n": 25, "seed": 2501}, _solve()),
        Instance("gray-tree-28", "gray-tree", {"n": 28, "seed": 2801}, _solve()),
        Instance("gray-tree-30", "gray-tree", {"n": 30, "seed": 3002}, _solve()),
        Instance("gray-path-40", "gray-path", {"n": 40}, ("grundy",)),
        Instance("gray-path-60", "gray-path", {"n": 60}, ("grundy",)),
        Instance("gray-path-80", "gray-path", {"n": 80}, ("grundy",)),
    ),
    "modules": (
        Instance("lower-nd-7-2", "lower-nd", {"k": 7, "s": 2}, _solve("-e", "nd")),
        Instance("lower-nd-3-8", "lower-nd", {"k": 3, "s": 8}, _solve("-e", "nd")),
        Instance("lower-nd-3-8-count", "lower-nd", {"k": 3, "s": 8}, _solve("-e", "nd", "--count-mode")),
        Instance("lower-nd-7-1-count", "lower-nd", {"k": 7, "s": 1}, _solve("-e", "nd", "--count-mode")),
        Instance("twins-m10", "twin-blowup", {"modules": 10, "p": 25, "seed": 1003}, _solve("-e", "nd")),
        Instance("twins-m9", "twin-blowup", {"modules": 9, "p": 40, "seed": 903}, _solve("-e", "nd")),
        Instance("twins-m8-count", "twin-blowup", {"modules": 8, "p": 30, "seed": 803}, _solve("-e", "nd", "--count-mode")),
        Instance("twins-m8-count-b", "twin-blowup", {"modules": 8, "p": 30, "seed": 801}, _solve("-e", "nd", "--count-mode")),
        Instance("twins-m7-count", "twin-blowup", {"modules": 7, "p": 40, "seed": 702}, _solve("-e", "nd", "--count-mode")),
    ),
}


def small_cover(n: int, k: int, seed: int):
    """Colored graph whose vertices 0..k-1 cover every edge.

    Cover pairs are joined with probability 30 %, and each other vertex
    meets each cover vertex with probability 35 %; edge colors are
    uniform over gray, black and white. The minimum cover can be smaller
    than k; expected.json records the instance, not the bound.
    """
    from cak.generators import SplitMix64
    from cak.graph import Color, ColoredGraph

    colors = (Color.GRAY, Color.BLACK, Color.WHITE)
    rng = SplitMix64(seed)
    edges = []
    for u in range(k):
        for v in range(u + 1, k):
            if rng.below(100) < 30:
                edges.append((u, v, colors[rng.below(3)]))
    for x in range(k, n):
        for u in range(k):
            if rng.below(100) < 35:
                edges.append((u, x, colors[rng.below(3)]))
    return ColoredGraph(n, tuple(edges))


def twin_blowup(modules: int, p: int, seed: int):
    """Blow-up of a random colored quotient graph into twin modules.

    Each module has 3 or 4 vertices and is either independent
    or a clique of one color; each module pair is joined completely in
    one color with probability p %, else not at all. Members of a module
    are therefore colored twins.
    """
    from cak.generators import SplitMix64
    from cak.graph import Color, ColoredGraph

    colors = (Color.GRAY, Color.BLACK, Color.WHITE)
    rng = SplitMix64(seed)
    blocks = []
    n = 0
    for _ in range(modules):
        size = 3 + rng.below(2)
        blocks.append(range(n, n + size))
        n += size
    edges = []
    for block in blocks:
        inside = rng.below(4)  # 0: independent, else the clique's color
        if inside:
            edges += [(a, b, colors[inside - 1]) for a in block for b in block if a < b]
    for i, left in enumerate(blocks):
        for right in blocks[i + 1 :]:
            if rng.below(100) < p:
                c = colors[rng.below(3)]
                edges += [(a, b, c) for a in left for b in right]
    return ColoredGraph(n, tuple(edges))


def gray_tree(n: int, seed: int):
    """Random recursive tree: vertex v > 0 hangs off a uniform earlier vertex."""
    from cak.generators import SplitMix64
    from cak.graph import Color, ColoredGraph

    rng = SplitMix64(seed)
    return ColoredGraph(n, tuple((rng.below(v), v, Color.GRAY) for v in range(1, n)))


def gray_path(n: int):
    from cak.graph import Color, ColoredGraph

    return ColoredGraph(n, tuple((v, v + 1, Color.GRAY) for v in range(n - 1)))


def build(inst: Instance):
    """The instance's graph."""
    from cak import generators

    makers = {
        "grid": generators.gen_grid,
        "caterpillar": generators.gen_caterpillar_kayles,
        "lower-vc": generators.gen_lower_vc,
        "lower-nd": generators.gen_lower_nd,
        "small-cover": small_cover,
        "twin-blowup": twin_blowup,
        "gray-tree": gray_tree,
        "gray-path": gray_path,
    }
    return makers[inst.generator](**inst.params)


def cak_text(inst: Instance) -> str:
    """The exact bytes written to the instance's .cak file."""
    from cak.graph import serialize_graph

    params = " ".join(f"{k}={v}" for k, v in inst.params.items())
    return f"c perfbench {inst.id} {inst.generator} {params}\n" + serialize_graph(build(inst))


def first_player(inst: Instance) -> str:
    """The player to move, "B" unless the instance passes --first."""
    argv = inst.argv
    return argv[argv.index("--first") + 1] if "--first" in argv else "B"


def argv_for(inst: Instance, path: str) -> list[str]:
    command, *flags = inst.argv
    return [command, "-f", path, *flags]
