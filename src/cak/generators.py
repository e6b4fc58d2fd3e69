"""Instance generators.

Grids give Cram and Domineering boards, caterpillars encode classic
Kayles rows, gen_random draws reproducible colored graphs, and the two
"lower" families are hard instances tailored to stress the state space
of the cover-keyed and module-keyed engines.
"""

from __future__ import annotations

from .graph import VERTEX_BUDGET_ENV, Color, ColoredGraph, vertex_budget


def _check_budget(what: str, n: int) -> None:
    """Refuse an instance when n, its vertex count or a lower bound of it, is over vertex_budget()."""
    limit = vertex_budget()
    if n > limit:
        raise ValueError(
            f"{what} is over the budget of {limit} vertices (raise {VERTEX_BUDGET_ENV} to allow it)"
        )


class SplitMix64:
    """SplitMix64: a tiny, fully specified 64-bit PRNG.

    State advances by the odd constant 0x9E3779B97F4A7C15 mod 2^64 and
    each output runs the finalizer
        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31
    (all arithmetic mod 2^64). Implemented inline, rather than through a
    library RNG, so generated instances are bit-reproducible from the
    seed alone in any language.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def gen_grid(rows: int, cols: int, variant: str = "cram") -> ColoredGraph:
    """rows x cols board graph; vertex at (r, c) has id r*cols + c.

    cram: every edge gray (both players place dominoes anywhere).
    domineering: vertical edges black (B), horizontal edges white (W).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows >= 1 and cols >= 1")
    if variant not in ("cram", "domineering"):
        raise ValueError(f"unknown variant {variant!r} (expected cram or domineering)")
    _check_budget(f"grid rows={rows} cols={cols}", rows * cols)
    dom = variant == "domineering"
    horizontal = Color.WHITE if dom else Color.GRAY
    vertical = Color.BLACK if dom else Color.GRAY
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, horizontal))
            if r + 1 < rows:
                edges.append((v, v + cols, vertical))
    return ColoredGraph(rows * cols, tuple(edges))


def gen_caterpillar_kayles(pins: int) -> ColoredGraph:
    """Caterpillar encoding a Kayles row: gray spine of `pins` vertices,
    one gray leg per spine vertex. Playing leg i knocks down pin i alone;
    playing spine edge (i, i+1) knocks down the adjacent pair."""
    if pins < 1:
        raise ValueError("pins must be >= 1")
    _check_budget(f"caterpillar pins={pins}", 2 * pins)
    edges = []
    for i in range(pins - 1):
        edges.append((i, i + 1, Color.GRAY))
    for i in range(pins):
        edges.append((i, pins + i, Color.GRAY))
    return ColoredGraph(2 * pins, tuple(edges))


def gen_lower_vc(k: int) -> ColoredGraph:
    """Hard family for cover-keyed search, parameterized by cover size k.

    Layout (k = 2 or a multiple of 4):
      u_1..u_{k/2}   ids 0..k/2-1
      v_1..v_{k/2}   ids k/2..k-1
      x_{i,p}        id  k + (i-1)*4^{k/2} + p, for slot i in 1..k/2 and
                     pattern p in 0..4^{k/2}-1

    Pattern p is read in base 4, digit j in {0,1,2,3} meaning
    {absent, gray, black, white} for the pair {x_{i,p}, u_{j+1}}; every
    x vertex in a slot therefore realizes a distinct connection pattern
    to U. Edge {v_i, x_{i,p}} is black for i <= max(1, k//4) and white
    for the remaining slots, so both players must spend moves on V.
    U+V is a vertex cover of size k, and a count-mode cover-keyed search
    must visit at least 2^(k^2/2) recursion nodes.

    n = k + 4^{k/2} * k/2 grows fast; generation refuses instances whose
    vertex count exceeds vertex_budget() ($CAK_MAX_VERTICES, else 5000).
    """
    if not (k == 2 or (k >= 4 and k % 4 == 0)):
        raise ValueError(f"k must be 2 or a multiple of 4, got {k}")
    half = k // 2
    # Past the budget's bit length, 4 ** half alone is over it: never take that power.
    patterns = 4 ** min(half, vertex_budget().bit_length())
    n = k + patterns * half
    _check_budget(f"lower-vc k={k}", n)
    black_slots = max(1, k // 4)
    digit_color = {1: Color.GRAY, 2: Color.BLACK, 3: Color.WHITE}
    edges = []
    for i in range(1, half + 1):
        v_i = half + (i - 1)
        side = Color.BLACK if i <= black_slots else Color.WHITE
        for p in range(patterns):
            x = k + (i - 1) * patterns + p
            edges.append((v_i, x, side))
            rest = p
            for j in range(half):
                digit = rest % 4
                rest //= 4
                if digit:
                    edges.append((j, x, digit_color[digit]))
    return ColoredGraph(n, tuple(edges))


def gen_lower_nd(k: int, s: int) -> ColoredGraph:
    """Hard family for module-keyed search: k cliques of s vertices that
    together form one big clique, distinguished by attachment vertices.

    Requires k + 1 to be a power of two; let L = log2(k+1). Layout:
      clique C_j  ids (j-1)*s .. j*s-1, for j in 1..k
      x_i         id  s*k + i - 1, for i in 1..L
      pendants    i-1 leaves per x_i, ids following the x block

    All edges gray: the union of cliques is a single clique of size s*k,
    x_i is adjacent to every vertex of C_j exactly when bit i-1 of j is
    set, and each pendant hangs off its x_i. n = s*k + L*(L+1)/2.

    Restricting play to edges inside the clique union reaches at least
    (s+1)^k / 2 distinct module-count positions.
    """
    if k < 1 or (k + 1) & k:
        raise ValueError(f"k + 1 must be a power of two, got k={k}")
    if s < 1:
        raise ValueError("s must be >= 1")
    ell = (k + 1).bit_length() - 1
    n = s * k + ell * (ell + 1) // 2
    _check_budget(f"lower-nd k={k} s={s}", n)
    clique = list(range(s * k))
    edges = [(a, b, Color.GRAY) for i, a in enumerate(clique) for b in clique[i + 1 :]]
    pendant = s * k + ell
    for i in range(1, ell + 1):
        x = s * k + i - 1
        for j in range(1, k + 1):
            if j >> (i - 1) & 1:
                for v in range((j - 1) * s, j * s):
                    edges.append((v, x, Color.GRAY))
        for _ in range(i - 1):
            edges.append((x, pendant, Color.GRAY))
            pendant += 1
    return ColoredGraph(n, tuple(edges))


def lower_nd_clique_vertices(k: int, s: int) -> frozenset[int]:
    """Vertices of the clique union in gen_lower_nd's layout."""
    return frozenset(range(s * k))


def gen_random(
    n: int,
    p: float,
    weights: tuple[int, int, int] = (1, 1, 1),
    seed: int = 0,
) -> ColoredGraph:
    """Seeded random colored graph, reproducible bit for bit.

    Procedure: walk unordered pairs (u, v) with u < v in lexicographic
    order; draw one SplitMix64 word per pair and keep the pair when the
    word is below floor(p * 2^64); for each kept pair draw a second word
    w and color gray / black / white according to the integer weights
    (wg, wb, ww): gray if w mod (wg+wb+ww) < wg, black if < wg+wb, else
    white.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    wg, wb, ww = weights
    if min(wg, wb, ww) < 0 or wg + wb + ww <= 0:
        raise ValueError("weights must be nonnegative integers, not all zero")
    _check_budget(f"random n={n}", n)
    total = wg + wb + ww
    threshold = int(p * (1 << 64))
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_u64() < threshold:
                w = rng.below(total)
                if w < wg:
                    c = Color.GRAY
                elif w < wg + wb:
                    c = Color.BLACK
                else:
                    c = Color.WHITE
                edges.append((u, v, c))
    return ColoredGraph(n, tuple(edges))


# Generator name (as in `cak gen` and bench suites) -> (function, parameters).
GENERATORS = {
    "grid": (gen_grid, ("rows", "cols", "variant")),
    "caterpillar": (gen_caterpillar_kayles, ("pins",)),
    "lower-vc": (gen_lower_vc, ("k",)),
    "lower-nd": (gen_lower_nd, ("k", "s")),
    "random": (gen_random, ("n", "p", "weights", "seed")),
}
