"""Colored-graph model and the .cak file format.

A board is an undirected graph whose edges are gray, black, or white.
Player B may play gray and black edges, player W gray and white ones.
Playing an edge removes both of its endpoints together with every
incident edge; a player who cannot play loses.

Vertices are dense 0-based ids. Dead vertices are tracked with an alive
bitmask over the original vertex universe instead of reindexing, so all
positions of one game share vertex ids.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Optional, Union


DEFAULT_VERTEX_BUDGET = 5000
VERTEX_BUDGET_ENV = "CAK_MAX_VERTICES"


def vertex_budget() -> int:
    """Largest vertex count a file or generator may ask for:
    $CAK_MAX_VERTICES when set, else DEFAULT_VERTEX_BUDGET."""
    env = os.environ.get(VERTEX_BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{VERTEX_BUDGET_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_VERTEX_BUDGET


def bits(mask: int) -> list[int]:
    """Set bit positions of mask, lowest first."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


class Color(IntEnum):
    """Edge color.

    Integer values give the canonical order, with 0 for an absent edge:
    absent (0) < GRAY < BLACK < WHITE. color_masks() and the cover
    classes list their per-color masks in this order.
    """

    GRAY = 1
    BLACK = 2
    WHITE = 3

    @property
    def letter(self) -> str:
        return _LETTER_BY_COLOR[self]

    @classmethod
    def from_letter(cls, letter: str) -> "Color":
        try:
            return _COLOR_BY_LETTER[letter]
        except KeyError:
            raise ValueError(f"unknown color letter {letter!r}") from None


_LETTER_BY_COLOR = {Color.GRAY: "g", Color.BLACK: "b", Color.WHITE: "w"}
_COLOR_BY_LETTER = {"g": Color.GRAY, "b": Color.BLACK, "w": Color.WHITE}


class Player(Enum):
    B = "B"
    W = "W"

    @property
    def opponent(self) -> "Player":
        return Player.W if self is Player.B else Player.B

    def can_play(self, color: Color) -> bool:
        """Gray is shared; black belongs to B, white to W."""
        if color is Color.GRAY:
            return True
        return color is (Color.BLACK if self is Player.B else Color.WHITE)

    @classmethod
    def parse(cls, text: str) -> "Player":
        try:
            return cls(text.upper())
        except ValueError:
            raise ValueError(f"unknown player {text!r} (expected B or W)") from None


class ParseError(ValueError):
    """Raised on malformed .cak input; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VertexError(ValueError):
    """A ValueError that names vertices. The message is a str.format
    template with one {} per id in ids, so an interface with other ids
    can render them its own way; str() gives the 0-based library form."""

    def __init__(self, template: str, *ids: int):
        self.template = template
        self.ids = ids
        super().__init__(template.format(*ids))

    def one_based(self) -> str:
        return self.template.format(*(v + 1 for v in self.ids))


Edge = tuple[int, int, Color]


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable colored graph plus an alive-vertex bitmask.

    Edges are stored as (u, v, color) with u < v, sorted, and every
    endpoint of a stored edge must be alive.
    """

    n: int
    edges: tuple[Edge, ...]
    alive: Optional[int] = None
    _nbr: tuple = field(init=False, repr=False, compare=False)
    _by_color: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {self.n!r}")
        full = (1 << self.n) - 1
        alive = self.alive
        if alive is None:
            alive = full
        if not isinstance(alive, int) or alive < 0 or alive & ~full:
            raise ValueError("alive mask out of range for vertex universe")
        nbr = [0] * self.n
        by_color = [[0] * self.n for _ in Color]
        normalized = []
        for edge in self.edges:
            u, v, c = edge
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge endpoint out of range: {edge!r}")
            if u == v:
                raise ValueError(f"self-loop not allowed: {edge!r}")
            if u > v:
                u, v = v, u
            if nbr[u] >> v & 1:
                raise ValueError(f"duplicate edge {{{u}, {v}}}")
            if not alive >> u & 1 or not alive >> v & 1:
                raise ValueError(f"edge {{{u}, {v}}} has a dead endpoint")
            c = Color(c)
            for masks in (nbr, by_color[c - 1]):
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            normalized.append((u, v, c))
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "alive", alive)
        object.__setattr__(self, "_nbr", tuple(nbr))
        object.__setattr__(self, "_by_color", tuple(map(tuple, by_color)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def alive_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.alive >> v & 1]

    def color_of(self, u: int, v: int) -> Optional[Color]:
        """Color of edge {u, v}, or None when the pair is not adjacent."""
        if 0 <= u < self.n and 0 <= v < self.n:
            for color, masks in zip(Color, self._by_color):
                if masks[u] >> v & 1:
                    return color
        return None

    def neighbor_masks(self) -> tuple[int, ...]:
        """Bitmask of each vertex's neighbors over the stored edges."""
        return self._nbr

    def color_masks(self) -> tuple[tuple[int, ...], ...]:
        """neighbor_masks split by edge color, one tuple per Color in order."""
        return self._by_color

    def colors_present(self) -> set[Color]:
        return {c for _, _, c in self.edges}


def parse_graph(text: Union[str, bytes]) -> ColoredGraph:
    """Parse the .cak format.

    Format, one record per LF-terminated ASCII line:
        c <free text>          -- optional comments
        p cak <n> <m>          -- exactly one header, before all edges
        e <u> <v> <color>      -- m lines, 1-based endpoints, color g|b|w

    Raises ParseError (with line number) on malformed input, duplicate
    edges, self-loops, out-of-range vertex ids, unknown colors, or a
    vertex count over vertex_budget().
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not ASCII: {exc}") from None
    n = None
    declared_m = 0
    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise ParseError("second header line", lineno)
            if len(fields) != 4 or fields[1] != "cak":
                raise ParseError(f"bad header {raw!r} (expected 'p cak <n> <m>')", lineno)
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"non-integer counts in header {raw!r}", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative counts in header", lineno)
            limit = vertex_budget()
            if n > limit:
                raise ParseError(
                    f"n={n} vertices is over the budget of {limit}"
                    f" (raise {VERTEX_BUDGET_ENV} to allow it)",
                    lineno,
                )
        elif kind == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            if len(fields) != 4:
                raise ParseError(f"bad edge line {raw!r} (expected 'e <u> <v> <color>')", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"non-integer endpoint in {raw!r}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range 1..{n} in {raw!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop in {raw!r}", lineno)
            try:
                color = Color.from_letter(fields[3])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            u, v = u - 1, v - 1
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ParseError(f"duplicate edge {{{u + 1}, {v + 1}}}", lineno)
            seen.add((u, v))
            edges.append((u, v, color))
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if n is None:
        raise ParseError("missing 'p cak' header")
    if len(edges) != declared_m:
        raise ParseError(f"header declares {declared_m} edges, found {len(edges)}")
    return ColoredGraph(n, tuple(edges))


def serialize_graph(g: ColoredGraph) -> str:
    """Inverse of parse_graph, edges emitted sorted, 1-based, LF lines.

    The format carries no aliveness, so only fully-alive graphs round-trip
    exactly; serializing a position keeps its universe and live edges.
    """
    lines = [f"p cak {g.n} {g.m}"]
    for u, v, c in g.edges:
        lines.append(f"e {u + 1} {v + 1} {c.letter}")
    return "\n".join(lines) + "\n"


def remove_closed_edge(g: ColoredGraph, edge: tuple[int, int]) -> ColoredGraph:
    """Play edge {u, v}: both endpoints die, incident edges vanish.

    Returns a graph over the same vertex universe with u and v marked
    dead; no other change.
    """
    u, v = edge
    if u > v:
        u, v = v, u
    if g.color_of(u, v) is None:
        raise ValueError(f"edge {{{u}, {v}}} not present")
    return induced_mask(g, g.alive & ~(1 << u | 1 << v))


def resolve_alive(g: ColoredGraph, alive: Optional[int]) -> int:
    """The alive mask of a position of g: g.alive when alive is None,
    else alive, which must be an int mask of vertices alive in g."""
    if alive is None:
        return g.alive
    if not isinstance(alive, int) or alive < 0 or alive & ~g.alive:
        raise ValueError("alive mask must be a subset of the graph's live vertices")
    return alive


def induced_mask(g: ColoredGraph, mask: int) -> ColoredGraph:
    """Position of g restricted to the alive vertices in mask."""
    mask = resolve_alive(g, mask)
    kept = tuple(e for e in g.edges if mask >> e[0] & 1 and mask >> e[1] & 1)
    return ColoredGraph(g.n, kept, mask)
