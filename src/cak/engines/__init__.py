"""Winner-determination engines and the registry that names them.

naive   exhaustive recursion, no memo (the reference oracle)
subset  nd on the one-vertex partition: the alive-mask search, no merging
vc      memo on cover-class keys, moves thinned to representatives
nd      memo on the alive mask; each module's survivors are its highest
        members, so the mask is canonical
tree    Sprague-Grundy on gray forests, canonical-form memo
auto    tree, vc if tau <= VC_THRESHOLD, nd if n - nu >= ND_MIN_MERGED, else subset

vc and nd share one memoized search (common.search) and differ only in
their candidate moves, edge masks whose (u, v) the root reads off the
winning one; subset is nd's search, every module one vertex. Each hands
the search a builder for its set-up, which the search times as part of
elapsed. The search keys a position on its alive mask; vc alone
supplies a key, because it merges isomorphic positions. subset refuses
n over max_n, nd a key space over 2^32 (n > 32 when twin-free).
"""

from inspect import signature
from typing import Callable, Iterable

from ..graph import ColoredGraph
from ..params import cover_at_most, nd_partition
from .common import CapacityError, Outcome, SearchStats
from .naive import grundy_naive, solve_naive
from .nd import count_nd_positions, solve_nd
from .subset import count_subset_positions, solve_subset
from .tree import (
    check_gray_forest,
    count_ak_subtrees,
    count_nk_subtrees,
    grundy_tree,
    solve_tree,
    tree_component_code,
)
from .vc import count_vc_positions, solve_vc, vc_canonical_key

# Engine name -> solver; -> count-mode (no short-circuit) search; and,
# for all-gray positions, -> Sprague-Grundy value.
SOLVERS = {
    "naive": solve_naive,
    "subset": solve_subset,
    "vc": solve_vc,
    "nd": solve_nd,
    "tree": solve_tree,
}
COUNTERS = {
    "subset": count_subset_positions,
    "vc": count_vc_positions,
    "nd": count_nd_positions,
}
GRUNDY = {"naive": grundy_naive, "tree": grundy_tree}
ENGINE_NAMES = (*SOLVERS, "auto")
VC_THRESHOLD = 8  # auto picks vc when a cover of at most this size exists
# auto picks nd when twins merge at least this many vertices (n - nu):
# below it, nd's dearer nodes cost more time than its merging saves.
ND_MIN_MERGED = 4


def pick_auto_engine(g: ColoredGraph) -> str:
    """The paper's dispatch: tree, vc (small tau), nd (many twins), subset."""
    try:
        check_gray_forest(g)
    except ValueError:
        pass
    else:
        return "tree"
    if cover_at_most(g, VC_THRESHOLD):
        return "vc"
    return "nd" if g.alive.bit_count() - nd_partition(g).count >= ND_MIN_MERGED else "subset"


def select_engine(
    name: str,
    g: ColoredGraph,
    count_mode: bool,
    options: Iterable[str] = (),
) -> tuple[str, Callable]:
    """The engine name stands for on g ("auto" picks one) and its
    registry function. Raises ValueError naming that engine when it
    takes no parameter for one of the option names, so an option meant
    for another engine is never ignored."""
    engine = pick_auto_engine(g) if name == "auto" else name
    fn = (COUNTERS if count_mode else SOLVERS).get(engine)
    if fn is None and count_mode:
        raise ValueError(f"count mode is not supported for engine {engine!r}")
    if fn is None:
        raise ValueError(f"unknown engine {engine!r}")
    unknown = sorted(set(options) - signature(fn).parameters.keys())
    if unknown:
        raise ValueError(f"option {unknown[0]} does not apply to engine {engine!r}")
    return engine, fn


__all__ = [
    "COUNTERS",
    "ENGINE_NAMES",
    "GRUNDY",
    "SOLVERS",
    "CapacityError",
    "Outcome",
    "SearchStats",
    "VC_THRESHOLD",
    "count_ak_subtrees",
    "count_nd_positions",
    "count_nk_subtrees",
    "count_subset_positions",
    "count_vc_positions",
    "grundy_naive",
    "grundy_tree",
    "pick_auto_engine",
    "select_engine",
    "solve_naive",
    "solve_nd",
    "solve_subset",
    "solve_tree",
    "solve_vc",
    "tree_component_code",
    "vc_canonical_key",
]
