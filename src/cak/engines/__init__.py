"""Winner-determination engines and the registry that names them.

naive   exhaustive recursion, no memo (the reference oracle)
subset  memo on the set of remaining edges: positions that differ only
        in isolated vertices share a key; its solve-mode root loses to a
        symmetry.mirror or tries one edge per symmetry.automorphisms orbit
vc      memo on cover-class keys, moves thinned to representatives
nd      memo on the alive mask; each module's survivors are its highest
        members, so the mask is canonical
tree    Sprague-Grundy on gray forests, memo by vertex set, then rooted shape id
auto    tree, vc if tau <= VC_THRESHOLD, nd if nu < n (twins exist), else subset

vc and nd share one memoized search (common.search) and differ only in
their candidate moves, edge masks whose (u, v) the root reads off the
winning one; subset runs its own search over edge sets in both modes.
Each of vc and nd hands the shared search a builder for its set-up,
which the search times as part of elapsed. The search keys a position
on its alive mask; vc alone supplies a key, because it merges
isomorphic positions. nd's key-space check is the one capacity check of
nd and subset: a key space prod(|M_i| + 1) over 2^32 is refused
(2^max_n for subset, whose bound is 2^alive).
"""

from functools import partial
from inspect import signature
from typing import Callable, Iterable, Optional

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
# `cak count` kind -> rooted-subtree counter on trees.
SUBTREE_COUNTERS = {"ak-subtrees": count_ak_subtrees, "nk-subtrees": count_nk_subtrees}
ENGINE_NAMES = (*SOLVERS, "auto")
VC_THRESHOLD = 8  # auto picks vc when a cover of at most this size exists


def pick_auto_engine(g: ColoredGraph, bound: Optional[dict] = None) -> str:
    """The paper's dispatch: tree, vc (small tau), nd (twins), subset.
    When it picks nd, the partition it computed goes into bound, if
    given, as the option that spares nd's builder computing it again."""
    try:
        check_gray_forest(g)
    except ValueError:
        pass
    else:
        return "tree"
    if cover_at_most(g, VC_THRESHOLD):
        return "vc"
    partition = nd_partition(g)
    if partition.count == g.alive.bit_count():
        return "subset"
    if bound is not None:
        bound["partition"] = partition
    return "nd"


def select_engine(
    name: str,
    g: ColoredGraph,
    count_mode: bool,
    options: Iterable[str] = (),
) -> tuple[str, Callable]:
    """The engine name stands for on g ("auto" picks one) and its
    registry function, with what the pick computed bound as options that
    a caller's own options override. Raises ValueError naming that engine
    when it takes no parameter for one of the option names, so an option
    meant for another engine is never ignored."""
    bound: dict = {}
    engine = pick_auto_engine(g, bound) if name == "auto" else name
    fn = (COUNTERS if count_mode else SOLVERS).get(engine)
    if fn is None and count_mode:
        raise ValueError(f"count mode is not supported for engine {engine!r}")
    if fn is None:
        raise ValueError(f"unknown engine {engine!r}")
    unknown = sorted(set(options) - signature(fn).parameters.keys())
    if unknown:
        raise ValueError(f"option {unknown[0]} does not apply to engine {engine!r}")
    return engine, partial(fn, **bound) if bound else fn


__all__ = [
    "COUNTERS",
    "ENGINE_NAMES",
    "GRUNDY",
    "SOLVERS",
    "SUBTREE_COUNTERS",
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
