"""Colored Arc Kayles: solvers, generators, and instrumentation.

Two players alternately pick an edge they are allowed to play (B: gray
or black, W: gray or white) and delete both endpoints; whoever cannot
move loses. Gray-only graphs give Arc Kayles, grid graphs give Cram and
Domineering, caterpillars give classic Kayles.
"""

from .engines import (
    CapacityError,
    Outcome,
    SearchStats,
    count_ak_subtrees,
    count_nd_positions,
    count_nk_subtrees,
    count_subset_positions,
    count_vc_positions,
    grundy_naive,
    grundy_tree,
    solve_naive,
    solve_nd,
    solve_subset,
    solve_tree,
    solve_vc,
    vc_canonical_key,
)
from .generators import (
    SplitMix64,
    gen_caterpillar_kayles,
    gen_grid,
    gen_lower_nd,
    gen_lower_vc,
    gen_random,
)
from .graph import (
    Color,
    ColoredGraph,
    ParseError,
    Player,
    VertexError,
    parse_graph,
    remove_closed_edge,
    serialize_graph,
)
from .params import (
    ModulePartition,
    VertexCover,
    equivalence_classes,
    min_vertex_cover,
    nd_partition,
)

__version__ = "0.1.0"
