"""End-structure invariants of edge-labeled germ graphs.

A germ graph is a finite rooted multigraph with nonnegative integer edge
labels.  Its unfolding is an infinite labeled tree; the label data turns
the positive part into a telescope of circles whose end behavior, rank
towers, and pro-level flags this package computes exactly, with every
closed form double-checked against finite cell complexes.
"""

from .classify import (
    CheckResult,
    EndClass,
    EndReport,
    RankSequence,
    RaySpec,
    Report,
    classify_ends,
    cross_checks,
    default_ray,
    full_report,
    power_ray,
    pro_h1_fixed_end,
    pro_pi1_ray,
    render_text,
    to_json_dict,
)
from .coset import (
    BLACK,
    DASHED,
    GRAY,
    ColoredNode,
    ColoredTree,
    CosetTree,
    OdometerMap,
    clone_tree_models,
    colored_trees_isomorphic,
    frontier_count,
    lambda_of_coset,
    lambda_plus,
    vertex_order,
    wedge_expansion,
)
from .cw import (
    BaseComplex,
    CellSelection,
    CW2Complex,
    CollapseBond,
    CoverComplex,
    H1Summary,
    build_base,
    build_cover,
    collapse_h1_matrix,
    format_complex,
    h1,
    induced_h1,
    infinity_neighborhood_base,
    subcomplex,
)
from .errors import (
    DomainError,
    ParseError,
    SizeCeilingError,
    TreeEndsError,
    ValidationFailed,
)
from .germ import (
    GermEdge,
    GermGraph,
    ValidationReport,
    Violation,
    germ_from_edges,
    parse_germ,
    render_germ,
    require_valid,
    validate_germ,
)
from .proseq import (
    TRIVIAL,
    AbelianSequence,
    InverseLimitClass,
    LadderCertificate,
    MultSequence,
    SequenceClass,
    StabilizationResult,
    block_compress,
    bond_compose,
    classify_mult,
    epi_normal_form,
    format_matrix,
    format_sequence,
    images_stabilize,
    inverse_limit_mult,
    ladder_search,
    parse_matrix,
    parse_sequence,
    verify_ladder,
)
from .reduce import elementary_reduction, germ_power, germ_power_detailed
from .unfold import (
    Cardinality,
    CardinalityClass,
    GrowthClass,
    NullComponent,
    NullForest,
    TreeNode,
    TruncatedTree,
    gamma_plus_is_finite,
    growth_class,
    null_end_class,
    null_forest,
    null_path_counts,
    positive_part,
    truncate,
)

__version__ = "0.1.0"
