"""Covering-dimension toolkit for finite-dimensional operator algebras.

Block-matrix functional calculus, quantitative projection repair, completely
positive maps with their strict-order machinery, order-zero structure, finite
metric covers with nerve refinements, and the two-way bridge between covers
and completely positive approximations of function systems.
"""

from .algebra import (
    AlgebraElement,
    Check,
    FiniteDimAlgebra,
    GapHypothesisError,
    ScalarFunctionSpec,
    apply_function,
    block_spectra,
    cutoff_below,
    indicator_above,
    inverse_above_gap,
    inverse_sqrt_on_support,
    matrix_unit,
    piecewise_linear,
    projection_from_vector,
    soft_indicator,
    spectrum,
    support_projection,
    validate,
)
from .approx import (
    BuildReport,
    CPApproximation,
    ExtractionConstants,
    ExtractionReport,
    ExtractionTargets,
    StepFailure,
    build_cp_approx,
    direct_sum_approx,
    estimate_cpr_commutative,
    extract_cover,
    extraction_targets,
    function_algebra,
    tensor_approx,
    verify_cp_approx,
)
from .cliques import max_clique
from .covers import (
    Cover,
    FiniteMetricSpace,
    PartitionOfUnity,
    SimplicialComplex,
    ball_cover,
    barycentric_subdivision,
    circle_grid,
    cover_order,
    cover_strict_order,
    disjoint_union,
    greedy_net,
    interval_grid,
    member_diameter,
    nerve,
    net_ball_cover,
    partition_of_unity,
    refine_with_strict_order,
    refines,
    strict_refinement,
    torus_grid,
)
from .cpmaps import (
    CPMap,
    ElementarySet,
    OrderBounds,
    OrderZeroCertificate,
    StinespringDilation,
    WitnessSearchResult,
    certify_order_zero,
    choi_blocks,
    compress,
    is_contractive,
    multiplicativity_defect,
    schwarz_defect,
    stinespring,
    strict_order_abelian,
    strict_order_bounds,
    tensor_strict_order_exact,
    tensor_with_identity,
    unitize,
    witness_elementary_set,
)
from .orderzero import (
    AFLocalReport,
    HypothesisFailure,
    LocalApproximation,
    OrderZeroDecomposition,
    PerturbationReport,
    ProjectionCaseVerdict,
    af_local_step,
    check_projection_case,
    decompose_order_zero,
    dist_to_hom_image,
    perturb_to_hom,
)
from .projections import (
    FamilyOrthogonalization,
    TraceRankReport,
    alpha_for,
    check_almost_unit,
    connect_projections,
    invertible_sum_witness,
    orthogonalization_schedule,
    orthogonalize_family,
    orthogonalize_pair,
    repair_almost_projection,
    trace_rank_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
