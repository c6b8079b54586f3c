"""Numerical certification of irreducibility for real representations of
compact groups, via the commuting algebra and invariant-measure moments."""

__version__ = "0.1.0"

from .commutant import (
    CommutantBasis,
    TypeVerdict,
    WitnessSubspace,
    classify_and_decide,
    commutant_basis,
    fixed_projector,
    span_project,
    span_residual,
    split_symmetric_skew,
    witness_invariant_subspace,
)
from .groups import (
    ContinuousFamily,
    FiniteGroupTable,
    GroupSpec,
    PermutationGroup,
    enumerate_closure,
    haar_matrices,
    permutation_group,
    stream,
    substream,
)
from .moments import (
    MeasureSpec,
    MomentEstimate,
    SecondMomentMatrix,
    check_discrete_invariance,
    coordinate_second_moments,
    discrete_measure,
    estimate_squared_overlap,
    exact_discrete_overlap,
    exact_finite_orbit_moments,
    expectation_identity_check,
    lower_bound_check,
    make_sampler,
    orbit_measure,
    sn_cosine_identity,
    uniform_sphere,
    uniform_subsphere,
)
from .report import (
    AnalysisConfig,
    Report,
    emit_outputs,
    parse_config,
    run_analysis,
)
from .representations import (
    Representation,
    build_named_rep,
    diag_map,
    frobenius_inner,
    gram_symmetrize,
    sum_zero_basis,
)

__all__ = [name for name in dir() if not name.startswith("_")]
