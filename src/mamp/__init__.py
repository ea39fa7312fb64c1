"""Memory AMP: low-cost Bayes-optimal recovery for right-unitarily-invariant systems."""

from .baselines import lmmse_le, run_amp, run_bo_oamp, run_mf_oamp
from .core import (
    AlgorithmResult,
    DampingSolution,
    DegenerateNormalizationError,
    InvalidLedgerError,
    IterationRecord,
    estimate_phi_covariance,
    gamma_covariance_row,
    memory_le_step,
    optimal_damping,
    optimize_theta,
    optimize_xi,
    run_bo_mamp,
    xi_cost_coefficients,
)
from .denoisers import (
    DenoiserOutput,
    NonImprovingNLEError,
    PriorParams,
    bg_mmse,
    scalar_mmse,
)
from .evolution import (
    CorrelatedNoiseSampler,
    NearSingularCovarianceError,
    bo_oamp_fixed_point_exact,
    oamp_fixed_point,
    run_bo_mamp_se,
    run_bo_oamp_se,
    run_mf_oamp_se,
)
from .operators import (
    DenseOperator,
    StructuredOperator,
    SystemInstance,
    TransformOperator,
    build_iid_gaussian_operator,
    build_structured_operator,
    make_geometric_singular_values,
    sample_instance,
)
from .spectral import (
    MomentTables,
    SpectralProfile,
    bound_extremal_eigenvalues,
    build_moment_tables,
    estimate_moments_power_recursion,
    exact_moments_from_singular_values,
    tables_from_singular_values,
)

__version__ = "0.1.0"
