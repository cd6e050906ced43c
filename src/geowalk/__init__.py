"""Geodesic random walks on curved spaces: sampling, annealing, diagnostics.

The pieces compose bottom-up: a :class:`Manifold` provides exponential maps
and tangent Gaussians, a :class:`ConvexBody` restricts the walk, the walk
module runs lazy and Metropolis-filtered chains, the anneal module cools a
Gibbs target down to a near-minimizer, and the diagnostics module checks
the inequalities the guarantees rest on.
"""

from .anneal import (
    AnnealConfig,
    AnnealSchedule,
    PhaseRecord,
    TrialsResult,
    allocate_steps,
    anneal_trials,
    initial_temperature,
    make_schedule,
)
from .bodies import (
    ConvexBody,
    EuclideanBox,
    GeodesicBall,
    SphericalCap,
    rejection_sample_uniform,
    sample_uniform_many,
)
from .diagnostics import (
    InequalityReport,
    TvEstimate,
    WarmnessEstimate,
    box_shell_fraction,
    builtin_check_names,
    check_affine_needle_lemma,
    check_interior_volume,
    check_isoperimetry,
    check_needle_moment_lemma,
    check_low_temp_expectation,
    check_partition_function_logconcavity,
    estimate_l2_warmness,
    estimate_one_step_tv,
    ks_one_sample,
    ks_sigma,
    ks_two_sample,
    run_builtin_check,
    tv_decay_curve,
)
from .errors import (
    AcceptanceTooLow,
    ConfigError,
    DegenerateSchedule,
    DimensionMismatch,
    GeoWalkError,
    InvalidStart,
    NotConvex,
    OracleError,
    PreconditionError,
    ScheduleTooAggressive,
    SeparationViolated,
    StepSizeWarning,
)
from .manifolds import (
    Euclidean,
    Manifold,
    SpecialOrthogonal,
    Sphere,
    from_descriptor,
)
from .quadrature import integrate
from .rng import stream
from .targets import Target, as_gibbs, distance_to, linear, sqdist_to
from .walk import (
    ChainResult,
    GibbsTarget,
    RejectionStats,
    WalkParams,
    delta_bound,
    estimate_local_conductance,
    run_chain,
    step_ensemble,
    validate_delta,
)

__version__ = "0.1.0"
