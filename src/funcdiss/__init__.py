"""funcdiss: functional dissipativity analysis for second order elliptic
systems, with a small Lame finite element solver and an Orlicz norm kit."""

from .errors import (
    ToolkitError,
    NonPositivePhi,
    NotIncreasing,
    BracketFailure,
    BadTruncation,
    QuadratureFailure,
    EllipticityViolation,
    BudgetExhausted,
    NotStrict,
    SolverDiverged,
    NotIntegrable,
    OrliczNormFailure,
)
from .phi import (
    PhiSpec,
    PhiValidation,
    LambdaProfile,
    LambdaLimit,
    YoungPair,
    power_phi,
    exp_square_phi,
    truncated_power,
    custom_phi,
    validate_phi,
    dual_phi,
    young_pair,
)
from .coefficients import (
    CoefficientField,
    GeneralSystem,
    EssBounds,
    ess_bounds,
    gamma_field,
    bmo_seminorm,
    bilinear,
    constant_field,
    ramp_field,
    checkerboard_field,
    radial_field,
    lame_system,
    load_field,
)
from .criteria import (
    Verdict,
    AlgebraicProbe,
    MarginResult,
    algebraic_margin,
    algebraic_form,
    lame2d_verdict,
    lameNd_sufficient,
    kappa_policy,
    constant_threshold,
    STRICT_DISSIPATIVE,
    DISSIPATIVE_BOUNDARY,
    NOT_DISSIPATIVE,
    INCONCLUSIVE,
)
from .forms import (
    TestField,
    bump_field,
    rotation_field,
    gradient_field,
    oscillatory_field,
    standard_ensemble,
    xy_decompose,
    dissipativity_form,
    strict_margin,
    MarginReport,
    oscillatory_counterexample,
    CounterexampleReport,
)
from .orlicz import (
    SampledField,
    YoungFunction,
    power_young,
    exp_young,
    exp_conjugate,
    log_young,
    luxemburg_norm,
    orlicz_norm,
    holder_orlicz,
    HolderReport,
)
from .fem import (
    FemProblem,
    FemSolution,
    assemble_and_solve,
    scaled_solution,
    weighted_energy,
    regularity_ratio,
    manufactured_problem,
    manufactured_reference,
    fiber_problem,
    fiber_reference,
)
from .cli import RunConfig, load_config, run

__version__ = "0.1.0"
