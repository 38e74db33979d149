"""Exponential tail bounds for self-normalized martingales, their simulation
models, and Monte Carlo / exact sign-type verification."""

from .bounds import (
    BOUND_KINDS,
    clamp_probability,
    evaluate_bound,
    f_rate,
    optimal_lambda,
    psi,
)
from .processes import (
    BatchStats,
    BoundedAbove,
    CenteredPareto,
    DifferenceModel,
    Gaussian,
    Rademacher,
    ScaledTwoPoint,
    SymmetricMixture,
    UnsupportedStatisticError,
    build_model,
    sample_batch,
    substream,
)
from .montecarlo import (
    MCEstimate,
    TailEvent,
    clopper_pearson,
    domination_check,
    exact_tail_rademacher,
)
from .experiments import (
    ExperimentSpec,
    ResultRecord,
    SpecValidationError,
    load_report,
    load_spec,
    run_experiment,
)

__version__ = "0.1.0"
