"""finipost: finitary posterior laws, exact transport distances, and
seeded verification of the closed-form bounds that relate them.

The package compares two conditional laws given the first n observations
of an exchangeable sequence: the law of the empirical measure at a finite
horizon N, and the law of the directing random measure.  It provides the
estimators built from each, exact distances between discrete measures,
every closed-form bound on the discrepancy, and a deterministic Monte
Carlo harness that checks the bounds numerically.
"""

from .errors import FiniPostError
from .families import AnalyticLaw, GaussianLaw, PointMassLaw, UniformLaw, family_from_spec
from .measures import (
    AtomicMeasure,
    Cdf,
    Euclidean,
    FiniteAlphabet,
    Point,
    RealLine,
    Sample,
    Space,
    cdf_of,
    empirical,
    gini_md,
    integrate,
    l21_functional,
    mixture,
    moment,
)
from .priors import (
    DirichletProcessModel,
    ExchangeableModel,
    FiniteDirichletModel,
    FixedLawModel,
    PolyaTreeModel,
    StickBreakingModel,
    continue_sequence,
    model_from_spec,
    polya_tree_marginal,
    posterior_draw,
    predictive_expectation,
    predictive_expectation_mc,
    predictive_pair_expectation,
    sample_sequence,
)
from .estimators import (
    EstimatePair,
    EstimatorInputs,
    cdf_estimators,
    finitary_functional,
    gini_estimators,
    mean_estimators,
    posterior_risk,
    posterior_risk_profile,
    variance_estimators,
)
from .transport import (
    CostMatrix,
    LipschitzDual,
    PlanCheck,
    TransportPlan,
    bounded_lipschitz,
    meta_w1,
    meta_w1_matched,
    solve_discrete_ot,
    tv_finite,
    verify_plan,
    w1_real,
)
from .bounds import (
    MedianLawInputs,
    bounded_support_bound,
    dudley_gamma,
    euclidean_bound,
    finite_bound,
    l21_moment_bound,
    mean_bound_conditional,
    mean_bound_unconditional,
    median_cdf,
    median_tail_bounds,
    real_bound,
    regularized_incomplete_beta,
    tail_probability_bound,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    emit,
    run_experiment,
)
from .rng import RngState, derive_key, derive_seed, state_from_key

__version__ = "0.1.0"
