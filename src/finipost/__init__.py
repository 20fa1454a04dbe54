"""finipost: finitary posterior laws, exact transport distances, and
seeded verification of the closed-form bounds that relate them.

The package compares two conditional laws given the first n observations
of an exchangeable sequence: the law of the empirical measure at a finite
horizon N, and the law of the directing random measure.  It provides the
estimators built from each, exact distances between discrete measures,
every closed-form bound on the discrepancy, and a deterministic Monte
Carlo harness that checks the bounds numerically.

Each public name, and each submodule, loads on first access (PEP 562), so
``import finipost`` loads nothing numerical: a config parses and a
closed-form bound evaluates without numpy.
"""

from importlib import import_module

# The public names, by the submodule that defines them.
_NAMES = {
    "errors": "FiniPostError",
    "families": "AnalyticLaw GaussianLaw PointMassLaw UniformLaw family_from_spec",
    "measures": "AtomicMeasure Cdf FiniteAlphabet Point RealLine Sample Space cdf_of empirical gini_md "
    "integrate l21_functional mixture moment",
    "priors": "DirichletProcessModel ExchangeableModel FiniteDirichletModel FixedLawModel PolyaTreeModel "
    "StickBreakingModel continue_sequence model_from_spec posterior_draw predictive_expectation "
    "predictive_expectation_mc predictive_pair_expectation sample_sequence",
    "estimators": "EstimatePair EstimatorInputs cdf_estimators finitary_functional gini_estimators mean_estimators "
    "posterior_risk_profile variance_estimators",
    "transport": "LipschitzDual PlanCheck TransportPlan bounded_lipschitz meta_w1_matched "
    "solve_discrete_ot tv_finite verify_plan w1_real",
    "bounds": "MedianLawInputs beta_binomial_sf bounded_support_bound dudley_gamma euclidean_bound finite_bound "
    "l21_moment_bound mean_bound_conditional mean_bound_unconditional median_cdf median_tail_bounds real_bound "
    "tail_probability_bound",
    "harness": "ExperimentConfig ExperimentReport ReportRow emit run_experiment",
    "rng": "RngState derive_key derive_seed state_from_key",
}
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _NAMES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_NAMES})
