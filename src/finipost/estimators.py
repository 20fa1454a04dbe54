"""Finite-horizon Bayes estimators and their infinite-horizon counterparts.

For a functional t of a probability measure, the finite-horizon estimate
under squared loss is the conditional mean of t applied to the length-N
empirical measure given the first n observations; the classical estimate
is the corresponding predictive quantity.  Closed forms are implemented
for the mean, the variance, the CDF at a point, and the mean absolute
difference; a generic Monte Carlo path, a row functional on blocks of
continued sequences, covers arbitrary functionals and doubles as the
independent oracle for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FiniPostError
from .families import IDENTITY, AbsDeviation, AbsDifference, Indicator, Product, Square
from .measures import RealLine, Sample, empirical, gini_md
from .priors import (
    ExchangeableModel,
    _check_history,
    _check_horizon,
    _mc_mean,
    batched_sequence_blocks,
    predictive_expectation,
    predictive_pair_expectation,
)
from .rng import RngState

__all__ = [
    "EstimatorInputs",
    "EstimatePair",
    "mean_estimators",
    "variance_estimators",
    "cdf_estimators",
    "gini_estimators",
    "finitary_functional",
    "posterior_risk_profile",
]


@dataclass(frozen=True)
class EstimatorInputs:
    model: ExchangeableModel
    history: Sample
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise FiniPostError("bad-horizon", f"horizon must be >= 1, got {self.horizon}")
        _check_horizon(self.history, self.horizon)
        if not isinstance(self.model.space, RealLine):
            raise FiniPostError("space-mismatch", "estimators need scalar observations")
        _check_history(self.model, self.history)

    @property
    def n(self) -> int:
        return len(self.history)

    @property
    def N(self) -> int:
        return self.horizon


@dataclass(frozen=True)
class EstimatePair:
    """The finite-horizon and classical estimates, and ``envelope``, the
    triangle-inequality bound on their gap from the same coefficients."""

    finitary: float
    classical: float
    envelope: float


def _history_stats(inputs: EstimatorInputs) -> tuple[np.ndarray, float, float]:
    if inputs.n == 0:
        return np.empty(0), 0.0, 0.0
    x = inputs.history.scalars()
    return x, float(x.mean()), float(np.mean(x * x))


def mean_estimators(inputs: EstimatorInputs) -> EstimatePair:
    """Mean estimate: the finite-horizon form is the n/N convex combination
    of the running sample mean with the predictive mean."""
    n, N = inputs.n, inputs.N
    _, mu_bar, _ = _history_stats(inputs)
    mu_hat = predictive_expectation(inputs.model, inputs.history, IDENTITY)
    finitary = (n / N) * mu_bar + ((N - n) / N) * mu_hat
    envelope = (n / N) * (abs(mu_bar) + abs(mu_hat))
    return EstimatePair(finitary, mu_hat, envelope)


def variance_estimators(inputs: EstimatorInputs) -> EstimatePair:
    """Variance estimate.

    The finite-horizon expansion of E[Var(empirical_N) | history] is

        (n/N) s2_bar + ((N - n + n/N - 1)/N) s2_hat
        - (n/N)^2 c12_bar - (N-n)(N-n-1)/N^2 c12_hat
        - 2 n (N-n)/N^2 mu_bar mu_hat

    with c12_bar the squared sample mean and c12_hat the predictive
    expectation of the product of the next two observations.  The
    (N-n)(N-n-1) coefficient is confirmed against the Monte Carlo oracle
    in the test suite.
    """
    n, N = inputs.n, inputs.N
    if N < 2:
        raise FiniPostError("bad-horizon", "variance estimation needs a horizon of at least 2")
    _, mu_bar, s2_bar = _history_stats(inputs)
    c12_bar = mu_bar * mu_bar
    s2_hat = predictive_expectation(inputs.model, inputs.history, Square())
    mu_hat = predictive_expectation(inputs.model, inputs.history, IDENTITY)
    c12_hat = predictive_pair_expectation(inputs.model, inputs.history, Product())
    coef_s2 = (N - n + n / N - 1.0) / N
    coef_c12 = (N - n) * (N - n - 1.0) / N**2
    coef_cross = 2.0 * (N - n) * n / N**2
    finitary = (
        (n / N) * s2_bar
        + coef_s2 * s2_hat
        - (n / N) ** 2 * c12_bar
        - coef_c12 * c12_hat
        - coef_cross * mu_bar * mu_hat
    )
    classical = s2_hat - c12_hat
    envelope = (
        (n / N) * abs(s2_bar)
        + abs(coef_s2 - 1.0) * abs(s2_hat)
        + (n / N) ** 2 * abs(c12_bar)
        + abs(1.0 - coef_c12) * abs(c12_hat)
        + coef_cross * abs(mu_bar * mu_hat)
    )
    return EstimatePair(finitary, classical, envelope)


def cdf_estimators(inputs: EstimatorInputs, y: float) -> EstimatePair:
    """CDF estimate at y: convex combination of the empirical CDF with the
    predictive probability of falling at or below y."""
    n, N = inputs.n, inputs.N
    x, _, _ = _history_stats(inputs)
    ecdf = float(np.mean(x <= y)) if n else 0.0
    pred = predictive_expectation(inputs.model, inputs.history, Indicator(float(y)))
    finitary = (n / N) * ecdf + ((N - n) / N) * pred
    envelope = (n / N) * (ecdf + pred)
    return EstimatePair(finitary, pred, envelope)


def gini_estimators(inputs: EstimatorInputs) -> EstimatePair:
    """Mean-absolute-difference estimate.

    Finite-horizon form: (n/N)^2 times the plug-in value, plus the
    predictive pair term weighted by ((N-n)^2 - (N-n))/N^2, plus the
    past-to-future cross sum over all n observed points weighted by
    2(N-n)/N^2.  The cross sum runs over j <= n, confirmed against the
    Monte Carlo oracle in the test suite.
    """
    n, N = inputs.n, inputs.N
    if N < 2:
        raise FiniPostError("bad-horizon", "mean-difference estimation needs a horizon of at least 2")
    x, _, _ = _history_stats(inputs)
    gini_bar = gini_md(empirical(inputs.history)) if n else 0.0
    pair_hat = predictive_pair_expectation(inputs.model, inputs.history, AbsDifference())
    cross = 0.0
    for xj in x:
        cross += predictive_expectation(inputs.model, inputs.history, AbsDeviation(float(xj)))
    coef_pair = ((N - n) ** 2 - (N - n)) / N**2
    coef_cross = 2.0 * (N - n) / N**2
    finitary = (n / N) ** 2 * gini_bar + coef_pair * pair_hat + coef_cross * cross
    envelope = (n / N) ** 2 * abs(gini_bar) + abs(1.0 - coef_pair) * abs(pair_hat) + coef_cross * abs(cross)
    return EstimatePair(finitary, pair_hat, envelope)


# ---------------------------------------------------------------------------
# Generic Monte Carlo functionals
# ---------------------------------------------------------------------------

RowFunctional = Callable[[np.ndarray], np.ndarray]


def finitary_functional(
    inputs: EstimatorInputs, t: RowFunctional, replicas: int, rng: RngState
) -> tuple[float, float]:
    """Monte Carlo value of E[t(empirical_N) | history] with standard error.

    The independent oracle for every closed form above: each replica
    continues the prefix to the horizon, and t maps a (rows, N) block of
    such rows to t of each row's empirical measure (``x.mean(axis=1)``).
    """
    return _mc_mean(_functional_draws(inputs, t, replicas, rng))


def posterior_risk_profile(
    inputs: EstimatorInputs, t: RowFunctional, actions: list[float], replicas: int, rng: RngState
) -> list[tuple[float, float]]:
    """Risks of several actions evaluated on one shared set of replicas,
    so action comparisons are paired and their differences are exact
    sample identities."""
    vals = _functional_draws(inputs, t, replicas, rng)
    return [_mc_mean((vals - a) ** 2) for a in actions]


def _functional_draws(
    inputs: EstimatorInputs, t: RowFunctional, replicas: int, rng: RngState
) -> np.ndarray:
    """t on ``replicas`` continuation rows, drawn in the blocks of
    ``batched_sequence_blocks``; t must give one finite value per row."""
    if replicas < 2:
        raise FiniPostError("config-error", "need at least 2 replicas")
    draws = []
    for block in batched_sequence_blocks(inputs.model, inputs.history, inputs.N, replicas, rng):
        vals = np.asarray(t(block), dtype=float)
        if vals.shape != (len(block),):
            raise FiniPostError("config-error", f"row functional gave shape {vals.shape} on {len(block)} rows")
        if not np.all(np.isfinite(vals)):
            raise FiniPostError("non-finite-integrand", "row functional is not finite at a replica")
        draws.append(vals)
    return np.concatenate(draws)
