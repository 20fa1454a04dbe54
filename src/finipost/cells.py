"""The cells of each experiment kind: what one (N, replicate) cell of
``run_experiment``'s grid draws, measures and bounds.

Each kind supplies a validation and a cell function that returns the row's
estimate, stderr, bound, slack and violation flag (``_CELLS``).  This is
where the numerical layers load: ``harness`` parses configs and emits
reports without numpy, and ``run_experiment`` imports this module first,
taking its model, key and stream functions from here.  Every layer a cell
can call is imported at module level, so one run loads them all, whatever
its kind.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from . import bounds as bd
from .errors import FiniPostError, config_float
from .estimators import (
    EstimatorInputs,
    cdf_estimators,
    gini_estimators,
    mean_estimators,
    variance_estimators,
)
from .families import IDENTITY, AbsDeviation, Indicator, NamedFunction, Square
from .harness import _STREAM_HISTORY, ExperimentConfig
from .measures import FiniteAlphabet, RealLine, Sample, Space, cdf_of_row, l21_functional, merged_rows
from .priors import (
    ExchangeableModel,
    _mc_mean,
    batched_f_means,
    batched_posterior_integrals,
    batched_posterior_rows,
    model_from_spec,
    predictive_expectation,
    sample_sequence,
)
from .rng import RngState, derive_key, state_from_key
from .transport import meta_w1_matched

# ---------------------------------------------------------------------------
# Named test functions
# ---------------------------------------------------------------------------

def _test_function(f_spec: dict | None) -> tuple[NamedFunction, NamedFunction, Callable, str]:
    """The named test function f of an f_spec, with |f| and f^2 (named
    wherever one exists; x^4 stays a quadrature integrand) and its name."""
    if not isinstance(f_spec, dict):
        raise FiniPostError("config-error", "this experiment needs an f_spec object")
    kind = f_spec.get("kind")
    if kind in ("identity", "gini"):
        return IDENTITY, AbsDeviation(0.0), Square(), kind
    if kind == "square":
        return Square(), Square(), (lambda x: float(x) ** 4), "square"
    if kind == "indicator":
        if "y" not in f_spec:
            raise FiniPostError("config-error", "indicator f_spec needs a threshold y")
        f = Indicator(config_float(f_spec["y"], "y"))
        return f, f, f, f"indicator({f.y})"
    raise FiniPostError("config-error", f"unknown f_spec kind {f_spec!r}")


def _mean_stderr(costs: np.ndarray) -> float:
    """Standard error of the mean of the matched costs (the plug-in
    estimate), as resampling them with replacement gives it in the limit of
    infinitely many resamples: the plug-in deviation (ddof 0) over sqrt(m)
    (Efron & Tibshirani 1993).  It holds both samples fixed, so it reads
    only the multiset of costs, not their order or any stream."""
    return float(costs.std()) / math.sqrt(costs.size)


# ---------------------------------------------------------------------------
# Cell functions and replicate histories
# ---------------------------------------------------------------------------

# A cell function maps (N, replicate, history, [phase 0, 1 streams]) to
# (estimate, stderr, bound, slack, violated).
CellFunction = Callable[[int, int, Sample, list], tuple]


def _replicate_history(cfg: ExperimentConfig, model: ExchangeableModel, rep: int) -> Sample:
    if cfg.n == 0:
        return Sample((), space=model.space)
    rng = state_from_key(derive_key(cfg.master_seed, rep, _STREAM_HISTORY))
    return sample_sequence(model, cfg.n, rng)


def _require_scalar(cfg: ExperimentConfig, space: Space) -> None:
    if not isinstance(space, RealLine):
        raise FiniPostError("config-error", f"{cfg.experiment} needs a scalar model")


# ---------------------------------------------------------------------------
# bound_finite / bound_real
# ---------------------------------------------------------------------------

def _bound_cells(cfg: ExperimentConfig, model: ExchangeableModel) -> tuple[CellFunction, int]:
    """Plug-in meta distance between posterior draws and empirical draws,
    per (N, replicate), against the matching closed-form bound.

    Per cell: ``m_samples`` posterior draws and ``m_samples`` empirical
    measures at horizon N, each empirical measure the history plus N - n
    i.i.d. draws from a directing measure drawn from the posterior (de
    Finetti), which leaves both marginal laws exact.  Under the default
    ``coupling="posterior"`` the directing measure is the matching
    posterior draw, which keeps the plug-in bias at desk scale;
    ``coupling="independent"`` draws fresh directing measures instead,
    which over-states the distance badly in the bounded-Lipschitz
    geometry (see README).  The draws are weight matrices on a label
    alphabet and merged rows on the line.  Slack is three standard errors
    of the plug-in, the closed-form limit of resampling the matched costs
    (``_mean_stderr``); the real-line bound folds in three standard errors
    of the estimated posterior mean of the sqrt(F(1-F)) integral over the
    step CDFs of the posterior rows.  The estimate and its standard error
    both read the costs of one optimal matching (``meta_w1_matched``).
    """
    _check_bound_config(cfg, model)

    def cell(N: int, rep: int, history: Sample, rngs: list) -> tuple:
        post_rng, cont_rng = rngs
        posts, emps = _posterior_and_empirical_draws(cfg, model, history, N, post_rng, cont_rng)
        estimate, matched = meta_w1_matched(posts, emps, cfg.ground)
        se = _mean_stderr(matched)
        slack = 3.0 * se

        if cfg.experiment == "bound_finite":
            bound = bd.finite_bound(model.space.k, cfg.n, N)
        else:
            l21s = np.array([l21_functional(cdf_of_row(*p)) for p in posts])
            l21_mean = float(l21s.mean())
            l21_se = float(l21s.std(ddof=1) / math.sqrt(len(l21s)))
            bound = bd.real_bound(cfg.n, N, l21_mean)
            slack += 3.0 * l21_se / math.sqrt(N - cfg.n)

        return estimate, se, bound, slack, estimate > bound + slack

    return cell, 0


def _check_bound_config(cfg: ExperimentConfig, model: ExchangeableModel) -> None:
    space = model.space
    if cfg.experiment == "bound_finite":
        # Only a finite Dirichlet model lives on a label alphabet.
        if cfg.ground != "TV" or not isinstance(space, FiniteAlphabet):
            raise FiniPostError("config-error", "bound_finite needs a label alphabet model and TV ground")
    else:
        if cfg.ground != "BL" or not isinstance(space, RealLine):
            raise FiniPostError("config-error", "bound_real needs a scalar model and BL ground")
        if type(model).posterior_rows is ExchangeableModel.posterior_rows:
            raise FiniPostError("config-error", "bound_real needs a model with posterior draws")


def _posterior_and_empirical_draws(
    cfg: ExperimentConfig,
    model: ExchangeableModel,
    history: Sample,
    N: int,
    post_rng: RngState,
    cont_rng: RngState,
) -> tuple:
    """``m_samples`` posterior draws and as many horizon-N empirical measures.

    One ``batched_posterior_rows`` call on ``post_rng`` gives the posterior
    rows ``P``.  The directing rows are ``P`` (posterior coupling) or fresh
    rows from ``cont_rng`` (independent), and one multinomial call on
    ``cont_rng`` counts the N - n new observations, i.i.d. from each row.
    On a label alphabet, where every row carries the alphabet in one order,
    both come back as (m, k) weight matrices in sorted-label order; on the
    line as merged rows, an empirical row being the history and the
    directing row's atoms, weighted by one and by the counts over N.
    """
    m, space, n = cfg.m_samples, model.space, len(history)
    X, P = batched_posterior_rows(model, history, m, post_rng)
    Xd, D = (X, P) if cfg.coupling == "posterior" else batched_posterior_rows(model, history, m, cont_rng)
    counts = cont_rng.multinomial(N - n, D / D.sum(axis=1, keepdims=True))
    if isinstance(space, FiniteAlphabet):
        order = np.argsort(Xd[0])
        held = np.array([history.values.count(label) for label in space.labels])
        return P[:, order], (held + counts[:, order]) / N
    head = np.broadcast_to(history.scalars(), (m, n))
    return merged_rows(X, P), merged_rows(np.hstack([head, Xd]), np.hstack([np.ones((m, n)), counts]) / N)


# ---------------------------------------------------------------------------
# bound_mean
# ---------------------------------------------------------------------------

def _mean_cells(cfg: ExperimentConfig, model: ExchangeableModel) -> tuple[CellFunction, int]:
    """Scalar pushforward check: the plug-in distance between f-means of
    full sequences and f-integrals of posterior draws, against the mean
    bound (unconditional when n = 0, conditional otherwise; the
    conditional bound takes the predictive mean of |f|)."""
    _require_scalar(cfg, model.space)
    f, abs_f, f2, name = _test_function(cfg.f_spec)
    if name == "gini":
        raise FiniPostError("config-error", "bound_mean has no gini f_spec; use estimator_sweep")

    def cell(N: int, rep: int, history: Sample, rngs: list) -> tuple:
        post_rng, seq_rng = rngs
        xs = batched_f_means(model, history, N, f.vec, cfg.m_samples, seq_rng)
        ys = batched_posterior_integrals(model, history, f.vec, cfg.m_samples, post_rng)
        matched = np.abs(np.sort(xs) - np.sort(ys))
        estimate = float(matched.mean())
        se = _mean_stderr(matched)

        if cfg.n == 0:
            Ef2 = predictive_expectation(model, history, f2)
            bound = bd.mean_bound_unconditional(N, Ef2)
        else:
            sample_mean_f = float(np.mean([f(v) for v in history.values]))
            post_mean_abs_f = predictive_expectation(model, history, abs_f)
            pred_f2 = predictive_expectation(model, history, f2)
            bound = bd.mean_bound_conditional(cfg.n, N, sample_mean_f, post_mean_abs_f, pred_f2)

        slack = 3.0 * se
        return estimate, se, bound, slack, estimate > bound + slack

    return cell, 0


# ---------------------------------------------------------------------------
# estimator_sweep
# ---------------------------------------------------------------------------

def _sweep_cells(cfg: ExperimentConfig, model: ExchangeableModel) -> tuple[CellFunction, int]:
    """Gap between the finite-horizon and classical estimators across the
    horizon grid, against the estimator's own triangle-inequality envelope.

    The estimator family follows f_spec: identity selects the mean,
    indicator(y) the CDF at y, square the variance, gini the mean
    absolute difference.  Both estimators are exact closed forms, so a
    row has no stderr and its slack 1e-9 only absorbs rounding.
    """
    _require_scalar(cfg, model.space)
    f, *_, name = _test_function(cfg.f_spec)
    if name.startswith("indicator"):
        estimators = partial(cdf_estimators, y=f.y)
    else:
        estimators = {"identity": mean_estimators, "square": variance_estimators, "gini": gini_estimators}[name]

    def cell(N: int, rep: int, history: Sample, rngs: list) -> tuple:
        pair = estimators(EstimatorInputs(model, history, N))
        gap = abs(pair.finitary - pair.classical)
        return gap, None, pair.envelope, 1e-9, gap > pair.envelope + 1e-9

    return cell, 0


# ---------------------------------------------------------------------------
# median_law
# ---------------------------------------------------------------------------

def _median_cells(cfg: ExperimentConfig, model: ExchangeableModel) -> tuple[CellFunction, int]:
    """P{median of 2N+1 observations <= x_r} against the tail inequality, x_r
    the predictive quantile at level (r+1)/(replicates+1) for replicate r.

    Given M = P(-inf, x_r], P the directing measure, the median is at most
    x_r iff more than N values are, with probability I_M(N+1, N+1).  Where
    ``model.mass_law`` gives the law of M the row is exact, with no stderr:
    ``median_cdf`` of a constant, the beta-binomial tail of a Beta.  Else
    it averages I_M(N+1, N+1) over m_samples masses (Rao-Blackwell).
    """
    _require_scalar(cfg, model.space)
    if cfg.n != 0:
        raise FiniPostError("config-error", "median_law runs with n = 0 (prior law of the median)")

    def cell(N: int, rep: int, history: Sample, rngs: list) -> tuple:
        x = model.prior_quantile((rep + 1) / (cfg.replicates + 1))
        F_x = predictive_expectation(model, history, Indicator(x))
        law = model.mass_law(history, x)
        if law is None:
            from scipy.special import betainc

            p = betainc(N + 1.0, N + 1.0, model.mass_at_most(history, x, cfg.m_samples, rngs[1]))
            estimate, se = _mc_mean(p)
        elif isinstance(law, tuple):
            estimate, se = bd.beta_binomial_sf(N, 2 * N + 1, *law), None
        else:
            estimate, se = bd.median_cdf(bd.MedianLawInputs(N, law)), None
        left_bound, right_bound = bd.median_tail_bounds(N, F_x, 1.0 - F_x)
        slack = 1e-9 if se is None else 3.0 * se
        violated = estimate > left_bound + slack or (1.0 - estimate) > right_bound + slack
        return estimate, se, left_bound, slack, violated

    return cell, 1


_CELLS = {
    "bound_finite": _bound_cells,
    "bound_real": _bound_cells,
    "bound_mean": _mean_cells,
    "estimator_sweep": _sweep_cells,
    "median_law": _median_cells,
}
