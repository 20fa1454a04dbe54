"""Seeded experiment runner: priors -> continuations and posterior draws ->
distances -> closed-form bounds, with machine-readable reports.

Five experiment kinds share one report schema:

* ``bound_finite`` / ``bound_real`` -- plug-in transport distance between
  posterior draws of the directing measure and empirical-measure draws,
  against the matching rate bound (total variation / bounded Lipschitz).
  ``bound_finite`` cells run on (m, k) weight matrices, one row per draw,
  and ``bound_real`` cells on merged rows, one pair of point and weight
  arrays per draw.
* ``bound_mean``     -- scalar pushforward distance for a named test
  function against the mean bounds.
* ``estimator_sweep`` -- finite-horizon vs classical estimator gap with
  its algebraic envelope across the horizon grid.
* ``median_law``     -- empirical law of the odd-sample median against the
  exact beta law and its tail inequalities.

``run_experiment`` is the one runner: it runs the cells of the (N,
replicate) grid on a thread pool, one worker per usable CPU, and builds
every report row in grid order.  Each experiment kind supplies only its
validation and a cell function that returns the row's estimate, stderr,
bound, slack and violation flag.

Determinism contract: every cell of the (N, replicate) grid derives its
own counter-based stream from ``(master_seed, replicate, stream_id)`` and
shares no generator with another cell, so reports are byte-identical
across runs and for any number of workers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from . import bounds as bd
from .errors import FiniPostError, config_float, config_int
from .families import IDENTITY, AbsDeviation, Indicator, NamedFunction, Square
from .measures import FiniteAlphabet, RealLine, Sample, Space, cdf_of_row, l21_functional, merged_rows
from .priors import (
    ExchangeableModel,
    batched_f_means,
    batched_posterior_integrals,
    batched_posterior_rows,
    model_from_spec,
    predictive_expectation,
    sample_sequence,
)
from .estimators import (
    EstimatorInputs,
    cdf_estimators,
    gini_estimators,
    mean_estimators,
    variance_estimators,
)
from .rng import RngState, derive_key, state_from_key
from .transport import _GROUNDS, meta_w1_matched

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "run_experiment",
    "emit",
    "report_to_csv",
    "report_to_json",
]

ARTIFACT_VERSION = "0.12.0"

# Stream ids: replicate-level history stream, then per-(N, phase) streams.
_STREAM_HISTORY = 0


def _cell_stream(n_index: int, phase: int) -> int:
    return 8 * (1 + n_index) + phase


# ---------------------------------------------------------------------------
# Configuration and report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: dict
    n: int
    N_grid: tuple[int, ...]
    m_samples: int
    replicates: int
    ground: str = "TV"
    master_seed: int = 0
    output: str | None = None
    f_spec: dict | None = None
    coupling: str = "posterior"

    def __post_init__(self):
        if self.experiment not in _CELLS:
            raise FiniPostError("config-error", f"unknown experiment {self.experiment!r}")
        for name in ("n", "m_samples", "replicates", "master_seed"):
            object.__setattr__(self, name, config_int(getattr(self, name), name))
        object.__setattr__(self, "N_grid", tuple(config_int(N, "N_grid") for N in self.N_grid))
        if not self.N_grid:
            raise FiniPostError("config-error", "empty N grid")
        if self.n < 0:
            raise FiniPostError("config-error", f"history length n must be >= 0, got {self.n}")
        floor = max(self.n, 1) if self.experiment == "estimator_sweep" else self.n + 1
        if any(N < floor for N in self.N_grid):
            raise FiniPostError("config-error", f"every N in the grid must be >= {floor}")
        if self.m_samples < 2:
            raise FiniPostError("config-error", "m_samples must be >= 2")
        if self.replicates < 1:
            raise FiniPostError("config-error", "replicates must be >= 1")
        if not 0 <= self.master_seed < 2**64:  # stream keys mix the seed modulo 2**64
            raise FiniPostError("config-error", f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.coupling not in ("posterior", "independent"):
            raise FiniPostError("config-error", f"unknown coupling {self.coupling!r}")
        if self.ground not in _GROUNDS:
            raise FiniPostError("config-error", f"ground must be one of {list(_GROUNDS)}, not {self.ground!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise FiniPostError("config-error", f"output must be a path string or null, not {self.output!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise FiniPostError("config-error", f"a config is a JSON object, not {type(obj).__name__}")
        # ``threads`` is accepted and ignored: the runner sizes its own pool,
        # and reports do not depend on it.
        unknown = sorted(set(obj) - {f.name for f in fields(cls)} - {"threads"})
        if unknown:
            raise FiniPostError("config-error", f"unknown config fields {unknown}")
        given = {key: value for key, value in obj.items() if key != "threads"}
        try:
            return cls(**{"n": 0, "m_samples": 2000, "replicates": 1, **given})
        except FiniPostError:
            raise
        except (TypeError, ValueError) as exc:
            raise FiniPostError("config-error", f"malformed config: {exc}") from exc

    def to_dict(self) -> dict:
        return {**asdict(self), "N_grid": list(self.N_grid)}


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    N: int
    n: int
    replicate: int
    seed: int
    estimate: float
    stderr: float | None
    bound: float
    slack: float
    violated: bool


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    metadata: dict = field(default_factory=dict)

    @property
    def any_violation(self) -> bool:
        return any(r.violated for r in self.rows)


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
# The cell loop
# ---------------------------------------------------------------------------

# A cell function maps (N, replicate, history, [phase 0, 1 streams]) to
# (estimate, stderr, bound, slack, violated).
CellFunction = Callable[[int, int, Sample, list], tuple]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one experiment over its (N, replicate) grid, N-major, one row per cell.

    Each replicate draws its history once, from its own stream, and shares
    it across the N grid.  Each cell derives two streams (phases 0 and 1)
    and hands them to the experiment's cell function; the row's ``seed`` is
    the key of the experiment's seed stream (phase 1 for ``median_law``,
    phase 0 for the others).  The cells run on every usable CPU in contiguous
    chunks (``_run_grid``): the lowest failing cell's error is raised, after
    the running chunks finish and the others are cancelled.  Rows are
    recorded in grid order, the same for any worker count.
    """
    model = model_from_spec(cfg.model)
    cell, seed_phase = _CELLS[cfg.experiment](cfg, model)
    histories = [_replicate_history(cfg, model, rep) for rep in range(cfg.replicates)]
    grid = [
        (N, rep, [derive_key(cfg.master_seed, rep, _cell_stream(ni, phase)) for phase in range(2)])
        for ni, N in enumerate(cfg.N_grid)
        for rep in range(cfg.replicates)
    ]

    def run(N: int, rep: int, keys: list) -> tuple:
        return cell(N, rep, histories[rep], [state_from_key(key) for key in keys])

    rows = [
        ReportRow(cfg.experiment, N, cfg.n, rep, keys[seed_phase], *result, bool(violated))
        for (N, rep, keys), (*result, violated) in zip(grid, _run_grid(run, grid))
    ]
    return ExperimentReport(rows, {"config": cfg.to_dict(), "artifact_version": ARTIFACT_VERSION})


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_grid(run: Callable[..., tuple], grid: list) -> list:
    """``run(*cell)`` for every cell of the grid, returned in grid order.

    W = min(cells, usable CPUs) threads run contiguous chunks of cells
    (numpy releases the GIL in sampling, sorts and large ufuncs).  ``map``
    yields the chunks in grid order and a chunk stops at its first error,
    so the error raised is the lowest failing index's, as in a serial loop.
    An error or interrupt cancels the chunks not yet started; those already
    running finish their cells.
    """
    # Imported here: ``concurrent.futures`` loads ``logging``, which
    # ``import finipost`` does not need.
    from concurrent.futures import ThreadPoolExecutor

    workers = min(len(grid), _usable_cpus())
    # About 8 chunks a worker: few pool tasks (one per cell ran slower), short tail.
    size = math.ceil(len(grid) / (8 * workers))
    chunks = [grid[lo : lo + size] for lo in range(0, len(grid), size)]
    with ThreadPoolExecutor(workers) as pool:
        done = pool.map(lambda chunk: [run(*cell) for cell in chunk], chunks)
        return [result for chunk in done for result in chunk]


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
    absolute difference.
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
        stderr = pair.components.get("stderr")
        slack = 1e-9 + 3.0 * (stderr or 0.0)
        return gap, stderr, pair.envelope, slack, gap > pair.envelope + slack

    return cell, 0


# ---------------------------------------------------------------------------
# median_law
# ---------------------------------------------------------------------------

def _median_cells(cfg: ExperimentConfig, model: ExchangeableModel) -> tuple[CellFunction, int]:
    """Empirical CDF of the median of 2N+1 observations on a grid of
    predictive quantile points, against the tail inequality.

    The replicate index enumerates the grid: replicate r targets the
    predictive CDF level (r+1)/(replicates+1).  Each row estimates
    P{median <= x_r} from m_samples independent sequences, each drawn as
    its count of values at most x_r, Binomial(2N+1, P(-inf, x_r]) given
    its directing measure P (``model.mass_at_most``): its median is at most
    x_r iff more than N are, ties included.
    """
    _require_scalar(cfg, model.space)
    if cfg.n != 0:
        raise FiniPostError("config-error", "median_law runs with n = 0 (prior law of the median)")

    def cell(N: int, rep: int, history: Sample, rngs: list) -> tuple:
        x = model.prior_quantile((rep + 1) / (cfg.replicates + 1))
        F_x = predictive_expectation(model, history, Indicator(x))
        counts = rngs[1].binomial(2 * N + 1, model.mass_at_most(history, x, cfg.m_samples, rngs[1]))
        estimate = int(np.count_nonzero(counts > N)) / cfg.m_samples
        se = math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / cfg.m_samples)
        left_bound, right_bound = bd.median_tail_bounds(bd.MedianLawInputs(N, F_x), F_x, 1.0 - F_x)
        slack = 3.0 * se
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


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_CSV_HEADER = "experiment,N,n,replicate,seed,estimate,stderr,bound,slack,violated"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def report_to_csv(report: ExperimentReport) -> str:
    lines = [_CSV_HEADER]
    for r in report.rows:
        stderr = "na" if r.stderr is None else _fmt(r.stderr)
        lines.append(
            f"{r.experiment},{r.N},{r.n},{r.replicate},{r.seed},"
            f"{_fmt(r.estimate)},{stderr},{_fmt(r.bound)},{_fmt(r.slack)},"
            f"{'true' if r.violated else 'false'}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: ExperimentReport) -> str:
    obj = {"metadata": report.metadata, "rows": [asdict(r) for r in report.rows]}
    return json.dumps(obj, indent=2) + "\n"


def emit(report: ExperimentReport, path: str, format: str = "csv") -> None:
    """Write the report; CSV columns are fixed, JSON mirrors rows plus
    metadata.  Floats keep 17 significant digits (exact round-trip)."""
    if format not in ("csv", "json"):
        raise FiniPostError("config-error", f"unknown format {format!r}")
    text = report_to_csv(report) if format == "csv" else report_to_json(report)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FiniPostError("io-error", f"cannot write report to {path}: {exc}") from exc
