"""Exchangeable-sequence models: predictive sampling, sequence continuation,
and posterior draws of the directing random measure.

Each model is a dataclass on ``ExchangeableModel`` that holds its own laws
as methods: the posterior rows, the exact predictive and pair-predictive
expectations, and the prior predictive quantile.  The base class continues
every model from its posterior rows: by de Finetti a row's new values are
i.i.d. from one posterior row, so they are multinomial counts on its atoms,
shuffled (the finite-Dirichlet and Polya-tree rows are exact by conjugacy:
Blackwell & MacQueen 1973, Lavine 1992).  Only the Dirichlet process, whose
rows are truncated, keeps an exact count sampler, and the fixed law, with
no rows, samples its base.  A sequence is a one-row batch.  The module
functions (``continue_sequence``, ``posterior_draw``, ...) check the shared
preconditions and then make one call on the model.

* ``FiniteDirichletModel`` -- conjugate Dirichlet weights on k fixed atoms,
  labels or scalars; posterior rows are one exact Dirichlet call.
* ``DirichletProcessModel`` -- Blackwell-MacQueen urn over an analytic base,
  drawn exactly as counts: Dirichlet-multinomial on the history values and
  an Ewens partition of the new ones, shuffled into sequences or weighed
  into f-means; posterior rows are drawn by the conjugate decomposition:
  exact Beta/Dirichlet weights on the distinct history values plus a
  truncated stick-breaking draw of the prior, whose residual mass goes to
  one extra atom.
* ``StickBreakingModel`` -- general independent Beta(a_k, b_k) sticks; the
  posterior has no tractable form and is served by partition-matching
  rejection over batches of prior rows for histories of at most four points.
* ``PolyaTreeModel`` -- dyadic quantile partition of an invertible base CDF
  with Beta-distributed branch probabilities; fully conjugate, observations
  are emitted at quantile-interval midpoints of the deepest level, and
  posterior rows take one Beta call per level.
* ``FixedLawModel`` -- a deterministic directing measure, the degenerate
  carrier used by median-law experiments.

Both stick models draw their sticks with one sampler, ``_truncated_sticks``,
which breaks the sticks of all rows in lockstep, one call per stick index
(Beta(1, b) sticks by inversion of their CDF), and then draws every
location in one call.

Every operation takes its random state explicitly; see ``rng``.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import FiniPostError, config_float, config_int
from .families import AnalyticLaw, Indicator, NamedPairFunction, PointMassLaw
from .measures import AtomicMeasure, FiniteAlphabet, RealLine, Sample, Space
from .rng import RngState

__all__ = [
    "FiniteDirichletModel",
    "DirichletProcessModel",
    "StickBreakingModel",
    "PolyaTreeModel",
    "FixedLawModel",
    "ExchangeableModel",
    "sample_sequence",
    "continue_sequence",
    "posterior_draw",
    "predictive_expectation",
    "predictive_expectation_mc",
    "predictive_pair_expectation",
    "model_from_spec",
    "batched_sequences",
    "batched_sequence_blocks",
    "batched_f_means",
    "batched_posterior_rows",
    "batched_posterior_integrals",
]

_REJECTION_CAP = 2_000_000
_RULE_STICKS_CAP = 2**20


# ---------------------------------------------------------------------------
# The model protocol
# ---------------------------------------------------------------------------

class ExchangeableModel(ABC):
    """The laws of one exchangeable model.

    The module functions check their preconditions (history space,
    horizon) before calling these methods, so a method may assume a
    history on ``space`` and a target length beyond it.  A model that
    writes ``posterior_rows`` and ``row_width`` gets its posterior
    integrals from them, and its continuation and f-means by default, and
    ``mass_at_most`` wherever ``mass_law`` gives no closed form.
    """

    @property
    def space(self) -> Space:
        return RealLine()

    def batched_continuation(self, history: Sample, out: np.ndarray, rng: RngState) -> None:
        """Fill the columns of ``out`` after the history (at least one) with
        independent continuations, from posterior rows drawn in blocks of at
        most 4e6 atoms by default."""
        n, done = len(history), 0
        for rows in _row_chunks(out.shape[0], self.row_width(history)):
            atoms, weights = self.posterior_rows(history, rows, rng)
            weights /= weights.sum(axis=1, keepdims=True)
            _fill_shuffled(out[done : done + rows, n:], atoms, rng.multinomial(out.shape[1] - n, weights), rng)
            done += rows
            del atoms, weights  # before the next block is drawn

    def f_means(
        self, history: Sample, upto: int, fvec: Callable[[np.ndarray], np.ndarray], draws: int, rng: RngState
    ) -> np.ndarray:
        """f-means of ``draws`` independent continuations to length ``upto``;
        of ``batched_sequence_blocks`` rows by default."""
        blocks = batched_sequence_blocks(self, history, upto, draws, rng)
        return np.concatenate([fvec(block).mean(axis=1) for block in blocks])

    def posterior_rows(self, history: Sample, draws: int, rng: RngState) -> tuple[np.ndarray, np.ndarray]:
        """``draws`` draws of the directing measure given the history, as
        (draws, s) atom and weight arrays (see ``batched_posterior_rows``)."""
        raise _no_posterior(self)

    def row_width(self, history: Sample) -> int:
        """An upper bound on the width s of ``posterior_rows``, by which the
        default continuation and integrals block their rows."""
        raise _no_posterior(self)

    def mass_at_most(self, history: Sample, x: float, draws: int, rng: RngState) -> np.ndarray:
        """``draws`` independent values of P(-inf, x], P the directing measure
        given the history: from ``mass_law`` where it is closed form, else the
        indicator integrals of posterior rows, capped at 1 against rounding."""
        _check_history(self, history)
        self._check_scalar("masses at most x")
        law = self.mass_law(history, x)
        if law is None:
            return np.minimum(batched_posterior_integrals(self, history, Indicator(x).vec, draws, rng), 1.0)
        return rng.beta(*law, size=draws) if isinstance(law, tuple) else np.full(draws, law)

    def mass_law(self, history: Sample, x: float) -> float | tuple[float, float] | None:
        """The law of P(-inf, x] given the history: a constant, Beta(a, b) as (a, b), or None."""
        return None

    @abstractmethod
    def predictive(self, history: Sample, f: Callable) -> float:
        """E[f(next observation) | history], exact."""

    def pair_predictive(self, history: Sample, g: Callable) -> float:
        """E[g(next, next-but-one) | history], exact; refused by default."""
        raise FiniPostError("posterior-unavailable", f"{type(self).__name__} has no closed-form pair predictive")

    def prior_quantile(self, u: float) -> float:
        """Smallest x with prior predictive CDF at least u."""
        return float(self.base.quantile(u))

    def _check_scalar(self, what: str) -> None:
        if not isinstance(self.space, RealLine):
            raise FiniPostError("space-mismatch", f"{what} need a scalar model")


def _no_posterior(model: ExchangeableModel) -> FiniPostError:
    return FiniPostError("posterior-unavailable", f"{type(model).__name__} has no posterior rows")


def _fill_shuffled(new: np.ndarray, atoms: np.ndarray, counts: np.ndarray, rng: RngState) -> None:
    """Fill each row of ``new`` with its atoms, each repeated by its count
    (a row's counts sum to its width), in uniformly random order: given its
    counts an exchangeable continuation takes every order equally likely."""
    new[...] = np.repeat(atoms.ravel(), counts.ravel()).reshape(new.shape)
    rng.permuted(new, axis=1, out=new)


def _mc_mean(values: np.ndarray | list[float]) -> tuple[float, float]:
    vals = np.asarray(values)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def _check_positive(values: Sequence[float], what: str) -> None:
    """Refuse any value that is not a finite number above 0, NaN included."""
    if not all(0.0 < v < math.inf for v in values):
        raise FiniPostError("config-error", f"{what} must be finite and positive")


def _beta_law(a: float, b: float) -> float | tuple[float, float]:
    """Beta(a, b), or the constant 0 or 1 it is when a parameter is 0."""
    return float(b == 0.0) if a == 0.0 or b == 0.0 else (a, b)


def _check_truncation(max_sticks: int, residual_tol: float) -> None:
    if max_sticks < 8:
        raise FiniPostError("config-error", f"max_sticks must be >= 8, got {max_sticks}")
    if not (0.0 < residual_tol <= 1e-3):
        raise FiniPostError("config-error", f"residual_tol must be in (0, 1e-3], got {residual_tol}")


# ---------------------------------------------------------------------------
# Finite Dirichlet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteDirichletModel(ExchangeableModel):
    """Dirichlet-distributed weights on a fixed finite support.

    ``atoms`` are all labels (a genuine finite alphabet) or all finite
    scalars (a finite support embedded in the real line, so that scalar
    estimators apply).
    """

    concentration: tuple[float, ...]
    atoms: tuple = ()

    def __post_init__(self):
        conc = tuple(float(a) for a in self.concentration)
        if len(conc) < 2:
            raise FiniPostError("config-error", "need an alphabet of size >= 2")
        _check_positive(conc, "concentration parameters")
        atoms = self.atoms if self.atoms else tuple(f"a{i + 1}" for i in range(len(conc)))
        if len(atoms) != len(conc):
            raise FiniPostError("config-error", "atoms and concentration lengths differ")
        real = (isinstance(a, numbers.Real) and not isinstance(a, bool) and math.isfinite(a) for a in atoms)
        if not (all(isinstance(a, str) for a in atoms) or all(real)):
            raise FiniPostError("config-error", f"support atoms must be all labels or all finite numbers: {atoms!r}")
        if len(set(atoms)) != len(atoms):
            raise FiniPostError("config-error", "support atoms must be distinct")
        object.__setattr__(self, "concentration", conc)
        object.__setattr__(self, "atoms", tuple(atoms))

    @property
    def k(self) -> int:
        return len(self.concentration)

    @cached_property
    def space(self) -> Space:
        if all(isinstance(a, str) for a in self.atoms):
            return FiniteAlphabet(tuple(sorted(self.atoms)))
        return RealLine()

    def posterior_alpha(self, history: Sample) -> np.ndarray:
        """Dirichlet parameters of the weights given the history: the
        concentration plus the atom counts, in ``atoms`` order.  The
        predictive law of the next observation is their normalisation."""
        counts = np.zeros(self.k)
        for v in history.values:
            if v not in self.atoms:
                raise FiniPostError("space-mismatch", f"value {v!r} is not a support atom")
            counts[self.atoms.index(v)] += 1.0
        return np.asarray(self.concentration) + counts

    def posterior_rows(self, history, draws, rng):
        W = rng.dirichlet(self.posterior_alpha(history), size=draws)
        return np.asarray(self.atoms)[None].repeat(draws, axis=0), W

    def row_width(self, history):
        return self.k

    def mass_law(self, history, x):
        # By aggregation: the posterior weights of the atoms on each side of x.
        alpha, below = self.posterior_alpha(history), np.asarray(self.atoms, dtype=float) <= x
        return _beta_law(float(alpha[below].sum()), float(alpha[~below].sum()))

    def predictive(self, history, f):
        weights = self.posterior_alpha(history)
        vals = _finite_values(f, self.atoms)
        return float(np.dot(weights, vals) / weights.sum())

    def pair_predictive(self, history, g):
        # Exact by one-step urn expansion: the outer draw conditions the
        # inner predictive.
        weights = self.posterior_alpha(history)
        A = weights.sum()
        total = 0.0
        for j, aj in enumerate(self.atoms):
            pj = weights[j] / A
            inner = weights.copy()
            inner[j] += 1.0
            for l, al in enumerate(self.atoms):
                total += pj * (inner[l] / (A + 1.0)) * float(g(aj, al))
        return total

    def prior_quantile(self, u):
        self._check_scalar("prior quantiles")
        atoms = np.asarray(self.atoms, dtype=float)
        order = np.argsort(atoms)
        w = np.asarray(self.concentration, dtype=float)
        cum = np.cumsum(w[order] / w.sum())
        return float(atoms[order][int(np.searchsorted(cum, u - 1e-12))])


def _finite_values(f: Callable, atoms: tuple) -> np.ndarray:
    vals = np.array([float(f(a)) for a in atoms])
    if not np.all(np.isfinite(vals)):
        raise FiniPostError("non-finite-integrand", "f is not finite on the support")
    return vals


# ---------------------------------------------------------------------------
# Dirichlet process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletProcessModel(ExchangeableModel):
    total_mass: float
    base: AnalyticLaw
    max_sticks: int = 4096
    residual_tol: float = 1e-8

    def __post_init__(self):
        _check_positive((self.total_mass,), "the total mass")
        _check_truncation(self.max_sticks, self.residual_tol)

    def _count_continuation(self, history: Sample, fresh: int, rows: int, rng: RngState) -> tuple:
        """The next ``fresh`` values of ``rows`` independent continuations,
        as counts: (x*, old, block_rows, block_cols, sizes, values).

        ``old[r, j]`` new values of row r repeat the distinct history value
        x*ⱼ, and block b puts ``sizes[b]`` copies of a fresh base value
        ``values[b]`` in row ``block_rows[b]``, opened at new position
        ``block_cols[b]``, in round-major order.  Exact in law: the counts on
        (x*₁…x*_K, new) are Dirichlet-multinomial(fresh; n₁…n_K, c), the
        multicolour Pólya urn (Blackwell & MacQueen 1973), and the a_new new
        values form an Ewens(c) partition whose blocks open where independent
        Bernoulli(c / (c + i)) marks, i = 0…a_new − 1, are 1 (the Feller
        coupling; Arratia, Barbour & Tavaré 2003, ch. 4).  No mark is drawn:
        after an opening at j, none at j+1…k has probability Π i/(c + i) =
        exp(G[j] − G[k]), G[k] = Σ_{i≤k} log1p(c/i), so the next opening is
        the first k with G[k] > G[j] − log1p(−U), one uniform U per block.
        """
        c = self.total_mass
        if len(history):
            xstar, counts = np.unique(history.scalars(), return_counts=True)
            drawn = rng.multinomial(fresh, rng.dirichlet(np.append(counts, c), size=rows))
            old, a_new = drawn[:, :-1], drawn[:, -1]
        else:
            xstar, old, a_new = np.empty(0), np.zeros((rows, 0), dtype=np.int64), np.full(rows, fresh)
        # One round per block, over the rows still opening blocks.
        G = np.concatenate([[0.0], np.cumsum(np.log1p(c / np.arange(1, fresh + 1)))])
        row, at = np.flatnonzero(a_new), np.zeros(np.count_nonzero(a_new), dtype=np.intp)
        blocks = [(np.empty(0, dtype=np.intp),) * 3]
        while row.size:
            nxt = np.searchsorted(G, G[at] - np.log1p(-rng.random(row.size)), side="right")
            blocks.append((row, at, np.minimum(nxt, a_new[row]) - at))
            keep = nxt < a_new[row]
            row, at = row[keep], nxt[keep]
        block_rows, block_cols, sizes = (np.concatenate(b) for b in zip(*blocks))
        values = np.asarray(self.base.sample(rng, sizes.size), dtype=float)
        return xstar, old, block_rows, block_cols, sizes, values

    def batched_continuation(self, history, out, rng):
        # Each row's multiset (history values, then fresh blocks) expanded and
        # shuffled uniformly: given its counts the continuation is
        # exchangeable, so every order of the multiset is equally likely.
        n, rows = len(history), out.shape[0]
        fresh = out.shape[1] - n
        xstar, old, block_rows, block_cols, sizes, values = self._count_continuation(history, fresh, rows, rng)
        k = xstar.size
        vals = np.zeros((rows, k + fresh))
        reps = np.zeros((rows, k + fresh), dtype=np.int64)
        vals[:, :k], reps[:, :k] = xstar, old
        vals[block_rows, k + block_cols], reps[block_rows, k + block_cols] = values, sizes
        _fill_shuffled(out[:, n:], vals, reps, rng)

    def f_means(self, history, upto, fvec, draws, rng):
        # The same counts, weighted: no sequence is built or shuffled.
        n = len(history)
        head = float(fvec(history.scalars()).sum()) if n else 0.0
        means = []
        for rows in _row_chunks(draws, upto):
            xstar, old, block_rows, _, sizes, values = self._count_continuation(history, upto - n, rows, rng)
            f = fvec(np.concatenate([xstar, values]))
            total = old @ f[: xstar.size] + np.bincount(block_rows, weights=sizes * f[xstar.size :], minlength=rows)
            means.append((head + total) / upto)
        return np.concatenate(means)

    def _history_part(self, history: Sample, draws: int, rng: RngState):
        """(x*, V·D, 1 − V) of ``draws`` posteriors V·Σⱼ Dⱼ δ_{x*ⱼ} + (1−V)·P′,
        one row per draw, with V ~ Beta(n, c), D ~ Dirichlet(n₁…n_K) on the K
        distinct history values and P′ ~ DP(c, base) independent (Ferguson
        1973); with no history V = 0 and no value is drawn."""
        if not len(history):
            return np.empty(0), np.zeros((draws, 0)), np.ones(draws)
        xstar, counts = np.unique(history.scalars(), return_counts=True)
        v = rng.beta(len(history), self.total_mass, size=draws)
        return xstar, v[:, None] * rng.dirichlet(counts, size=draws), 1.0 - v

    @cached_property
    def _stick_cap(self) -> int:
        """min(``max_sticks``, S), S = ⌈λ + L + √(L² + 2λL)⌉ with L = 53 ln 2: a row breaks 1 + Poisson(λ)
        sticks, λ ≤ c·ln(1/``residual_tol``), so more than S with probability ≤ 2⁻⁵³ (Bernstein's bound)."""
        lam, L = self.total_mass * -math.log(self.residual_tol), 53 * math.log(2)
        return min(self.max_sticks, math.ceil(lam + L + math.sqrt(L * L + 2 * lam * L)))

    def posterior_rows(self, history, draws, rng):
        """The K distinct history values, then the atoms of P′: at most
        ``_stick_cap`` sticks, then the truncation residual on one more."""
        xstar, w, scale = self._history_part(history, draws, rng)
        c, K = self.total_mass, xstar.size
        sticks = ((1.0, c),) * self._stick_cap
        atoms, weights = _truncated_sticks(sticks, self.base, self.residual_tol, rng, scale, lead=K)
        if K:
            weights[:, K:] *= scale[:, None]
            atoms[:, :K], weights[:, :K] = xstar, w
        return atoms, weights

    def row_width(self, history):
        """K distinct history values, ``_stick_cap`` sticks and the residual."""
        return len(set(history.values)) + self._stick_cap + 1

    def mass_law(self, history, x):
        # Beta(c F₀(x) + #{hist <= x}, c (1 - F₀(x)) + #{hist > x}), exact
        # (Ferguson 1973); a zero parameter, as under a point-mass base,
        # makes it the constant 0 or 1.
        c, below = self.total_mass, int(np.count_nonzero(history.scalars() <= x))
        F = float(self.base.cdf(x))
        return _beta_law(c * F + below, c * (1.0 - F) + len(history) - below)

    def predictive(self, history, f):
        c = self.total_mass
        tail = math.fsum(float(f(v)) for v in history.values)
        return (c * self.base.expect(f) + tail) / (c + len(history))

    def pair_predictive(self, history, g):
        # Exact by one-step urn expansion, as for the finite Dirichlet.
        c = self.total_mass
        n = len(history)
        hist = [float(v) for v in history.values]
        base = self.base
        if isinstance(g, NamedPairFunction):
            # Symmetric, so g(., v) and g(v, .) are the same named section.
            first_at, second_at, diagonal = g.section, g.section, g.diagonal
        else:
            first_at = lambda v: lambda x: g(x, v)  # noqa: E731
            second_at = lambda x: lambda y: g(x, y)  # noqa: E731
            diagonal = lambda x: g(x, x)  # noqa: E731

        pair_gg = base.pair_expect(g)                       # E g(X, Y), X, Y iid base
        diag = base.expect(diagonal)                        # E g(X, X)
        first_to_hist = [base.expect(first_at(v)) for v in hist]

        # inner(x) = E[g(x, second) | first = x]
        def inner(x: float) -> float:
            tail = math.fsum(float(g(x, v)) for v in hist)
            return (c * float(base.expect(second_at(x))) + tail + float(g(x, x))) / (c + n + 1.0)

        base_inner = (c * pair_gg + math.fsum(first_to_hist) + diag) / (c + n + 1.0)
        hist_inner = math.fsum(inner(v) for v in hist)
        return (c * base_inner + hist_inner) / (c + n)


# ---------------------------------------------------------------------------
# Stick-breaking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StickBreakingModel(ExchangeableModel):
    """Sticks V_k ~ Beta(a_k, b_k) independent, locations i.i.d. from base.

    ``beta_params`` lists (a_k, b_k) for k = 1, 2, ...: at least
    ``max_sticks`` pairs, since a row may break that many sticks; a shorter
    list is ``param-missing`` when the model is built, and the model keeps
    the first ``max_sticks``.
    """

    base: AnalyticLaw
    beta_params: tuple[tuple[float, float], ...]
    max_sticks: int = 4096
    residual_tol: float = 1e-8

    def __post_init__(self):
        # Each distinct pair is converted and checked once (a beta_rule repeats one for 2^20 sticks).
        pairs = {ab: _float_pair(ab) for ab in dict.fromkeys(self.beta_params)}
        _check_positive([x for ab in pairs.values() for x in ab], "stick Beta parameters")
        _check_truncation(self.max_sticks, self.residual_tol)
        if len(self.beta_params) < self.max_sticks:
            raise FiniPostError("param-missing", f"no Beta parameters for stick {len(self.beta_params) + 1}")
        params = tuple(self.beta_params[: self.max_sticks])
        if not all(pairs[ab] is ab for ab in params):
            params = tuple(map(pairs.get, params))
        object.__setattr__(self, "beta_params", params)

    def posterior_rows(self, history, draws, rng):
        if len(history) > 4:
            raise FiniPostError(
                "posterior-unavailable", "stick-breaking posteriors are only served for histories of length <= 4"
            )
        if not len(history):
            return self._prior_rows(draws, rng)
        return self._rejection_posterior(history, draws, rng)

    def row_width(self, history):
        return self.max_sticks + 1

    def _prior_rows(self, draws: int, rng: RngState) -> tuple[np.ndarray, np.ndarray]:
        return _truncated_sticks(self.beta_params, self.base, self.residual_tol, rng, np.ones(draws))

    def _rejection_posterior(self, history: Sample, draws: int, rng: RngState) -> tuple[np.ndarray, np.ndarray]:
        """Condition stick weights on a nonempty history by partition matching.

        Weights and locations are independent a priori and locations are
        i.i.d. from a non-atomic base, so conditioning on the observed values
        pins the locations of the sticks that produced them and constrains
        the weights only through the observation partition.  Rejection: draw
        candidate prior rows, assign the n observations to sticks by the
        stick weights, accept a row when the induced partition matches the
        observed one and put each history value on its stick.  Accepted rows
        are i.i.d. posterior draws, and the first ``draws`` are kept.
        Candidates come in batches, 16 per wanted row at first, doubling up
        to a block of 4e6 atoms.  A row with
        an observation in its truncation residual (its last weighted atom) is
        rejected outright (a bias of at most n times the residual tolerance).
        """
        values = history.scalars()
        same = values[:, None] == values[None, :]
        limit = max(1, 4_000_000 // self.row_width(history))
        kept, got, tries, batch = [], 0, 0, min(16 * draws, limit)
        while got < draws:
            if tries >= _REJECTION_CAP * draws:
                raise FiniPostError("posterior-unavailable", "rejection cap exceeded; partition too unlikely")
            atoms, weights = self._prior_rows(batch, rng)
            cum = np.cumsum(weights, axis=1)
            u = rng.random((batch, values.size))
            idx = np.minimum((cum[:, None, :] <= u[..., None]).sum(axis=2), cum.shape[1] - 1)
            row = np.arange(batch)[:, None]
            ok = ((idx[:, :, None] == idx[:, None, :]) == same).reshape(batch, -1).all(axis=1)
            ok &= (cum[row, idx] < cum[:, -1:]).all(axis=1)
            atoms, idx = atoms[ok], idx[ok]
            atoms[row[: idx.shape[0]], idx] = values
            kept.append((atoms, weights[ok]))
            got, tries, batch = got + idx.shape[0], tries + batch, min(2 * batch, limit)
        atoms, weights = _stack_rows(kept)
        return atoms[:draws], weights[:draws]

    def predictive(self, history, f):
        # With no history the next observation is a draw from the base.
        if len(history):
            raise FiniPostError(
                "posterior-unavailable", "the stick-breaking predictive has no closed form given a history"
            )
        return self.base.expect(f)


def _float_pair(ab: tuple) -> tuple[float, float]:
    a, b = ab
    return ab if type(ab) is tuple and type(a) is type(b) is float else (float(a), float(b))


# ---------------------------------------------------------------------------
# Stick machinery shared by the Dirichlet process and stick-breaking draws
# ---------------------------------------------------------------------------

def _truncated_sticks(
    betas: Sequence[tuple[float, float]],
    base: AnalyticLaw,
    residual_tol: float,
    rng: RngState,
    scale: np.ndarray,
    lead: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated stick-breaking draws, one row per entry of ``scale``, the
    mass of the row's measure inside a mixture.

    Sticks V_k ~ Beta(a_k, b_k), (a_k, b_k) = ``betas[k - 1]``, are broken
    in lockstep, one call per k over the rows still breaking: row r breaks
    while scale[r] times its residual is at least ``residual_tol`` and
    fewer than ``len(betas)`` sticks are drawn.  A Beta(1, b) stick, as every Dirichlet-process stick
    is, is one ``rng.random`` call inverted through its CDF 1 - (1 - v)^b
    (Devroye 1986, sec. II.2); any other is one ``rng.beta`` call.  Then one
    ``base.sample`` call draws every location, row by row, so a one-row
    call draws the stream of a sequential stick loop.  Returns (rows,
    ``lead`` + s) atom and weight arrays: ``lead`` columns for the caller to
    fill (atoms unset, weights 0), then the sticks, then the residual on one
    more atom, a row's stick weights summing to 1 up to rounding; a short
    row repeats its last atom with weight 0.
    """
    rows = scale.size
    alive = np.flatnonzero(scale >= residual_tol)
    res, sc = np.ones(alive.size), scale[alive]
    residual = np.ones(rows)
    broken, drawn = [], []  # the rows that break stick k, and its weights
    while alive.size and len(broken) < len(betas):
        a, b = betas[len(broken)]
        if a == 1.0:
            v = -np.expm1(np.log1p(-rng.random(alive.size)) / b)
        else:
            v = rng.beta(a, b, size=alive.size)
        broken.append(alive)
        drawn.append(res * v)
        res *= 1.0 - v
        keep = sc * res >= residual_tol
        if np.count_nonzero(keep) < alive.size:
            residual[alive] = res
            alive, res, sc = alive[keep], res[keep], sc[keep]
    residual[alive] = res
    # A row's stick count is the last k it broke (a stick can be exactly 0).
    out = np.zeros((rows, lead + len(broken) + 1))
    weights, sticks = out[:, lead:], np.zeros(rows, dtype=np.intp)
    for k, (at, w) in enumerate(zip(broken, drawn)):
        weights[at, k], sticks[at] = w, k + 1
    del broken, drawn
    weights[np.arange(rows), sticks] = residual
    # Row r takes the next sticks[r] + 1 locations and repeats its last one;
    # the lead columns take location 0 until the caller fills them.
    locs = np.asarray(base.sample(rng, int(sticks.sum()) + rows), dtype=float)
    index = np.zeros(out.shape, dtype=np.intp)
    np.minimum(np.arange(weights.shape[1]), sticks[:, None], out=index[:, lead:])
    index[:, lead:] += (np.cumsum(sticks + 1) - (sticks + 1))[:, None]
    return locs[index], out


def _stack_rows(blocks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Posterior rows from (atoms, weights) row blocks of differing widths: a
    short row repeats its last atom with weight 0."""
    width = max((x.shape[1] for x, _ in blocks), default=0)
    rows = sum(x.shape[0] for x, _ in blocks)
    atoms, weights = np.empty((rows, width)), np.zeros((rows, width))
    done = 0
    for x, w in blocks:
        block = slice(done, done + x.shape[0])
        atoms[block, : x.shape[1]], atoms[block, x.shape[1] :] = x, x[:, -1:]
        weights[block, : w.shape[1]] = w
        done = block.stop
    return atoms, weights


# ---------------------------------------------------------------------------
# Polya tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyaTreeModel(ExchangeableModel):
    """Random measure on nested dyadic quantile sets of an invertible CDF.

    ``params`` maps binary strings (node addresses, length 1..depth) to
    positive weights; ``level_alpha`` optionally supplies one weight per
    level as a fallback for addresses missing from ``params``.  Every law
    reads every level, so a node that neither gives is ``param-missing``
    when the model is built.  The laws run on one weight array per level,
    the node ``eps`` of level ``len(eps)`` at index ``int(eps, 2)``.
    """

    quantile_base: AnalyticLaw
    depth: int
    params: Mapping[str, float] = field(default_factory=dict)
    level_alpha: tuple[float, ...] | None = None
    _levels: tuple = field(init=False, repr=False, compare=False)
    _points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.depth < 1 or self.depth > 16:
            raise FiniPostError("config-error", f"depth must be in [1, 16], got {self.depth}")
        if isinstance(self.quantile_base, PointMassLaw):
            raise FiniPostError("config-error", "the quantile base must be invertible")
        for eps, a in self.params.items():
            if not eps or any(ch not in "01" for ch in eps) or len(eps) > self.depth:
                raise FiniPostError("config-error", f"bad node address {eps!r}")
            _check_positive((a,), f"alpha({eps})")
        if self.level_alpha is not None:
            la = tuple(float(a) for a in self.level_alpha)
            if len(la) != self.depth:
                raise FiniPostError("config-error", "level_alpha needs one entry per level")
            _check_positive(la, "level_alpha")
            object.__setattr__(self, "level_alpha", la)
        fill = self.level_alpha or (math.nan,) * self.depth
        levels = [np.full(2**level, fill[level - 1]) for level in range(1, self.depth + 1)]
        for eps, a in self.params.items():
            levels[len(eps) - 1][int(eps, 2)] = a
        for level, a in enumerate(levels, 1):
            if np.isnan(a).any():
                node = format(int(np.flatnonzero(np.isnan(a))[0]), f"0{level}b")
                raise FiniPostError("param-missing", f"no alpha for node {node!r}")
        object.__setattr__(self, "_levels", tuple(levels))
        points = self.quantile_base.quantile((np.arange(2**self.depth) + 0.5) / 2**self.depth)
        object.__setattr__(self, "_points", np.asarray(points, dtype=float))

    def _counts(self, history: Sample) -> list[np.ndarray]:
        """The history's count in each node set, level by level.

        The depth-d node holding x is ceil(F(x) 2^d) - 1, the dyadic
        interval (k/2^d, (k+1)/2^d] holding F(x) (the first one for F = 0);
        its ancestors are its leading bits."""
        d = self.depth
        u = np.asarray(self.quantile_base.cdf(history.scalars()), dtype=float)
        leaf = np.maximum(np.ceil(u * 2**d) - 1, 0).astype(np.int64)
        return [np.bincount(leaf >> (d - level), minlength=2**level).astype(float) for level in range(1, d + 1)]

    def _posterior(self, history: Sample) -> list[np.ndarray]:
        return [a + c for a, c in zip(self._levels, self._counts(history))]

    def posterior_rows(self, history, draws, rng):
        # Draw every branch probability, one Beta call per level for all
        # rows, and take products down to the leaves.
        probs = np.ones((draws, 1))
        for a in self._posterior(history):
            v = rng.beta(a[0::2], a[1::2], size=(draws, a.size // 2))
            probs = np.stack([probs * v, probs * (1.0 - v)], axis=-1).reshape(draws, 2 * probs.shape[1])
        return self._points[None].repeat(draws, axis=0), probs

    def row_width(self, history):
        return 2**self.depth

    def predictive(self, history, f):
        total = 0.0
        for p, x in zip(_leaf_probs(self._posterior(history)).tolist(), self._points.tolist()):
            total += p * float(f(x))
        return total

    def pair_predictive(self, history, g):
        # Exact leaf enumeration, up to 20 000 leaf pairs (depth 7): the
        # first leaf adds one count along its path before the second is drawn.
        if 4**self.depth > 20_000:
            raise FiniPostError("resource-limit", f"{4**self.depth} leaf pairs at depth {self.depth}, over 20000")
        post = self._posterior(history)
        points = self._points.tolist()
        total = 0.0
        for leaf1, p1 in enumerate(_leaf_probs(post).tolist()):
            if p1 == 0.0:
                continue
            after = [a.copy() for a in post]
            for level, a in enumerate(after, 1):
                a[leaf1 >> (self.depth - level)] += 1.0
            for p2, y in zip(_leaf_probs(after).tolist(), points):
                total += p1 * p2 * float(g(points[leaf1], y))
        return total

    def prior_quantile(self, u):
        cum = np.cumsum(_leaf_probs(self._levels))
        return float(self._points[int(np.searchsorted(cum, u - 1e-12))])


def _leaf_probs(levels: Sequence[np.ndarray]) -> np.ndarray:
    """Mean probability of every node set of the deepest level: each node
    times its weight over the weight of its sibling pair, level by level."""
    probs = np.ones(1)
    for a in levels:
        probs = np.repeat(probs, 2) * (a / np.repeat(a[0::2] + a[1::2], 2))
    return probs


# ---------------------------------------------------------------------------
# Fixed law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedLawModel(ExchangeableModel):
    """Deterministic directing measure: observations are i.i.d. from base."""

    base: AnalyticLaw

    def batched_continuation(self, history, out, rng):
        n = len(history)
        out[:, n:] = self.base.sample(rng, (out.shape[0], out.shape[1] - n))

    def mass_law(self, history, x):
        return float(self.base.cdf(x))

    def predictive(self, history, f):
        return self.base.expect(f)

    def pair_predictive(self, history, g):
        return self.base.pair_expect(g)


# ---------------------------------------------------------------------------
# The law functions: shared checks, then one call on the model
# ---------------------------------------------------------------------------

def _check_history(model: ExchangeableModel, history: Sample) -> None:
    if len(history) and history.space != model.space:
        raise FiniPostError("space-mismatch", f"history on {history.space}, model on {model.space}")


def _check_horizon(history: Sample, upto: int) -> None:
    if upto < len(history):
        raise FiniPostError("bad-horizon", f"target length {upto} below history length {len(history)}")


def sample_sequence(model: ExchangeableModel, n: int, rng: RngState) -> Sample:
    """Draw the first n terms of the model's exchangeable sequence."""
    if n < 0:
        raise FiniPostError("bad-length", f"sequence length must be >= 0, got {n}")
    return continue_sequence(model, Sample((), space=model.space), n, rng)


def continue_sequence(model: ExchangeableModel, history: Sample, upto: int, rng: RngState) -> Sample:
    """Extend an observed prefix to length ``upto`` under the conditional law.

    The first ``len(history)`` entries of the result equal the history.
    """
    _check_horizon(history, upto)
    _check_history(model, history)
    if upto == len(history):
        return history
    return Sample(tuple(_sequence_rows(model, history, upto, 1, rng)[0].tolist()), space=model.space)


def posterior_draw(model: ExchangeableModel, history: Sample, rng: RngState) -> AtomicMeasure:
    """One draw of the directing measure given the observed prefix: the row
    of a one-row ``batched_posterior_rows``, zero weights dropped."""
    atoms, weights = batched_posterior_rows(model, history, 1, rng)
    return AtomicMeasure(zip(atoms[0].tolist(), weights[0].tolist()), space=model.space)


def batched_posterior_rows(
    model: ExchangeableModel, history: Sample, draws: int, rng: RngState
) -> tuple[np.ndarray, np.ndarray]:
    """``draws`` independent draws of the directing measure given the
    observed prefix, as (draws, s) atom and weight arrays, one draw per row;
    a row with fewer than s atoms repeats its last atom with weight 0.

    The finite Dirichlet makes one Dirichlet call (its atoms, labels too,
    are the same in every row), the Polya tree one Beta call per level, and
    the stick models one call per stick index over the rows still breaking
    (see ``_truncated_sticks``).  ``model.row_width(history)`` bounds s.
    """
    _check_history(model, history)
    return model.posterior_rows(history, draws, rng)


def predictive_expectation(model: ExchangeableModel, history: Sample, f: Callable) -> float:
    """E[f(next observation) | history], exact; the stick-breaking model
    given a history has no closed form and is refused with
    ``posterior-unavailable``.  Where the base law enters, a named test
    function of ``families`` takes its closed form there; any other callable
    is integrated against the base law by quadrature."""
    _check_history(model, history)
    return model.predictive(history, f)


def predictive_expectation_mc(
    model: ExchangeableModel, history: Sample, f: Callable, mc_draws: int, rng: RngState
) -> tuple[float, float]:
    """Monte Carlo E[f(next observation) | history] for any scalar model: the
    mean of f over the next value of ``mc_draws`` independent continuations,
    with its standard error."""
    if mc_draws < 2:
        raise FiniPostError("config-error", f"a standard error needs mc_draws >= 2, got {mc_draws}")
    n = len(history)
    block = batched_sequences(model, history, n + 1, mc_draws, rng)
    return _mc_mean([float(f(v)) for v in block[:, n].tolist()])


def predictive_pair_expectation(model: ExchangeableModel, history: Sample, g: Callable) -> float:
    """E[g(next, next-but-one) | history], exact: by one-step urn expansion
    for the Dirichlet models, by leaf enumeration for Polya trees of depth at
    most 7 (deeper is ``resource-limit``), by product integrals for the fixed
    law; the stick-breaking model has none (``posterior-unavailable``).
    Base-law integrals of a named pair function of ``families`` and of its
    sections and diagonal are closed forms; any other callable goes to
    ``quad``/``dblquad``."""
    _check_history(model, history)
    return model.pair_predictive(history, g)


def batched_sequences(
    model: ExchangeableModel, history: Sample, upto: int, draws: int, rng: RngState
) -> np.ndarray:
    """``draws`` independent continuations to length ``upto``, as a matrix.

    Returns a (draws, upto) float matrix whose first columns repeat the
    history.  Scalar models only.  Each row draws its new values as
    counts, shuffled: on the atoms of one posterior row (in row blocks of
    at most 4e6 atoms), or on the history values and fresh base values for
    the Dirichlet process; the fixed law samples the block at once.
    ``continue_sequence`` is one row of it.
    """
    _check_horizon(history, upto)
    _check_history(model, history)
    model._check_scalar("batched sequences")
    return _sequence_rows(model, history, upto, draws, rng)


def batched_sequence_blocks(
    model: ExchangeableModel, history: Sample, upto: int, draws: int, rng: RngState
) -> Iterator[np.ndarray]:
    """``batched_sequences`` in row blocks of at most 4e6 entries (bounding
    peak memory); the blocks hold ``draws`` rows in all."""
    for rows in _row_chunks(draws, upto):
        yield batched_sequences(model, history, upto, rows, rng)


def _row_chunks(draws: int, upto: int) -> Iterator[int]:
    """Row counts of ``draws`` rows of width ``upto`` in blocks of at most
    4e6 entries (one row at least)."""
    chunk = max(1, 4_000_000 // max(upto, 1))
    for done in range(0, draws, chunk):
        yield min(chunk, draws - done)


def batched_f_means(
    model: ExchangeableModel,
    history: Sample,
    upto: int,
    fvec: Callable[[np.ndarray], np.ndarray],
    draws: int,
    rng: RngState,
) -> np.ndarray:
    """f-means of ``draws`` independent continuations to length ``upto``.

    ``fvec`` must accept a float vector.  Scalar models only.  Rows are
    drawn in the blocks of ``batched_sequence_blocks``; the Dirichlet
    process weighs its continuation counts and builds no sequence.
    """
    _check_horizon(history, upto)
    _check_history(model, history)
    model._check_scalar("batched f-means")
    return model.f_means(history, upto, fvec, draws, rng)


def _sequence_rows(
    model: ExchangeableModel, history: Sample, upto: int, draws: int, rng: RngState
) -> np.ndarray:
    # Labels ride in an object matrix, so sequences on both spaces share it.
    out = np.empty((draws, upto), dtype=float if isinstance(model.space, RealLine) else object)
    out[:, : len(history)] = history.values
    if upto > len(history):
        model.batched_continuation(history, out, rng)
    return out


def batched_posterior_integrals(
    model: ExchangeableModel,
    history: Sample,
    fvec: Callable[[np.ndarray], np.ndarray],
    draws: int,
    rng: RngState,
) -> np.ndarray:
    """``draws`` independent values of the f-integral of a posterior draw.

    ``fvec`` must accept a float array.  Scalar models only.  Each value
    is Σ W·f(X) over one of ``batched_posterior_rows``, drawn in row blocks
    of at most 4e6 atoms.
    """
    _check_history(model, history)
    model._check_scalar("batched posterior integrals")
    sums = []
    for rows in _row_chunks(draws, model.row_width(history)):
        atoms, weights = model.posterior_rows(history, rows, rng)
        weights *= fvec(atoms)
        sums.append(weights.sum(axis=1))
        del atoms, weights  # before the next block is drawn
    return np.concatenate([np.empty(0), *sums])


# ---------------------------------------------------------------------------
# JSON model configuration
# ---------------------------------------------------------------------------

def model_from_spec(spec: dict) -> ExchangeableModel:
    """Build a model from its JSON object form (see the config schema)."""
    from .families import family_from_spec

    if not isinstance(spec, dict) or "kind" not in spec:
        raise FiniPostError("config-error", f"not a model spec: {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "finite_dirichlet":
            atoms = spec.get("atoms", ())
            if not isinstance(atoms, (list, tuple)):
                raise FiniPostError("config-error", f"atoms must be a list, not {atoms!r}")
            alpha = tuple(config_float(a, "alpha") for a in spec["alpha"])
            return FiniteDirichletModel(alpha, tuple(atoms))
        if kind == "dirichlet_process":
            return DirichletProcessModel(
                config_float(spec["mass"], "mass"),
                family_from_spec(spec["base"]),
                config_int(spec.get("max_sticks", 4096), "max_sticks"),
                config_float(spec.get("residual_tol", 1e-8), "residual_tol"),
            )
        if kind == "stick_breaking":
            if ("beta_rule" in spec) == ("beta_params" in spec):
                raise FiniPostError("config-error", "give exactly one of beta_params or beta_rule")
            max_sticks = config_int(spec.get("max_sticks", 4096), "max_sticks")
            if "beta_rule" in spec:
                # One (a, b) pair for every stick a row may break: bound the
                # list's length before building it.
                if max_sticks > _RULE_STICKS_CAP:
                    raise FiniPostError("resource-limit", f"beta_rule for {max_sticks} sticks, over {_RULE_STICKS_CAP}")
                params = (tuple(config_float(spec["beta_rule"][key], "beta_rule") for key in "ab"),) * max_sticks
            else:
                params = tuple(tuple(config_float(x, "beta_params") for x in ab) for ab in spec["beta_params"])
            return StickBreakingModel(
                family_from_spec(spec["base"]),
                params,
                max_sticks,
                config_float(spec.get("residual_tol", 1e-8), "residual_tol"),
            )
        if kind == "polya_tree":
            level_alpha = spec.get("level_alpha")
            return PolyaTreeModel(
                family_from_spec(spec["base"]),
                config_int(spec["depth"], "depth"),
                {eps: config_float(a, "params") for eps, a in dict(spec.get("params", {})).items()},
                None if level_alpha is None else tuple(config_float(a, "level_alpha") for a in level_alpha),
            )
        if kind == "fixed":
            return FixedLawModel(family_from_spec(spec["base"]))
    except FiniPostError:
        raise
    except KeyError as exc:
        raise FiniPostError("config-error", f"model spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FiniPostError("config-error", f"malformed model spec: {exc}") from exc
    raise FiniPostError("config-error", f"unknown model kind {kind!r}")
