"""Exchangeable-sequence models: predictive sampling, sequence continuation,
and posterior draws of the directing random measure.

Five concrete models share one operation surface:

* ``FiniteDirichletModel`` -- conjugate Dirichlet weights on k fixed atoms,
  sampled by the classic urn; posteriors are exact Dirichlet draws.
* ``DirichletProcessModel`` -- Blackwell-MacQueen urn over an analytic base;
  posteriors are drawn by the conjugate decomposition: exact Beta/Dirichlet
  weights on the distinct history values plus a truncated stick-breaking
  draw of the prior, whose residual mass goes to one extra atom.
* ``StickBreakingModel`` -- general independent Beta(a_k, b_k) sticks; the
  posterior has no tractable form and is served by partition-matching
  rejection for histories of at most four points.
* ``PolyaTreeModel`` -- dyadic quantile partition of an invertible base CDF
  with Beta-distributed branch probabilities; fully conjugate, observations
  are emitted at quantile-interval midpoints of the deepest level.
* ``FixedLawModel`` -- a deterministic directing measure, the degenerate
  carrier used by median-law experiments.

Every operation takes its random state explicitly; see ``rng``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import FiniPostError, config_float, config_int
from .families import AnalyticLaw, NamedPairFunction, PointMassLaw
from .measures import AtomicMeasure, FiniteAlphabet, RealLine, Sample, Space
from .rng import RngState

__all__ = [
    "FiniteDirichletModel",
    "DirichletProcessModel",
    "StickBreakingModel",
    "PolyaTreeModel",
    "FixedLawModel",
    "ExchangeableModel",
    "model_space",
    "sample_sequence",
    "continue_sequence",
    "posterior_draw",
    "predictive_expectation",
    "predictive_expectation_mc",
    "predictive_pair_expectation",
    "polya_tree_marginal",
    "model_from_spec",
    "batched_sequences",
    "batched_fd_empirical_counts",
    "batched_posterior_integrals",
]

_REJECTION_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteDirichletModel:
    """Dirichlet-distributed weights on a fixed finite support.

    ``atoms`` may be labels (a genuine finite alphabet) or scalars (a
    finite support embedded in the real line, so that scalar estimators
    apply).
    """

    concentration: tuple[float, ...]
    atoms: tuple = ()

    def __post_init__(self):
        conc = tuple(float(a) for a in self.concentration)
        if len(conc) < 2:
            raise FiniPostError("config-error", "need an alphabet of size >= 2")
        if any(a <= 0 for a in conc):
            raise FiniPostError("config-error", "all concentration parameters must be positive")
        atoms = self.atoms if self.atoms else tuple(f"a{i + 1}" for i in range(len(conc)))
        if len(atoms) != len(conc):
            raise FiniPostError("config-error", "atoms and concentration lengths differ")
        if len(set(atoms)) != len(atoms):
            raise FiniPostError("config-error", "support atoms must be distinct")
        object.__setattr__(self, "concentration", conc)
        object.__setattr__(self, "atoms", tuple(atoms))

    @property
    def k(self) -> int:
        return len(self.concentration)

    @property
    def space(self) -> Space:
        if all(isinstance(a, str) for a in self.atoms):
            return FiniteAlphabet(tuple(sorted(self.atoms)))
        return RealLine()

    def atom_index(self, value) -> int:
        try:
            return self.atoms.index(value)
        except ValueError:
            raise FiniPostError("space-mismatch", f"value {value!r} is not a support atom") from None

    def posterior_alpha(self, history: Sample) -> np.ndarray:
        """Dirichlet parameters of the weights given the history: the
        concentration plus the atom counts, in ``atoms`` order.  The
        predictive law of the next observation is their normalisation."""
        return np.asarray(self.concentration) + _fd_counts(self, history)


@dataclass(frozen=True)
class DirichletProcessModel:
    total_mass: float
    base: AnalyticLaw
    max_sticks: int = 4096
    residual_tol: float = 1e-8

    def __post_init__(self):
        if self.total_mass <= 0:
            raise FiniPostError("config-error", "total mass must be positive")
        _check_truncation(self.max_sticks, self.residual_tol)

    @property
    def space(self) -> Space:
        return RealLine()


@dataclass(frozen=True)
class StickBreakingModel:
    """Sticks V_k ~ Beta(a_k, b_k) independent, locations i.i.d. from base."""

    base: AnalyticLaw
    beta_params: tuple[tuple[float, float], ...] | None = None
    beta_rule: Callable[[int], tuple[float, float]] | None = None
    max_sticks: int = 4096
    residual_tol: float = 1e-8

    def __post_init__(self):
        if (self.beta_params is None) == (self.beta_rule is None):
            raise FiniPostError("config-error", "give exactly one of beta_params or beta_rule")
        if self.beta_params is not None:
            params = tuple((float(a), float(b)) for a, b in self.beta_params)
            if any(a <= 0 or b <= 0 for a, b in params):
                raise FiniPostError("config-error", "stick Beta parameters must be positive")
            object.__setattr__(self, "beta_params", params)
        _check_truncation(self.max_sticks, self.residual_tol)

    def stick_beta(self, k: int) -> tuple[float, float]:
        """Beta parameters of the k-th stick (k is 1-based)."""
        if self.beta_rule is not None:
            a, b = self.beta_rule(k)
            if a <= 0 or b <= 0:
                raise FiniPostError("config-error", f"stick rule gave nonpositive parameters at k={k}")
            return float(a), float(b)
        if k > len(self.beta_params):
            raise FiniPostError("param-missing", f"no Beta parameters for stick {k}")
        return self.beta_params[k - 1]

    @property
    def space(self) -> Space:
        return RealLine()


@dataclass(frozen=True)
class PolyaTreeModel:
    """Random measure on nested dyadic quantile sets of an invertible CDF.

    ``params`` maps binary strings (node addresses, length 1..depth) to
    positive weights; ``level_alpha`` optionally supplies one weight per
    level as a fallback for addresses missing from ``params``.
    """

    quantile_base: AnalyticLaw
    depth: int
    params: Mapping[str, float] = field(default_factory=dict)
    level_alpha: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.depth < 1 or self.depth > 16:
            raise FiniPostError("config-error", f"depth must be in [1, 16], got {self.depth}")
        if isinstance(self.quantile_base, PointMassLaw):
            raise FiniPostError("config-error", "the quantile base must be invertible")
        for eps, a in self.params.items():
            if not eps or any(ch not in "01" for ch in eps) or len(eps) > self.depth:
                raise FiniPostError("config-error", f"bad node address {eps!r}")
            if a <= 0:
                raise FiniPostError("config-error", f"alpha({eps}) must be positive")
        if self.level_alpha is not None:
            la = tuple(float(a) for a in self.level_alpha)
            if len(la) != self.depth or any(a <= 0 for a in la):
                raise FiniPostError("config-error", "level_alpha needs one positive entry per level")
            object.__setattr__(self, "level_alpha", la)

    def alpha(self, eps: str) -> float:
        if eps in self.params:
            return float(self.params[eps])
        if self.level_alpha is not None and 1 <= len(eps) <= self.depth:
            return self.level_alpha[len(eps) - 1]
        raise FiniPostError("param-missing", f"no alpha for node {eps!r}")

    @property
    def space(self) -> Space:
        return RealLine()

    def leaf_point(self, bits: str) -> float:
        lo = sum(int(b) / 2 ** (i + 1) for i, b in enumerate(bits))
        return float(self.quantile_base.quantile(lo + 1.0 / 2 ** (len(bits) + 1)))

    def path_bits(self, x: float) -> str:
        """Dyadic address of the depth-level quantile set containing x."""
        u = float(self.quantile_base.cdf(x))
        bits = []
        for _ in range(self.depth):
            u *= 2.0
            if u > 1.0:
                bits.append("1")
                u -= 1.0
            else:
                bits.append("0")
        return "".join(bits)


@dataclass(frozen=True)
class FixedLawModel:
    """Deterministic directing measure: observations are i.i.d. from base."""

    base: AnalyticLaw

    @property
    def space(self) -> Space:
        return RealLine()


ExchangeableModel = (
    FiniteDirichletModel
    | DirichletProcessModel
    | StickBreakingModel
    | PolyaTreeModel
    | FixedLawModel
)


def _check_truncation(max_sticks: int, residual_tol: float) -> None:
    if max_sticks < 8:
        raise FiniPostError("config-error", f"max_sticks must be >= 8, got {max_sticks}")
    if not (0.0 < residual_tol <= 1e-3):
        raise FiniPostError("config-error", f"residual_tol must be in (0, 1e-3], got {residual_tol}")


def model_space(model: ExchangeableModel) -> Space:
    return model.space


def _check_history(model: ExchangeableModel, history: Sample) -> None:
    if len(history) and history.space != model.space:
        raise FiniPostError("space-mismatch", f"history on {history.space}, model on {model.space}")


# ---------------------------------------------------------------------------
# Sequence sampling
# ---------------------------------------------------------------------------

def sample_sequence(model: ExchangeableModel, n: int, rng: RngState) -> Sample:
    """Draw the first n terms of the model's exchangeable sequence."""
    if n < 0:
        raise FiniPostError("bad-length", f"sequence length must be >= 0, got {n}")
    return continue_sequence(model, Sample((), space=model.space), n, rng)


def continue_sequence(model: ExchangeableModel, history: Sample, upto: int, rng: RngState) -> Sample:
    """Extend an observed prefix to length ``upto`` under the conditional law.

    The first ``len(history)`` entries of the result equal the history.
    """
    n = len(history)
    if upto < n:
        raise FiniPostError("bad-horizon", f"target length {upto} below history length {n}")
    _check_history(model, history)
    if upto == n:
        return history

    if isinstance(model, FiniteDirichletModel):
        values = list(history.values)
        total = sum(model.concentration) + n
        weights = model.posterior_alpha(history)
        for _ in range(upto - n):
            j = _categorical(weights / total, rng)
            values.append(model.atoms[j])
            weights[j] += 1.0
            total += 1.0
        return Sample(tuple(values), space=model.space)

    if isinstance(model, DirichletProcessModel):
        c = model.total_mass
        values = [float(v) for v in history.values]
        for i in range(n, upto):
            if rng.random() < c / (c + i):
                values.append(float(model.base.sample(rng)))
            else:
                values.append(values[int(rng.integers(0, i))])
        return Sample(tuple(values), space=model.space)

    if isinstance(model, StickBreakingModel):
        measure = posterior_draw(model, history, rng)
        new = _iid_from_measure(measure, upto - n, rng)
        return Sample(tuple(history.values) + new, space=model.space)

    if isinstance(model, PolyaTreeModel):
        return _pt_continue(model, history, upto, rng)

    if isinstance(model, FixedLawModel):
        new = tuple(float(v) for v in np.atleast_1d(model.base.sample(rng, upto - n)))
        return Sample(tuple(history.values) + new, space=model.space)

    raise FiniPostError("config-error", f"unknown model type {type(model).__name__}")


def _fd_counts(model: FiniteDirichletModel, history: Sample) -> np.ndarray:
    counts = np.zeros(model.k)
    for v in history.values:
        counts[model.atom_index(v)] += 1.0
    return counts


def _categorical(probs: np.ndarray, rng: RngState) -> int:
    cum = np.cumsum(probs)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def _iid_from_measure(measure: AtomicMeasure, n: int, rng: RngState) -> tuple:
    cum = np.cumsum(measure.weights)
    idx = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
    idx = np.minimum(idx, len(measure.points) - 1)
    return tuple(measure.points[i] for i in idx)


def _pt_continue(model: PolyaTreeModel, history: Sample, upto: int, rng: RngState) -> Sample:
    # Urn at every node: each new point descends the tree, choosing the
    # left child with posterior-mean branch probability given all points
    # seen so far (conjugate Beta-binomial at each node).
    counts: dict[str, float] = {}

    def bump(bits: str) -> None:
        for i in range(1, len(bits) + 1):
            key = bits[:i]
            counts[key] = counts.get(key, 0.0) + 1.0

    for v in history.values:
        bump(model.path_bits(float(v)))

    values = list(history.values)
    for _ in range(upto - len(history)):
        node = ""
        for _level in range(model.depth):
            a0 = model.alpha(node + "0") + counts.get(node + "0", 0.0)
            a1 = model.alpha(node + "1") + counts.get(node + "1", 0.0)
            node += "0" if rng.random() < a0 / (a0 + a1) else "1"
        bump(node)
        values.append(model.leaf_point(node))
    return Sample(tuple(values), space=model.space)


# ---------------------------------------------------------------------------
# Stick machinery shared by the Dirichlet process and stick-breaking draws
# ---------------------------------------------------------------------------

def _truncated_sticks(
    beta_at: Callable[[int], tuple[float, float]],
    max_sticks: int,
    residual_tol: float,
    rng: RngState,
    scale: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Stick weights until ``scale`` times the residual falls below tolerance
    or the cap.  ``scale`` is the mass of the whole measure inside a mixture.

    Returns (weights, residual); weights sum to 1 - residual up to float
    rounding.
    """
    weights: list[float] = []
    residual = 1.0
    k = 0
    while scale * residual >= residual_tol and k < max_sticks:
        k += 1
        a, b = beta_at(k)
        v = rng.beta(a, b)
        weights.append(residual * v)
        residual *= 1.0 - v
    return np.asarray(weights, dtype=float), residual


def _stick_atoms(
    model: DirichletProcessModel | StickBreakingModel, beta_at: Callable, rng: RngState, scale: float = 1.0
) -> list[tuple[float, float]]:
    """Atoms of a truncated stick-breaking measure of total mass ``scale``
    under ``model``'s truncation and base: all sticks, then i.i.d. base
    locations, the last one carrying the residual."""
    sticks, residual = _truncated_sticks(beta_at, model.max_sticks, model.residual_tol, rng, scale)
    locs = np.asarray(model.base.sample(rng, sticks.size + 1), dtype=float)
    return list(zip(locs.tolist(), (scale * np.append(sticks, residual)).tolist()))


def _dp_history_part(model: DirichletProcessModel, history: Sample, rng: RngState, size: int | None = None):
    """(x*, V·D, 1 − V) of the DP posterior V·Σⱼ Dⱼ δ_{x*ⱼ} + (1−V)·P′, with
    V ~ Beta(n, c), D ~ Dirichlet(n₁…n_K) on the K distinct history values
    and P′ ~ DP(c, base) independent (Ferguson 1973); one row per draw when
    ``size`` is given.  The history must be nonempty."""
    xstar, counts = np.unique(history.scalars(), return_counts=True)
    v = rng.beta(len(history), model.total_mass, size=size)
    d = rng.dirichlet(counts, size=size)
    return xstar, np.expand_dims(v, -1) * d, 1.0 - v


# ---------------------------------------------------------------------------
# Posterior draws
# ---------------------------------------------------------------------------

def posterior_draw(model: ExchangeableModel, history: Sample, rng: RngState) -> AtomicMeasure:
    """One draw of the directing measure given the observed prefix."""
    _check_history(model, history)
    n = len(history)

    if isinstance(model, FiniteDirichletModel):
        w = rng.dirichlet(model.posterior_alpha(history))
        return AtomicMeasure(list(zip(model.atoms, w)), space=model.space)

    if isinstance(model, DirichletProcessModel):
        atoms, scale = [], 1.0
        if n:
            xstar, w, scale = _dp_history_part(model, history, rng)
            atoms = list(zip(xstar.tolist(), w.tolist()))
        atoms += _stick_atoms(model, lambda _k: (1.0, model.total_mass), rng, scale)
        return AtomicMeasure(atoms, space=model.space)

    if isinstance(model, StickBreakingModel):
        if n == 0:
            return AtomicMeasure(_stick_atoms(model, model.stick_beta, rng), space=model.space)
        if n > 4:
            raise FiniPostError(
                "posterior-unavailable",
                "stick-breaking posteriors are only served for histories of length <= 4",
            )
        return _sb_rejection_posterior(model, history, rng)

    if isinstance(model, PolyaTreeModel):
        return _pt_posterior_measure(model, history, rng)

    if isinstance(model, FixedLawModel):
        raise FiniPostError(
            "posterior-unavailable", "a fixed law has no finite-support posterior representation"
        )

    raise FiniPostError("config-error", f"unknown model type {type(model).__name__}")


def _history_pattern(values: Sequence) -> tuple[int, ...]:
    seen: dict = {}
    out = []
    for v in values:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def _sb_rejection_posterior(model: StickBreakingModel, history: Sample, rng: RngState) -> AtomicMeasure:
    """Condition stick weights on the history by partition matching.

    Weights and locations are independent a priori and locations are
    i.i.d. from a non-atomic base, so conditioning on the observed values
    pins the locations of the sticks that produced them and constrains
    the weights only through the observation partition.  Rejection: draw
    sticks, assign the n observations to sticks by the stick weights,
    accept when the induced partition matches the observed one.  Draws
    landing in the truncation residual are rejected outright (a bias of
    at most n times the residual tolerance).
    """
    n = len(history)
    target = _history_pattern(history.values)
    distinct: list[float] = []
    for v in history.values:
        if v not in distinct:
            distinct.append(float(v))

    for _ in range(_REJECTION_CAP):
        sticks, residual = _truncated_sticks(model.stick_beta, model.max_sticks, model.residual_tol, rng)
        cum = np.cumsum(sticks)
        u = rng.random(n)
        if np.any(u >= cum[-1]):
            continue
        idx = np.searchsorted(cum, u, side="right")
        if _history_pattern(idx.tolist()) != target:
            continue
        locs = np.asarray(model.base.sample(rng, sticks.size + 1), dtype=float)
        for pos, cluster in enumerate(_cluster_sticks(idx, target)):
            locs[cluster] = distinct[pos]
        atoms = [(float(locs[i]), w) for i, w in enumerate(sticks)]
        atoms.append((float(locs[-1]), residual))
        return AtomicMeasure(atoms, space=model.space)
    raise FiniPostError("posterior-unavailable", "rejection cap exceeded; partition too unlikely")


def _cluster_sticks(idx: np.ndarray, pattern: tuple[int, ...]) -> list[int]:
    """Stick index backing each observation cluster, in first-appearance order."""
    out: dict[int, int] = {}
    for stick, lab in zip(idx.tolist(), pattern):
        out.setdefault(lab, stick)
    return [out[lab] for lab in range(len(out))]


def _pt_posterior_alpha(model: PolyaTreeModel, history: Sample) -> Callable[[str], float]:
    counts: dict[str, float] = {}
    for v in history.values:
        bits = model.path_bits(float(v))
        for i in range(1, len(bits) + 1):
            key = bits[:i]
            counts[key] = counts.get(key, 0.0) + 1.0
    return lambda eps: model.alpha(eps) + counts.get(eps, 0.0)


def _pt_posterior_measure(model: PolyaTreeModel, history: Sample, rng: RngState) -> AtomicMeasure:
    alpha = _pt_posterior_alpha(model, history)
    # Draw every branch probability, then take products down to the leaves.
    probs = {"": 1.0}
    for level in range(model.depth):
        for node in _nodes_at(level):
            v = rng.beta(alpha(node + "0"), alpha(node + "1"))
            probs[node + "0"] = probs[node] * v
            probs[node + "1"] = probs[node] * (1.0 - v)
    atoms = [(model.leaf_point(leaf), probs[leaf]) for leaf in _nodes_at(model.depth)]
    return AtomicMeasure(atoms, space=model.space)


def _nodes_at(level: int) -> list[str]:
    if level == 0:
        return [""]
    return [format(i, f"0{level}b") for i in range(2**level)]


# ---------------------------------------------------------------------------
# Predictive expectations
# ---------------------------------------------------------------------------

def predictive_expectation(
    model: ExchangeableModel,
    history: Sample,
    f: Callable,
    mc_draws: int | None = None,
    rng: RngState | None = None,
) -> float:
    """E[f(next observation) | history], exact wherever a closed form exists.

    Exact for the Dirichlet models, the Polya tree, the fixed law, and
    the stick-breaking prior with no history; Monte Carlo (requiring
    ``mc_draws`` and ``rng``) otherwise.  Where the base law enters (the
    Dirichlet process, the fixed law, the stick-breaking prior), a named
    test function of ``families`` takes its closed form there; any other
    callable is integrated against the base law by quadrature.
    """
    value, _ = predictive_expectation_mc(model, history, f, mc_draws, rng)
    return value


def predictive_expectation_mc(
    model: ExchangeableModel,
    history: Sample,
    f: Callable,
    mc_draws: int | None = None,
    rng: RngState | None = None,
) -> tuple[float, float]:
    """As :func:`predictive_expectation`, returning (value, standard error);
    the standard error is zero on exact paths."""
    _check_history(model, history)
    n = len(history)

    if isinstance(model, FiniteDirichletModel):
        weights = model.posterior_alpha(history)
        vals = _finite_values(f, model.atoms)
        return float(np.dot(weights, vals) / weights.sum()), 0.0

    if isinstance(model, DirichletProcessModel):
        c = model.total_mass
        tail = math.fsum(float(f(v)) for v in history.values)
        return (c * model.base.expect(f) + tail) / (c + n), 0.0

    if isinstance(model, PolyaTreeModel):
        alpha = _pt_posterior_alpha(model, history)
        total = 0.0
        for leaf in _nodes_at(model.depth):
            total += _pt_leaf_prob(alpha, leaf) * float(f(model.leaf_point(leaf)))
        return total, 0.0

    if isinstance(model, FixedLawModel):
        return model.base.expect(f), 0.0

    if isinstance(model, StickBreakingModel):
        if n == 0:
            return model.base.expect(f), 0.0
        if mc_draws is None or rng is None:
            raise FiniPostError(
                "posterior-unavailable",
                "stick-breaking predictive with history needs mc_draws and an rng",
            )
        vals = np.empty(mc_draws)
        for r in range(mc_draws):
            seq = continue_sequence(model, history, n + 1, rng)
            vals[r] = float(f(seq.values[-1]))
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_draws))

    raise FiniPostError("config-error", f"unknown model type {type(model).__name__}")


def _finite_values(f: Callable, atoms: tuple) -> np.ndarray:
    vals = np.array([float(f(a)) for a in atoms])
    if not np.all(np.isfinite(vals)):
        raise FiniPostError("non-finite-integrand", "f is not finite on the support")
    return vals


def _pt_leaf_prob(alpha: Callable[[str], float], leaf: str) -> float:
    prob = 1.0
    for i in range(1, len(leaf) + 1):
        parent = leaf[: i - 1]
        prob *= alpha(leaf[:i]) / (alpha(parent + "0") + alpha(parent + "1"))
    return prob


def predictive_pair_expectation(
    model: ExchangeableModel,
    history: Sample,
    g: Callable,
    mc_draws: int = 4096,
    rng: RngState | None = None,
) -> tuple[float, float]:
    """E[g(next, next-but-one) | history] with its standard error.

    Exact by one-step urn expansion for the Dirichlet models (the outer
    draw conditions the inner predictive), exact leaf enumeration for
    small Polya trees, exact product integrals for the fixed law; Monte
    Carlo over predictive continuations otherwise (stderr zero only on
    exact paths).  Base-law integrals of a named pair function of
    ``families`` (|x - y|, x*y) and of its sections and diagonal are closed
    forms; any other callable goes to ``quad``/``dblquad``.
    """
    _check_history(model, history)
    n = len(history)

    if isinstance(model, FiniteDirichletModel):
        weights = model.posterior_alpha(history)
        A = weights.sum()
        total = 0.0
        for j, aj in enumerate(model.atoms):
            pj = weights[j] / A
            inner = weights.copy()
            inner[j] += 1.0
            for l, al in enumerate(model.atoms):
                total += pj * (inner[l] / (A + 1.0)) * float(g(aj, al))
        return total, 0.0

    if isinstance(model, DirichletProcessModel):
        return _dp_pair_expectation(model, history, g), 0.0

    if isinstance(model, PolyaTreeModel) and 4 ** model.depth <= 20_000:
        return _pt_pair_expectation(model, history, g), 0.0

    if isinstance(model, FixedLawModel):
        return model.base.pair_expect(g), 0.0

    if rng is None or mc_draws < 1:
        raise FiniPostError("config-error", "this model needs mc_draws >= 1 and an rng for pairs")
    vals = np.empty(mc_draws)
    for r in range(mc_draws):
        seq = continue_sequence(model, history, n + 2, rng)
        vals[r] = float(g(seq.values[-2], seq.values[-1]))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_draws))


def _dp_pair_expectation(model: DirichletProcessModel, history: Sample, g: Callable) -> float:
    c = model.total_mass
    n = len(history)
    hist = [float(v) for v in history.values]
    base = model.base
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


def _pt_pair_expectation(model: PolyaTreeModel, history: Sample, g: Callable) -> float:
    alpha = _pt_posterior_alpha(model, history)
    leaves = _nodes_at(model.depth)
    points = {leaf: model.leaf_point(leaf) for leaf in leaves}
    total = 0.0
    for leaf1 in leaves:
        p1 = _pt_leaf_prob(alpha, leaf1)
        if p1 == 0.0:
            continue

        def alpha2(eps: str, leaf1=leaf1) -> float:
            return alpha(eps) + (1.0 if leaf1.startswith(eps) else 0.0)

        for leaf2 in leaves:
            total += p1 * _pt_leaf_prob(alpha2, leaf2) * float(g(points[leaf1], points[leaf2]))
    return total


# ---------------------------------------------------------------------------
# Polya tree marginals
# ---------------------------------------------------------------------------

def polya_tree_marginal(model: PolyaTreeModel, eps: str) -> float:
    """Prior probability that one observation falls in the node set B_eps:
    the product over prefixes of the mean branch probability chosen at
    each level."""
    if not eps or any(ch not in "01" for ch in eps):
        raise FiniPostError("config-error", f"node address must be a nonempty 0/1 string, got {eps!r}")
    if len(eps) > model.depth:
        raise FiniPostError("param-missing", f"address {eps!r} deeper than the tree")
    return _pt_leaf_prob(model.alpha, eps)


# ---------------------------------------------------------------------------
# Batched sampling for the experiment harness
# ---------------------------------------------------------------------------

def batched_sequences(
    model: ExchangeableModel, history: Sample, upto: int, draws: int, rng: RngState
) -> np.ndarray:
    """``draws`` independent continuations to length ``upto``, as a matrix.

    Returns a (draws, upto) float matrix whose first columns repeat the
    history.  Scalar models only.  Semantically one ``continue_sequence``
    per row; the Dirichlet models are vectorized across rows.
    """
    if upto < len(history):
        raise FiniPostError("bad-horizon", f"target length {upto} below history length {len(history)}")
    _check_history(model, history)
    if not isinstance(model_space(model), RealLine):
        raise FiniPostError("space-mismatch", "batched sequences need a scalar model")
    n = len(history)
    out = np.empty((draws, upto))
    if n:
        out[:, :n] = np.asarray(history.scalars())[None, :]

    if isinstance(model, FixedLawModel):
        if upto > n:
            out[:, n:] = model.base.sample(rng, (draws, upto - n))
        return out

    if isinstance(model, DirichletProcessModel):
        c = model.total_mass
        for i in range(n, upto):
            fresh = rng.random(draws) < c / (c + i)
            vals = np.empty(draws)
            if fresh.any():
                vals[fresh] = model.base.sample(rng, int(fresh.sum()))
            if (~fresh).any():
                pick = rng.integers(0, i, size=int((~fresh).sum())) if i > 0 else None
                vals[~fresh] = out[~fresh, pick]
            out[:, i] = vals
        return out

    if isinstance(model, FiniteDirichletModel):
        atoms = np.asarray(model.atoms, dtype=float)
        weights = np.tile(model.posterior_alpha(history), (draws, 1))
        total = weights[0].sum()
        for i in range(n, upto):
            u = rng.random(draws) * total
            idx = (np.cumsum(weights, axis=1) < u[:, None]).sum(axis=1)
            idx = np.minimum(idx, model.k - 1)
            out[:, i] = atoms[idx]
            weights[np.arange(draws), idx] += 1.0
            total += 1.0
        return out

    for r in range(draws):
        out[r] = continue_sequence(model, history, upto, rng).scalars()
    return out


def batched_fd_empirical_counts(
    model: FiniteDirichletModel,
    history: Sample,
    upto: int,
    draws: int,
    rng: RngState,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Atom counts of ``draws`` length-``upto`` continuations, in ``atoms`` order.

    Given a directing-measure draw the new observations are i.i.d. from
    it, so each row is the history counts plus one multinomial draw.
    ``weights`` are the (draws, k) directing rows to continue from (each
    row normalised first); without them each row gets a fresh posterior
    Dirichlet draw, which makes the rows exact, independent samples of
    the Dirichlet-multinomial urn continuation.
    """
    if upto < len(history):
        raise FiniPostError("bad-horizon", f"target length {upto} below history length {len(history)}")
    _check_history(model, history)
    base = _fd_counts(model, history)
    fresh = upto - len(history)
    if fresh == 0:
        return np.tile(base, (draws, 1))
    if weights is None:
        weights = rng.dirichlet(model.posterior_alpha(history), size=draws)
    else:
        weights = weights / weights.sum(axis=1, keepdims=True)
    return base[None, :] + rng.multinomial(fresh, weights)


def batched_posterior_integrals(
    model: ExchangeableModel,
    history: Sample,
    fvec: Callable[[np.ndarray], np.ndarray],
    draws: int,
    rng: RngState,
) -> np.ndarray:
    """``draws`` independent values of the f-integral of a posterior draw.

    ``fvec`` must accept a float vector.  The Dirichlet models run fully
    vectorized; other models fall back to one posterior draw per entry.
    """
    _check_history(model, history)
    n = len(history)

    if isinstance(model, FiniteDirichletModel):
        if not isinstance(model.space, RealLine):
            raise FiniPostError("space-mismatch", "batched posterior integrals need a scalar model")
        W = rng.dirichlet(model.posterior_alpha(history), size=draws)
        vals = fvec(np.asarray(model.atoms, dtype=float))
        return W @ vals

    if isinstance(model, DirichletProcessModel):
        # Only the prior part P' breaks sticks; row r stops once
        # scale[r] * residual[r], its untruncated mass, is below tolerance.
        acc = np.zeros(draws)
        scale = np.ones(draws)
        if n:
            xstar, w, scale = _dp_history_part(model, history, rng, draws)
            acc = w @ fvec(xstar)
        residual = np.ones(draws)
        alive = np.flatnonzero(scale >= model.residual_tol)
        sticks_used = 0
        while alive.size and sticks_used < model.max_sticks:
            v = rng.beta(1.0, model.total_mass, size=alive.size)
            locs = np.asarray(model.base.sample(rng, alive.size), dtype=float)
            acc[alive] += scale[alive] * residual[alive] * v * fvec(locs)
            residual[alive] *= 1.0 - v
            sticks_used += 1
            alive = alive[scale[alive] * residual[alive] >= model.residual_tol]
        locs = np.asarray(model.base.sample(rng, draws), dtype=float)
        acc += scale * residual * fvec(locs)
        return acc

    out = np.empty(draws)
    for r in range(draws):
        m = posterior_draw(model, history, rng)
        out[r] = float(np.dot(m.weights, fvec(np.asarray(m.points, dtype=float))))
    return out


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
            rule = None
            params = None
            if "beta_rule" in spec:
                a, b = (config_float(spec["beta_rule"][key], "beta_rule") for key in "ab")
                rule = lambda k, a=a, b=b: (a, b)  # noqa: E731
            if "beta_params" in spec:
                params = tuple(tuple(config_float(x, "beta_params") for x in ab) for ab in spec["beta_params"])
            return StickBreakingModel(
                family_from_spec(spec["base"]),
                beta_params=params,
                beta_rule=rule,
                max_sticks=config_int(spec.get("max_sticks", 4096), "max_sticks"),
                residual_tol=config_float(spec.get("residual_tol", 1e-8), "residual_tol"),
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
