"""Closed-form upper bounds on posterior-vs-finitary discrepancies.

Each function evaluates one displayed inequality: rate bounds for the
transport distance between the posterior law of the directing measure
and the conditional law of the length-N empirical measure (finite
alphabet, real line, bounded support, d-dimensional), moment controls
for the sqrt(F(1-F)) integral, tail probabilities, and the exact law of
an odd-sample median with its two tail inequalities.

Rate bounds are returned raw, even when they exceed the metric diameter;
probability-valued bounds are clamped to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FiniPostError

__all__ = [
    "MedianLawInputs",
    "mean_bound_unconditional",
    "mean_bound_conditional",
    "finite_bound",
    "real_bound",
    "bounded_support_bound",
    "l21_moment_bound",
    "tail_probability_bound",
    "euclidean_bound",
    "dudley_gamma",
    "median_cdf",
    "median_tail_bounds",
    "regularized_incomplete_beta",
]


@dataclass(frozen=True)
class MedianLawInputs:
    """Median of a sample of size 2N+1 from a law with CDF value F_at_x."""

    N: int
    F_at_x: float

    def __post_init__(self):
        if self.N < 0:
            raise FiniPostError("bad-horizon", f"median law needs N >= 0, got {self.N}")
        if not (0.0 <= self.F_at_x <= 1.0):
            raise FiniPostError("config-error", f"F value {self.F_at_x} outside [0, 1]")


def _check_horizon(n: int, N: int) -> None:
    if not 0 <= n < N:
        raise FiniPostError("bad-horizon", f"need 0 <= n < N, got n={n}, N={N}")


# ---------------------------------------------------------------------------
# Mean-functional bounds
# ---------------------------------------------------------------------------

def mean_bound_unconditional(N: int, Ef2: float) -> float:
    """Bound 2 sqrt(E f^2) / sqrt(N) on the distance between the running
    f-mean of the first N observations and the f-mean of the directing
    measure."""
    if N < 1:
        raise FiniPostError("bad-horizon", f"need N >= 1, got {N}")
    if Ef2 < 0:
        raise FiniPostError("config-error", "second moment must be nonnegative")
    return 2.0 * math.sqrt(Ef2) / math.sqrt(N)


def mean_bound_conditional(
    n: int, N: int, sample_mean_f: float, post_mean_f: float, pred_f2: float
) -> float:
    """Conditional version: (n/N)(|sample mean of f| + predictive mean of |f|)
    + 2 sqrt(predictive second moment) / sqrt(N - n).

    ``post_mean_f`` is the predictive mean of |f|, not of f: the n/N
    head comes from the triangle inequality, so it needs absolute values
    to hold for signed test functions.
    """
    _check_horizon(n, N)
    if pred_f2 < 0:
        raise FiniPostError("config-error", "predictive second moment must be nonnegative")
    if post_mean_f < 0:
        raise FiniPostError("config-error", "the predictive mean of |f| must be nonnegative")
    head = (n / N) * (abs(sample_mean_f) + post_mean_f) if n > 0 else 0.0
    return head + 2.0 * math.sqrt(pred_f2) / math.sqrt(N - n)


# ---------------------------------------------------------------------------
# Measure-level rate bounds
# ---------------------------------------------------------------------------

def finite_bound(k: int, n: int, N: int) -> float:
    """k/(4 sqrt(N-n)) + n/N, for a k-letter alphabet under total variation."""
    if k < 2:
        raise FiniPostError("config-error", f"alphabet size must be >= 2, got {k}")
    _check_horizon(n, N)
    return k / (4.0 * math.sqrt(N - n)) + n / N


def real_bound(n: int, N: int, post_l21: float) -> float:
    """post_l21/sqrt(N-n) + 2n/N, for real observations under the bounded
    Lipschitz metric; post_l21 is the posterior mean of the sqrt(F(1-F))
    integral."""
    _check_horizon(n, N)
    if post_l21 < 0:
        raise FiniPostError("config-error", "posterior l21 value must be nonnegative")
    return post_l21 / math.sqrt(N - n) + 2.0 * n / N


def bounded_support_bound(M: float, n: int, N: int) -> float:
    """2M/sqrt(N-n) + 2n/N for observations supported in [-M, M]."""
    if M <= 0:
        raise FiniPostError("config-error", f"support radius must be positive, got {M}")
    _check_horizon(n, N)
    return 2.0 * M / math.sqrt(N - n) + 2.0 * n / N


def l21_moment_bound(delta: float, m2delta: float) -> float:
    """1 + sqrt(2(1+delta)/delta) * sqrt(m2delta): the sqrt(F(1-F))
    integral is controlled by the (2+delta)-th absolute moment."""
    if delta <= 0:
        raise FiniPostError("config-error", f"delta must be positive, got {delta}")
    if m2delta < 0:
        raise FiniPostError("config-error", "moment must be nonnegative")
    return 1.0 + math.sqrt(2.0 * (1.0 + delta) / delta) * math.sqrt(m2delta)


def tail_probability_bound(epsilon: float, e_l21: float, n: int, N: int) -> float:
    """Markov tail: min(1, (e_l21/sqrt(N-n) + 2n/N) / epsilon)."""
    if epsilon <= 0:
        raise FiniPostError("config-error", f"epsilon must be positive, got {epsilon}")
    _check_horizon(n, N)
    return min(1.0, (e_l21 / math.sqrt(N - n) + 2.0 * n / N) / epsilon)


def dudley_gamma(d: int, k: int) -> float:
    """The moment order k*d/((k-d)(k-2)) used by the d-dimensional bound."""
    if d < 2 or k <= d or k <= 2:
        raise FiniPostError("bad-dudley-params", f"need d >= 2 and k > max(d, 2), got d={d}, k={k}")
    gamma = (k * d) / ((k - d) * (k - 2))
    if gamma < 1.0:
        raise FiniPostError("gamma-below-one", f"gamma={gamma} below one for d={d}, k={k}")
    return gamma


def euclidean_bound(d: int, k: int, n: int, N: int, gamma_moment_post: float) -> float:
    """Covering-number route for d >= 2:
    (N-n)^(-1/k) [4/3 + 4*3^(2k)*2^(d/2)*(1+Y)^(1/2)] + 2n/N
    with Y = 2 * gamma_moment_post^(1/gamma)."""
    gamma = dudley_gamma(d, k)
    _check_horizon(n, N)
    if gamma_moment_post < 0:
        raise FiniPostError("config-error", "posterior moment must be nonnegative")
    Y = 2.0 * gamma_moment_post ** (1.0 / gamma)
    const = 4.0 / 3.0 + 4.0 * 3.0 ** (2 * k) * 2.0 ** (d / 2.0) * math.sqrt(1.0 + Y)
    return const * (N - n) ** (-1.0 / k) + 2.0 * n / N


# ---------------------------------------------------------------------------
# Exact law of an odd-sample median
# ---------------------------------------------------------------------------

def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for any a, b > 0 (scipy's ``betainc``); used here with
    a = b = N+1 for median laws."""
    if a <= 0 or b <= 0:
        raise FiniPostError("config-error", "beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    from scipy.special import betainc

    return float(betainc(a, b, x))


def median_cdf(inputs: MedianLawInputs) -> float:
    """P{sample median <= x} for 2N+1 i.i.d. draws with F(x) given.

    The regularized incomplete beta I_F(N+1, N+1), evaluated for F < 1/2
    with the symmetry I_F(a,a) = 1 - I_(1-F)(a,a) enforced.
    """
    N, F = inputs.N, inputs.F_at_x
    if N == 0:
        return F
    if F == 0.5:
        return 0.5
    if F > 0.5:
        return 1.0 - median_cdf(MedianLawInputs(N, 1.0 - F))
    return regularized_incomplete_beta(N + 1.0, N + 1.0, F)


def median_tail_bounds(inputs: MedianLawInputs, p_left: float, p_right: float) -> tuple[float, float]:
    """The two tail inequalities: both tails of the median law are at most
    (2N+1)/N times the corresponding one-observation tail."""
    if inputs.N < 1:
        raise FiniPostError("bad-horizon", "tail bounds need N >= 1")
    for p in (p_left, p_right):
        if not (0.0 <= p <= 1.0):
            raise FiniPostError("config-error", f"tail probability {p} outside [0, 1]")
    factor = (2.0 * inputs.N + 1.0) / inputs.N
    return min(1.0, factor * p_left), min(1.0, factor * p_right)
