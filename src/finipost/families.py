"""Named analytic distribution families on the real line, and named test
functions with exact expectations under them.

Three families cover every continuous law the package needs: uniform,
gaussian and point-mass.  Each exposes a CDF, a quantile function, exact
sampling, moments, and expectations.  The expectation of a named test
function (identity and other linear maps, square, the indicator of
(-inf, y], |x - c|, and the pair functions |x - y| and x*y) is its closed
form in the law's mean, second moment, CDF, mean absolute deviation or
mean absolute difference; any other callable is integrated by quadrature
(the point mass evaluates it at its atom).  Everything else in the package
works with finite-support atomic measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FiniPostError, config_float
from .rng import RngState

__all__ = [
    "AnalyticLaw",
    "UniformLaw",
    "GaussianLaw",
    "PointMassLaw",
    "family_from_spec",
    "NamedFunction",
    "NamedPairFunction",
    "Linear",
    "IDENTITY",
    "Square",
    "Indicator",
    "AbsDeviation",
    "AbsDifference",
    "Product",
]


@dataclass(frozen=True)
class UniformLaw:
    """Uniform law on the interval [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.b > self.a):
            raise FiniPostError("config-error", f"uniform law needs b > a, got [{self.a}, {self.b}]")

    @property
    def name(self) -> str:
        return f"uniform({self.a},{self.b})"

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def sample(self, rng: RngState, size=None):
        return rng.uniform(self.a, self.b, size=size)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def second_moment(self) -> float:
        return (self.a * self.a + self.a * self.b + self.b * self.b) / 3.0

    def expect(self, f: Callable[[float], float]) -> float:
        if isinstance(f, NamedFunction):
            return f.expectation(self)
        from scipy import integrate

        val, _ = integrate.quad(lambda x: f(x) * 1.0 / (self.b - self.a), self.a, self.b, limit=200)
        return val

    def pair_expect(self, g: Callable[[float, float], float]) -> float:
        if isinstance(g, NamedPairFunction):
            return g.expectation(self)
        inv = 1.0 / (self.b - self.a)
        return _dblquad_split_diagonal(lambda y, x: g(x, y) * inv * inv, self.a, self.b)

    def mean_abs_diff(self) -> float:
        # E|X - Y| for two independent copies.
        return (self.b - self.a) / 3.0

    def abs_deviation(self, c: float) -> float:
        # E|X - c| in closed form.
        a, b = self.a, self.b
        if c <= a:
            return self.mean() - c
        if c >= b:
            return c - self.mean()
        return ((c - a) ** 2 + (b - c) ** 2) / (2.0 * (b - a))


@dataclass(frozen=True)
class GaussianLaw:
    """Gaussian law with mean mu and standard deviation sigma."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise FiniPostError("config-error", f"gaussian law needs sigma > 0, got {self.sigma}")

    @property
    def name(self) -> str:
        return f"gaussian({self.mu},{self.sigma})"

    def cdf(self, x):
        from scipy.special import ndtr

        return ndtr((np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def quantile(self, u):
        from scipy.special import ndtri

        return self.mu + self.sigma * ndtri(np.asarray(u, dtype=float))

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def sample(self, rng: RngState, size=None):
        return rng.normal(self.mu, self.sigma, size=size)

    def mean(self) -> float:
        return self.mu

    def second_moment(self) -> float:
        return self.mu * self.mu + self.sigma * self.sigma

    def expect(self, f: Callable[[float], float]) -> float:
        if isinstance(f, NamedFunction):
            return f.expectation(self)
        from scipy import integrate

        val, _ = integrate.quad(lambda x: f(x) * self.pdf(x), -np.inf, np.inf, limit=200)
        return val

    def pair_expect(self, g: Callable[[float, float], float]) -> float:
        if isinstance(g, NamedPairFunction):
            return g.expectation(self)
        return _dblquad_split_diagonal(lambda y, x: g(x, y) * self.pdf(x) * self.pdf(y), -np.inf, np.inf)

    def mean_abs_diff(self) -> float:
        return 2.0 * self.sigma / math.sqrt(math.pi)

    def abs_deviation(self, c: float) -> float:
        from scipy.special import ndtr

        z = (c - self.mu) / self.sigma
        return self.sigma * (2.0 * float(self.pdf(c)) * self.sigma + z * (2.0 * float(ndtr(z)) - 1.0))


@dataclass(frozen=True)
class PointMassLaw:
    """Degenerate law concentrated at a single point c."""

    c: float

    @property
    def name(self) -> str:
        return f"point-mass({self.c})"

    def cdf(self, x):
        return np.where(np.asarray(x, dtype=float) >= self.c, 1.0, 0.0)

    def quantile(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.c)

    def sample(self, rng: RngState, size=None):
        if size is None:
            return self.c
        return np.full(size, self.c, dtype=float)

    def mean(self) -> float:
        return self.c

    def second_moment(self) -> float:
        return self.c * self.c

    def expect(self, f: Callable[[float], float]) -> float:
        # Evaluation at the atom is exact for every f, named or not.
        return float(f(self.c))

    def pair_expect(self, g: Callable[[float, float], float]) -> float:
        return float(g(self.c, self.c))

    def mean_abs_diff(self) -> float:
        return 0.0

    def abs_deviation(self, c: float) -> float:
        return abs(self.c - c)


AnalyticLaw = UniformLaw | GaussianLaw | PointMassLaw


def _dblquad_split_diagonal(h: Callable[[float, float], float], lo: float, hi: float) -> float:
    """Integral of h(y, x) over [lo, hi]^2, with the inner range split at
    y = x, so that a kink on the diagonal (|x - y| and the like) sits on
    an endpoint of each piece instead of inside it.  Each piece runs to an
    absolute tolerance of 1e-12: at the default 1.5e-8 the two pieces of a
    smooth integrand (a constant) lose 1e-10 that one whole-plane call
    does not."""
    from scipy import integrate

    below, _ = integrate.dblquad(h, lo, hi, lo, lambda x: x, epsabs=1e-12)
    above, _ = integrate.dblquad(h, lo, hi, lambda x: x, hi, epsabs=1e-12)
    return below + above


# ---------------------------------------------------------------------------
# Named test functions
# ---------------------------------------------------------------------------

class NamedFunction:
    """A test function of one variable with its closed forms: the scalar
    value ``f(x)``, the vectorised value ``f.vec(array)`` and the exact
    expectation ``f.expectation(law)`` under an analytic law, which each
    law's ``expect`` uses in place of quadrature."""

    def __call__(self, x) -> float:
        return float(self.vec(x))


@dataclass(frozen=True)
class Linear(NamedFunction):
    """x -> slope * x: the identity at slope 1, zero at slope 0."""

    slope: float

    def vec(self, a):
        # The identity hands back its input: the batched paths pass it blocks
        # of millions of values.
        return a if self.slope == 1.0 else self.slope * a

    def expectation(self, law: AnalyticLaw) -> float:
        return self.slope * law.mean()


IDENTITY = Linear(1.0)


@dataclass(frozen=True)
class Square(NamedFunction):
    """x -> x^2."""

    def vec(self, a):
        return a * a

    def expectation(self, law: AnalyticLaw) -> float:
        return law.second_moment()


@dataclass(frozen=True)
class Indicator(NamedFunction):
    """x -> 1 if x <= y else 0."""

    y: float

    def vec(self, a):
        return np.where(a <= self.y, 1.0, 0.0)

    def expectation(self, law: AnalyticLaw) -> float:
        return float(law.cdf(self.y))


@dataclass(frozen=True)
class AbsDeviation(NamedFunction):
    """x -> |x - c|."""

    c: float

    def vec(self, a):
        return np.abs(a - self.c)

    def expectation(self, law: AnalyticLaw) -> float:
        return law.abs_deviation(self.c)


class NamedPairFunction:
    """A symmetric test function of two variables with its closed forms: the
    scalar value ``g(x, y)``, the vectorised value ``g.vec(a, b)``, the exact
    expectation ``g.expectation(law)`` of g(X, Y) for X, Y i.i.d. from an
    analytic law (used by each law's ``pair_expect``), and as named
    functions the section ``g.section(x)`` = g(x, .) = g(., x) and the
    diagonal ``g.diagonal`` = x -> g(x, x)."""

    def __call__(self, x, y) -> float:
        return float(self.vec(x, y))


@dataclass(frozen=True)
class AbsDifference(NamedPairFunction):
    """(x, y) -> |x - y|."""

    diagonal = Linear(0.0)

    def vec(self, a, b):
        return np.abs(a - b)

    def section(self, x) -> AbsDeviation:
        return AbsDeviation(float(x))

    def expectation(self, law: AnalyticLaw) -> float:
        return law.mean_abs_diff()


@dataclass(frozen=True)
class Product(NamedPairFunction):
    """(x, y) -> x * y."""

    diagonal = Square()

    def vec(self, a, b):
        return a * b

    def section(self, x) -> Linear:
        return Linear(float(x))

    def expectation(self, law: AnalyticLaw) -> float:
        return law.mean() ** 2


def family_from_spec(spec: dict) -> AnalyticLaw:
    """Build an analytic law from its JSON object form.

    Accepted shapes: ``{"family":"uniform","a":0,"b":1}``,
    ``{"family":"gaussian","mu":0,"sigma":1}``, ``{"family":"point_mass","c":0}``.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise FiniPostError("config-error", f"not a family spec: {spec!r}")
    kind = spec["family"]
    try:
        if kind == "uniform":
            return UniformLaw(config_float(spec["a"], "a"), config_float(spec["b"], "b"))
        if kind == "gaussian":
            return GaussianLaw(config_float(spec["mu"], "mu"), config_float(spec["sigma"], "sigma"))
        if kind in ("point_mass", "point-mass"):
            return PointMassLaw(config_float(spec["c"], "c"))
    except FiniPostError:
        raise
    except KeyError as exc:
        raise FiniPostError("config-error", f"family spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FiniPostError("config-error", f"malformed family spec: {exc}") from exc
    raise FiniPostError("config-error", f"unknown family {kind!r}")
