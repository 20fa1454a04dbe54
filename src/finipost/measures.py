"""Finite-support probability measures and the functionals built on them.

The atomic measure is the single-measure carrier: empirical measures of
observed sequences, posterior draws from every prior in ``priors``, and
mixtures of both are all finite collections of weighted points.  Points
live in one of two spaces: a finite label alphabet or the real line; a
tuple or array point is refused.  A batch of posterior draws leaves
``priors`` as posterior rows, (m, s) atom and weight arrays padded with
zero weights; on one common finite support the weights alone are an
(m, k) weight matrix, one row per measure, checked once by
``weight_matrix``, and ``bound_finite`` cells run on such matrices.  On
the line ``merged_rows`` turns the padded rows into merged rows, one
pair of 1-d arrays per measure (sorted distinct points, their weights,
zero weights dropped), and ``bound_real`` cells run on those.
Continuous laws appear only through the analytic CDF families of
``families``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FiniPostError
from .families import AnalyticLaw, PointMassLaw, UniformLaw

__all__ = [
    "FiniteAlphabet",
    "RealLine",
    "Space",
    "Point",
    "AtomicMeasure",
    "weight_matrix",
    "merged_rows",
    "Cdf",
    "Sample",
    "empirical",
    "mixture",
    "integrate",
    "cdf_of",
    "cdf_of_row",
    "l21_functional",
    "gini_md",
    "moment",
]

_WEIGHT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Spaces and points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteAlphabet:
    """A finite label alphabet, carried as the ordered tuple of labels."""

    labels: tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class RealLine:
    pass


Space = FiniteAlphabet | RealLine

# A point is a label (str) or a scalar (float); all points of one measure
# or sample share a variant.
Point = str | float


def _infer_space(values: Sequence[Point]) -> Space:
    if isinstance(values[0], str):
        return FiniteAlphabet(tuple(sorted({str(v) for v in values})))
    return RealLine()


def _check_point(p: Point, space: Space) -> Point:
    if isinstance(space, FiniteAlphabet):
        if not isinstance(p, str) or p not in space.labels:
            raise FiniPostError("space-mismatch", f"point {p!r} not in alphabet {space.labels}")
        return p
    if isinstance(p, (str, tuple, list, np.ndarray)):
        raise FiniPostError("space-mismatch", f"point {p!r} is not a scalar")
    x = float(p)
    if not math.isfinite(x):
        raise FiniPostError("space-mismatch", f"non-finite scalar point {p!r}")
    return x


# ---------------------------------------------------------------------------
# Atomic measures
# ---------------------------------------------------------------------------

class AtomicMeasure:
    """Probability measure with finitely many atoms.

    Atoms with bitwise-equal points are merged at construction; weights
    must be nonnegative and sum to one within 1e-12.  Instances are
    immutable value objects, safe to share across threads.
    """

    __slots__ = ("points", "weights", "space")

    def __init__(self, atoms: Iterable[tuple[Point, float]], space: Space | None = None):
        pairs = list(atoms)
        if not pairs:
            raise FiniPostError("empty-sample", "a measure needs at least one atom")
        if space is None:
            space = _infer_space([p for p, _ in pairs])
        merged: dict[Point, float] = {}
        for p, w in pairs:
            w = float(w)
            if not w >= -_WEIGHT_TOL:
                raise FiniPostError("bad-weights", f"negative or NaN weight {w}")
            p = _check_point(p, space)
            merged[p] = merged.get(p, 0.0) + w
        total = math.fsum(merged.values())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise FiniPostError("bad-weights", f"weights sum to {total!r}, not 1")
        if len(merged) > 1:
            merged = {p: w for p, w in merged.items() if w != 0.0}
        pts = tuple(merged.keys())
        self.points = pts
        self.weights = np.array([max(merged[p], 0.0) for p in pts], dtype=float)
        self.space = space

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"AtomicMeasure({len(self.points)} atoms on {self.space})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        if self.space != other.space:
            return False
        mine = dict(zip(self.points, self.weights))
        theirs = dict(zip(other.points, other.weights))
        return mine.keys() == theirs.keys() and all(mine[p] == theirs[p] for p in mine)

    def mass_at(self, point: Point) -> float:
        """Weight of one atom (0.0 if the point is not an atom)."""
        for p, w in zip(self.points, self.weights):
            if p == point:
                return float(w)
        return 0.0

    def scalars(self) -> np.ndarray:
        if not isinstance(self.space, RealLine):
            raise FiniPostError("space-mismatch", "scalar view needs a real-line measure")
        return np.asarray(self.points, dtype=float)

    def weight_vector(self, alphabet: FiniteAlphabet) -> np.ndarray:
        """Dense weights aligned with an alphabet's label order."""
        idx = {lab: i for i, lab in enumerate(alphabet.labels)}
        out = np.zeros(alphabet.k)
        for p, w in zip(self.points, self.weights):
            if p not in idx:
                raise FiniPostError("space-mismatch", f"label {p!r} outside alphabet")
            out[idx[p]] = w
        return out


def weight_matrix(rows) -> np.ndarray:
    """A batch of measures on one common support as an (m, k) float matrix.

    Checks once per batch what ``AtomicMeasure`` checks per measure:
    every row is nonnegative and sums to one, both within 1e-12.
    """
    W = np.asarray(rows, dtype=float)
    if W.ndim != 2 or W.size == 0:
        raise FiniPostError("bad-weights", f"need a nonempty (m, k) weight matrix, got shape {W.shape}")
    if not np.all(W >= -_WEIGHT_TOL):
        raise FiniPostError("bad-weights", "negative or NaN weight in a weight matrix")
    if not np.all(np.abs(W.sum(axis=1) - 1.0) <= _WEIGHT_TOL):
        raise FiniPostError("bad-weights", "a weight-matrix row does not sum to 1")
    return W


def merged_rows(atoms, weights) -> list[tuple[np.ndarray, np.ndarray]]:
    """Padded (m, s) real-line rows as merged rows: per row, the sorted
    distinct points and their weights.  Checks and merges each row as
    ``AtomicMeasure`` does a measure: finite points, no weight below
    -1e-12, a sum within 1e-12 of one; equal points summed in row order
    (``np.bincount`` accumulates sequentially), zero weights dropped from
    a row of more than one point, tiny negatives set to 0."""
    X, W = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    if X.ndim != 2 or X.shape != W.shape or X.size == 0:
        raise FiniPostError("bad-weights", f"need matching nonempty (m, s) rows, got {X.shape} and {W.shape}")
    if not np.all(np.isfinite(X)):
        raise FiniPostError("space-mismatch", "non-finite scalar point in a row")
    if not np.all(W >= -_WEIGHT_TOL):
        raise FiniPostError("bad-weights", "negative or NaN weight in a row")
    rows = []
    for x, w in zip(X, W):
        points, group = np.unique(x, return_inverse=True)
        sums = np.bincount(group, weights=w)
        total = math.fsum(sums)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise FiniPostError("bad-weights", f"row weights sum to {total!r}, not 1")
        keep = (sums != 0.0) | (sums.size == 1)
        rows.append((points[keep], np.maximum(sums[keep], 0.0)))
    return rows


def checked_rows(rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """Merged rows from a caller, checked as ``merged_rows`` checks its
    rows: (points, weights) pairs of 1-d arrays of one length, finite
    scalar points, no weight below -1e-12 and a sum within 1e-12 of one."""
    out = []
    for row in rows:
        try:
            x, w = (np.asarray(a, dtype=float) for a in row)
        except (TypeError, ValueError):
            raise FiniPostError("bad-weights", f"a merged row is a (points, weights) pair, not {row!r}") from None
        if w.ndim != 1 or w.size == 0 or x.shape[:1] != w.shape:
            raise FiniPostError("bad-weights", f"row points of shape {x.shape} with weights of shape {w.shape}")
        if x.ndim != 1 or not np.all(np.isfinite(x)):
            raise FiniPostError("space-mismatch", f"row points must be finite scalars, got shape {x.shape}")
        if not (np.all(w >= -_WEIGHT_TOL) and abs(math.fsum(w) - 1.0) <= _WEIGHT_TOL):
            raise FiniPostError("bad-weights", "a row has a negative or NaN weight or does not sum to 1")
        out.append((x, w))
    return out


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """An observed finite sequence, tagged with the space it lives in; on
    the real line every value is a finite scalar (else ``space-mismatch``)."""

    values: tuple[Point, ...]
    space: Space | None = None

    def __post_init__(self):
        if self.space is None and self.values:
            object.__setattr__(self, "space", _infer_space(self.values))
        if isinstance(self.space, RealLine):
            for v in self.values:
                _check_point(v, self.space)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def length(self) -> int:
        return len(self.values)

    def scalars(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def empirical(sample: Sample) -> AtomicMeasure:
    """Uniform atomic measure on the sample values (multiplicity / n)."""
    n = len(sample)
    if n == 0:
        raise FiniPostError("empty-sample", "cannot take the empirical measure of an empty sample")
    w = 1.0 / n
    return AtomicMeasure([(v, w) for v in sample.values], space=sample.space)


# ---------------------------------------------------------------------------
# Measure-level operations
# ---------------------------------------------------------------------------

def mixture(first: AtomicMeasure, second: AtomicMeasure, w: float) -> AtomicMeasure:
    """Convex combination w*first + (1-w)*second with duplicate atoms merged."""
    if first.space != second.space:
        raise FiniPostError("space-mismatch", f"{first.space} vs {second.space}")
    if not (0.0 <= w <= 1.0):
        raise FiniPostError("bad-weights", f"mixture weight {w} outside [0, 1]")
    atoms = [(p, w * wt) for p, wt in zip(first.points, first.weights)]
    atoms += [(p, (1.0 - w) * wt) for p, wt in zip(second.points, second.weights)]
    return AtomicMeasure(atoms, space=first.space)


def integrate(measure: AtomicMeasure, f: Callable[[Point], float]) -> float:
    """Weighted sum of f over the atoms."""
    vals = np.array([float(f(p)) for p in measure.points])
    if not np.all(np.isfinite(vals)):
        raise FiniPostError("non-finite-integrand", "integrand is not finite at an atom")
    return float(np.dot(measure.weights, vals))


def moment(measure: AtomicMeasure, order: float) -> float:
    """Weighted sum of |x|^order over the atoms of a real-line measure."""
    return float(np.dot(measure.weights, np.abs(measure.scalars()) ** order))


def gini_md(measure: AtomicMeasure) -> float:
    """Mean absolute difference of two independent draws from the measure."""
    if not isinstance(measure.space, RealLine):
        raise FiniPostError("space-mismatch", "mean difference needs scalar points")
    x = measure.scalars()
    w = measure.weights
    return float(w @ np.abs(x[:, None] - x[None, :]) @ w)


# ---------------------------------------------------------------------------
# CDFs
# ---------------------------------------------------------------------------

class Cdf:
    """Right-continuous step distribution function: sorted thresholds with
    non-decreasing cumulative values ending at 1."""

    __slots__ = ("thresholds", "cumulative")

    def __init__(self, thresholds: Sequence[float], cumulative: Sequence[float]):
        t = np.asarray(thresholds, dtype=float)
        c = np.asarray(cumulative, dtype=float)
        if t.ndim != 1 or t.shape != c.shape or t.size == 0:
            raise FiniPostError("config-error", "step Cdf needs matching 1-d thresholds and values")
        if np.any(np.diff(t) <= 0):
            raise FiniPostError("config-error", "thresholds must be strictly increasing")
        if np.any(np.diff(c) < 0) or abs(float(c[-1]) - 1.0) > _WEIGHT_TOL:
            raise FiniPostError("config-error", "cumulative values must be non-decreasing and end at 1")
        self.thresholds = t
        self.cumulative = c

    def __call__(self, x) -> np.ndarray | float:
        idx = np.searchsorted(self.thresholds, np.asarray(x, dtype=float), side="right")
        vals = np.concatenate([[0.0], self.cumulative])[idx]
        return vals if np.ndim(x) else float(vals)


def cdf_of(measure: AtomicMeasure) -> Cdf:
    """Step CDF of a real-line atomic measure."""
    if not isinstance(measure.space, RealLine):
        raise FiniPostError("space-mismatch", "cdf_of needs a real-line measure")
    order = np.argsort(measure.scalars(), kind="stable")
    return cdf_of_row(measure.scalars()[order], measure.weights[order])


def cdf_of_row(points: np.ndarray, weights: np.ndarray) -> Cdf:
    """Step CDF of a merged row: sorted distinct points and their weights."""
    c = np.cumsum(weights)
    c[-1] = 1.0  # exact endpoint; partial sums already within 1e-12
    return Cdf(thresholds=points, cumulative=c)


# ---------------------------------------------------------------------------
# The sqrt(F(1-F)) integral
# ---------------------------------------------------------------------------

def l21_functional(law: Cdf | AnalyticLaw, tol: float = 1e-9) -> float:
    """Integral of sqrt(F(1-F)) over the line, for a step ``Cdf`` or an
    analytic family.

    Exact for step CDFs (F is constant between thresholds); ``quad`` to
    absolute tolerance ``tol`` for analytic families, clipped where F or
    1-F drops below 1e-15.  Finiteness of the integral implies a finite
    second moment.
    """
    if isinstance(law, Cdf):
        t = law.thresholds
        if t.size == 1:
            return 0.0
        F = law.cumulative[:-1]
        return float(np.dot(np.sqrt(F * (1.0 - F)), np.diff(t)))

    if isinstance(law, PointMassLaw):
        return 0.0
    if isinstance(law, UniformLaw):
        # F linear on [a, b]: closed form (b - a) * pi / 8.
        return (law.b - law.a) * math.pi / 8.0

    # Clip the domain where the integrand is below resolvable size.
    lo = float(law.quantile(1e-15))
    hi = float(law.quantile(1.0 - 1e-15))
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi - lo > 1e12:
        raise FiniPostError("l21-divergent", "tail bound test failed; integral looks divergent")

    def integrand(x: float) -> float:
        F = float(law.cdf(x))
        return math.sqrt(max(F * (1.0 - F), 0.0))

    from scipy.integrate import quad

    return quad(integrand, lo, hi, epsabs=tol, limit=200)[0]

