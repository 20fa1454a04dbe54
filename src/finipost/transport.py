"""Exact distances between discrete measures and between samples of measures.

Four ground-level distances (1-d Wasserstein, total variation, bounded
Lipschitz with an optimal test-function certificate, generic discrete
optimal transport with dual certificates) and one meta-level plug-in: the
order-1 transport distance between two equal-size samples of measures
under a chosen bounded ground metric.  Bounded Lipschitz is an exact chain
dynamic program on the line and, in R^d, transport under the truncated
metric min(d, 2).  W1, TV and BL fold their two measures into one array
of signed weights on the sorted union support; the BL meta ground also
takes merged rows, a measure's distinct points and weights as two
arrays.  Discrete OT is one HiGHS transportation LP for any marginals;
the meta distance takes its optimal matching from
``linear_sum_assignment``, under BL certified on lower bounds with exact
solves only where the matching needs them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FiniPostError
from .measures import AtomicMeasure, FiniteAlphabet, RealLine, checked_rows, weight_matrix

__all__ = [
    "CostMatrix",
    "TransportPlan",
    "LipschitzDual",
    "PlanCheck",
    "w1_real",
    "tv_finite",
    "bounded_lipschitz",
    "solve_discrete_ot",
    "verify_plan",
    "meta_w1",
    "meta_w1_matched",
]

_FEAS_TOL = 1e-10
_OPT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostMatrix:
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.size == 0:
            raise FiniPostError("config-error", "cost matrix must be 2-d and non-empty")
        if not np.all(np.isfinite(e)) or np.any(e < 0):
            raise FiniPostError("config-error", "cost entries must be finite and nonnegative")
        object.__setattr__(self, "entries", e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class TransportPlan:
    """A coupling with its cost, marginals, and dual potentials."""

    coupling: np.ndarray
    cost: float
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    duals: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PlanCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class LipschitzDual:
    """A test function on a finite support: the witness of a bounded
    Lipschitz distance value.

    Validated at construction: values within [-1, 1] and 1-Lipschitz with
    respect to the pairwise point distances, both up to 1e-9.  On the
    line the consecutive-pair check is equivalent to all pairs (the gaps
    telescope), which keeps validation linear.
    """

    __slots__ = ("support", "values")

    def __init__(self, support: Sequence, values: Sequence[float]):
        vals = np.asarray(values, dtype=float)
        if len(support) != vals.size:
            raise FiniPostError("config-error", "support and values length mismatch")
        if np.any(np.abs(vals) > 1.0 + _OPT_TOL):
            raise FiniPostError("config-error", "dual values exceed the unit box")
        if len(support) > 1:
            x = np.asarray(support, dtype=float)
            if x.ndim == 1:
                order = np.argsort(x, kind="stable")
                bad = np.abs(np.diff(vals[order])) > np.diff(x[order]) + _OPT_TOL
            else:
                from scipy.spatial.distance import pdist

                bad = pdist(vals[:, None]) > pdist(x) + _OPT_TOL
            if np.any(bad):
                raise FiniPostError("config-error", "dual values violate the Lipschitz constraint")
        self.support = tuple(support)
        self.values = vals

    def pairing(self, p: AtomicMeasure, q: AtomicMeasure) -> float:
        """Integral of the test function against p - q, both on its support."""
        lookup = dict(zip(self.support, self.values.tolist()))
        try:
            return float(p.weights @ [lookup[pt] for pt in p.points] - q.weights @ [lookup[pt] for pt in q.points])
        except KeyError as exc:
            raise FiniPostError("space-mismatch", f"point {exc.args[0]!r} is outside the test function's support") from None


# ---------------------------------------------------------------------------
# Scalar Wasserstein
# ---------------------------------------------------------------------------

def w1_real(p: AtomicMeasure, q: AtomicMeasure) -> float:
    """Exact order-1 Wasserstein distance on the line: integral of |F_p - F_q|."""
    if not (isinstance(p.space, RealLine) and isinstance(q.space, RealLine)):
        raise FiniPostError("space-mismatch", f"w1 needs two measures on the line, not {p.space} and {q.space}")
    x, delta = _signed_weights(_row(p), _row(q))
    return float(np.dot(np.abs(np.cumsum(delta)[:-1]), np.diff(x)))


# ---------------------------------------------------------------------------
# Total variation on a common discrete support
# ---------------------------------------------------------------------------

def tv_finite(p: AtomicMeasure, q: AtomicMeasure) -> float:
    """Half the l1 distance of the weight vectors over the union support."""
    if p.space != q.space:
        raise FiniPostError("space-mismatch", f"{p.space} vs {q.space}")
    _, delta = _signed_weights(_row(p), _row(q))
    return 0.5 * math.fsum(np.abs(delta))


# ---------------------------------------------------------------------------
# Bounded Lipschitz distance: chain dynamic program on the line, transport in R^d
# ---------------------------------------------------------------------------

def bounded_lipschitz(p: AtomicMeasure, q: AtomicMeasure) -> tuple[float, LipschitzDual]:
    """Bounded Lipschitz distance with an optimal test-function certificate.

    Maximizes sum_i f_i (p_i - q_i) over the union support subject to
    |f_i| <= 1 and |f_i - f_j| <= dist(x_i, x_j).  On the line only
    consecutive-point constraints are needed (they imply all pairs by
    telescoping along the sorted support), and the resulting chain problem
    is solved exactly by a dynamic program (:func:`_bl_chain`).  In R^d
    the value is the transport cost under rho = min(d, 2), solved by
    :func:`solve_discrete_ot`, and f the c-transform of its column duals.
    """
    (rp,), (rq,) = _as_arrays([p], [q], "BL")
    value, x, f = _bl_solve(rp, rq)
    support = x.tolist() if x.ndim == 1 else [tuple(pt) for pt in x.tolist()]
    return value, LipschitzDual(support, f)


def _bl_solve(p: tuple, q: tuple) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, support, f) of the bounded Lipschitz problem between two
    merged rows, f an optimal test function on the sorted union support.
    The value alone needs no certificate, so the cost matrix skips
    building and validating a ``LipschitzDual``."""
    x, delta = _signed_weights(p, q)
    if len(x) == 1:
        return 0.0, x, np.zeros(1)
    if x.ndim == 1:
        f = _bl_chain(x, delta)
        return float(np.dot(delta, f)), x, f

    from scipy.spatial.distance import cdist

    # Between probability measures BL is w1 under rho = min(d, 2)
    # (Kantorovich-Rubinstein duality; Villani 2009, ch. 5-6).  The
    # c-transform f(z) = min_j [rho(z, y_j) - v_j] of the column duals v is
    # rho-1-Lipschitz, so of range at most 2, and centring puts it in [-1, 1].
    v = solve_discrete_ot(np.minimum(cdist(p[0], q[0]), 2.0), p[1], q[1]).duals[1]
    f = (np.minimum(cdist(x, q[0]), 2.0) - v).min(axis=1)
    f -= 0.5 * (f.max() + f.min())
    return float(np.dot(delta, f)), x, f


class _Side:
    """One side of the argmax of a concave piecewise-linear function on
    [-1, 1], in the outward coordinate u (u = -t on the left, u = t on the
    right), so that both sides move alike.

    ``end`` is the argmax end (u = 1 is the domain edge), ``slope`` the rate
    at which the function falls just outside it, and ``kinks`` the
    breakpoints further out as (u - shift, slope drop), nearest last.
    """

    __slots__ = ("end", "slope", "kinks")

    def __init__(self):
        self.end = 1.0
        self.slope = 0.0
        self.kinks: deque = deque()

    def widen(self, g: float, shift: float) -> None:
        """Move the argmax end out by g and drop what leaves [-1, 1]."""
        self.end += g
        if self.end >= 1.0:
            self.end, self.slope = 1.0, 0.0
            self.kinks.clear()
            return
        kinks = self.kinks
        while kinks and kinks[0][0] + shift >= 1.0:
            kinks.popleft()

    def step_out(self, shift: float) -> None:
        """Move the argmax end to the next kink out (or to the edge)."""
        if self.kinks:
            u, w = self.kinks.pop()
            self.end, self.slope = u + shift, w
        else:
            self.end, self.slope = 1.0, 0.0


def _raise_toward(ahead: _Side, behind: _Side, c: float, shift: float) -> None:
    """Add c > 0 times the signed distance toward ``ahead``: every slope in
    that direction rises by c and the argmax moves that way, turning the
    breakpoints it passes into breakpoints of ``behind``."""
    if behind.end + ahead.end > 0.0:
        # The flat top becomes a rise of slope c.
        if behind.end < 1.0:
            behind.kinks.append((behind.end - shift, behind.slope))
        behind.end, behind.slope = -ahead.end, c
    else:
        behind.slope += c
    while ahead.end < 1.0 and ahead.slope <= c:
        rest = c - ahead.slope  # slope beyond the argmax end after the raise
        if rest > 0.0 and behind.end < 1.0:
            behind.kinks.append((behind.end - shift, behind.slope - rest))
        ahead.step_out(shift)
        if rest == 0.0:
            return  # flat up to the next kink: the argmax widens
        c = rest
        behind.end, behind.slope = -ahead.end, c
    if ahead.end < 1.0:
        ahead.slope -= c


def _bl_chain(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Exact maximiser f of sum_i delta_i f_i subject to |f_i| <= 1 and
    |f_{i+1} - f_i| <= x_{i+1} - x_i, for sorted distinct x.

    Forward pass: the value function V_i(t), the best partial sum with
    f_i = t, stays concave and piecewise linear on [-1, 1] (the "slope
    trick"; Storath, Weinmann & Unser, SIAM J. Sci. Comput. 2016).  The
    window step max_{|s - t| <= g} V(s) moves both sides of the argmax out
    by g and clips at +-1; adding delta_i t raises every slope by delta_i
    and moves the argmax across breakpoints.  A step makes at most one new
    breakpoint and costs O(1) plus the breakpoints the argmax crosses; a
    breakpoint is clipped once it has moved out by 2, so no more are alive
    than there are earlier points within distance 2.
    Backward pass: f_i is the point of V_i's argmax interval nearest to
    f_{i+1}, within reach x_{i+1} - x_i of it.
    """
    s = len(x)
    gaps = np.diff(x).tolist()
    left, right = _Side(), _Side()
    shift = 0.0  # common outward shift of every stored kink
    lo, hi = [0.0] * s, [0.0] * s
    for i, d in enumerate(delta.tolist()):
        if i:
            g = gaps[i - 1]
            shift += g
            left.widen(g, shift)
            right.widen(g, shift)
        if d > 0.0:
            _raise_toward(right, left, d, shift)
        elif d < 0.0:
            _raise_toward(left, right, -d, shift)
        lo[i], hi[i] = -left.end, right.end
    f = [0.0] * s
    t = f[-1] = min(max(0.0, lo[-1]), hi[-1])
    for i in range(s - 2, -1, -1):
        g = gaps[i]
        t = f[i] = min(max(min(max(t, lo[i]), hi[i]), t - g), t + g)
    return np.array(f)


def _signed_weights(p: tuple, q: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union support of two merged rows (lexicographic in R^d)
    and the signed weights P - Q on it.  A stable sort puts a shared
    point's two entries next to each other, so each group of equal points
    holds at most one entry per side and sums to exactly P - Q."""
    x = np.concatenate((p[0], q[0]))
    w = np.concatenate((p[1], -q[1]))
    order = x.argsort(kind="stable") if x.ndim == 1 else np.lexsort(x.T[::-1])
    x, w = x[order], w[order]
    first = np.empty(len(x), dtype=bool)
    first[0] = True
    first[1:] = x[1:] != x[:-1] if x.ndim == 1 else (x[1:] != x[:-1]).any(axis=1)
    start = first.nonzero()[0]
    return x[start], np.add.reduceat(w, start)


# ---------------------------------------------------------------------------
# Discrete optimal transport
# ---------------------------------------------------------------------------

def solve_discrete_ot(cost: CostMatrix | np.ndarray, a: Sequence[float], b: Sequence[float]) -> TransportPlan:
    """Exact optimal transport between two discrete weight vectors.

    Every pair of marginals, uniform or not, goes to the transportation
    linear program (HiGHS), whose equality multipliers provide the dual
    certificate that :func:`verify_plan` checks.
    """
    c = cost.entries if isinstance(cost, CostMatrix) else CostMatrix(np.asarray(cost, dtype=float)).entries
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, mp = c.shape
    if a.shape != (m,) or b.shape != (mp,):
        raise FiniPostError("bad-marginals", "marginal lengths do not match the cost matrix")
    if np.any(a < -_FEAS_TOL) or np.any(b < -_FEAS_TOL):
        raise FiniPostError("bad-marginals", "negative marginal weight")
    if abs(a.sum() - 1.0) > _FEAS_TOL or abs(b.sum() - 1.0) > _FEAS_TOL:
        raise FiniPostError("bad-marginals", "marginals must each sum to 1")

    from scipy.optimize import linprog

    res = linprog(
        c=c.reshape(-1),
        A_eq=_transport_constraints(m, mp),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise FiniPostError("lp-failure", f"transport LP failed: {res.message}")
    coupling = res.x.reshape(m, mp)
    duals = res.eqlin.marginals
    u, v = duals[:m].copy(), duals[m:].copy()
    total = float(np.sum(coupling * c))
    return TransportPlan(coupling, total, a, b, (u, v))


def _transport_constraints(m: int, mp: int):
    """Row sums then column sums of the row-major flattened m x mp plan, as
    one sparse CSR matrix."""
    from scipy import sparse

    rows = sparse.kron(sparse.eye(m), np.ones((1, mp)))
    return sparse.vstack([rows, sparse.hstack([sparse.eye(mp)] * m)], format="csr")


def verify_plan(
    plan: TransportPlan,
    cost: CostMatrix | np.ndarray,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
) -> PlanCheck:
    """Check marginals, dual feasibility and the duality gap of a plan."""
    c = cost.entries if isinstance(cost, CostMatrix) else np.asarray(cost, dtype=float)
    g = plan.coupling
    if g.shape != c.shape:
        return PlanCheck(False, "shape")
    if np.any(g < -_FEAS_TOL):
        return PlanCheck(False, "negative")
    if np.max(np.abs(g.sum(axis=1) - plan.row_marginal)) > _FEAS_TOL:
        return PlanCheck(False, "marginal")
    if np.max(np.abs(g.sum(axis=0) - plan.col_marginal)) > _FEAS_TOL:
        return PlanCheck(False, "marginal")
    if abs(float(np.sum(g * c)) - plan.cost) > _FEAS_TOL * (1.0 + abs(plan.cost)):
        return PlanCheck(False, "cost")
    u, v = duals if duals is not None else plan.duals
    if np.max(u[:, None] + v[None, :] - c) > _OPT_TOL:
        return PlanCheck(False, "dual-infeasible")
    dual_value = float(np.dot(u, plan.row_marginal) + np.dot(v, plan.col_marginal))
    if abs(plan.cost - dual_value) > _OPT_TOL:
        return PlanCheck(False, "gap")
    return PlanCheck(True)


# ---------------------------------------------------------------------------
# Plug-in meta distance between two samples of measures
# ---------------------------------------------------------------------------

_GROUNDS = ("TV", "BL")
_MAX_COST_MATRIX_BYTES = 2**31  # m = 16384 float64 costs per side


def meta_w1(ps, qs, ground: str = "TV") -> float:
    """Plug-in transport distance between the laws behind two measure samples.

    Solves the uniform-marginal transport problem between the samples
    exactly, as an optimal matching.  The ground metric is always
    explicit: "TV" on a common finite alphabet, "BL" on the line or R^d.
    """
    return meta_w1_matched(ps, qs, ground)[0]


def meta_w1_matched(ps, qs, ground: str = "TV") -> tuple[float, np.ndarray]:
    """As :func:`meta_w1`, also returning the optimally matched pair costs.

    The plug-in value is the mean of the returned array, and its standard
    error is the array's deviation over sqrt(m).  Under "TV" the two
    samples may also be given as (m, k) weight matrices whose columns
    share one alphabet order; measure lists are converted to such
    matrices over their union alphabet on entry.  Under "BL" they may be
    given as lists of merged rows (``merged_rows``); measure lists are
    converted to such lists on entry.  Under "BL" on the line the cost
    state starts as the exact diagonal and lower bounds elsewhere; each
    round solves the matched pairs not yet exact and assigns again.  It
    ends below the exact costs and equal to them on the matching, which
    is therefore optimal for the exact costs too.  Where the optimum is
    not unique, this certified matching may differ from the dense one.
    """
    if ground not in _GROUNDS:
        raise FiniPostError("config-error", f"unknown ground metric {ground!r}")
    if len(ps) != len(qs) or len(ps) == 0:
        raise FiniPostError("size-mismatch", f"need equal nonempty samples, got {len(ps)} vs {len(qs)}")
    ps, qs = _as_arrays(ps, qs, ground)
    if ground == "TV" and ps.shape[1] <= 2:
        # On two letters the TV cost is the absolute difference of the
        # first-letter masses, and the sorted matching is optimal.
        matched = np.abs(np.sort(ps[:, 0]) - np.sort(qs[:, 0])) if ps.shape[1] == 2 else np.zeros(len(ps))
        return float(matched.mean()), matched
    from scipy.optimize import linear_sum_assignment

    if ground != "BL" or ps[0][0].ndim > 1:
        cost = meta_cost_matrix(ps, qs, ground)
        matched = cost[linear_sum_assignment(cost)]
    else:
        _refuse_huge(len(ps), len(qs))
        values, xs, fs = zip(*[_bl_solve(p, q) for p, q in zip(ps, qs)])
        cost, exact = _bl_lower_bounds(ps, qs, zip(xs, fs)), np.eye(len(ps), dtype=bool)
        cost[exact] = values
        rows, cols = linear_sum_assignment(cost)
        while not exact[rows, cols].all():
            for i, j in zip(rows.tolist(), cols.tolist()):
                if not exact[i, j]:
                    cost[i, j], exact[i, j] = _bl_solve(ps[i], qs[j])[0], True
            rows, cols = linear_sum_assignment(cost)
        matched = cost[rows, cols]
    return float(matched.mean()), matched


def _bl_lower_bounds(ps, qs, witnesses) -> np.ndarray:
    """LB_ij = max_k |int f_k dp_i - int f_k dq_j| <= BL(p_i, q_j) between
    merged rows on the line (Kantorovich-Rubinstein duality; Villani 2009,
    ch. 5-6), over the given test functions f_k (in [-1, 1] and 1-Lipschitz
    on sorted points, as is their ``np.interp`` extension) and 13 ramps
    clip(x - t, -1, 1), t at quantiles of all points; shrunk for rounding."""
    m, rows = len(ps), (*ps, *qs)
    points = np.concatenate([x for x, _ in rows])
    weights = np.concatenate([w for _, w in rows])
    owner = np.repeat(np.arange(2 * m), [len(x) for x, _ in rows])
    ramp = np.array([-1.0, 1.0])
    lb = np.zeros((m, m))
    for x, f in [*witnesses, *((t + ramp, ramp) for t in np.quantile(points, np.linspace(0.0, 1.0, 13)))]:
        integral = np.bincount(owner, weights * np.interp(points, x, f), minlength=2 * m)
        np.maximum(lb, np.abs(integral[:m, None] - integral[None, m:]), out=lb)
    return np.maximum(0.0, (1.0 - 1e-9) * lb - 1e-12)


def meta_cost_matrix(ps, qs, ground: str) -> np.ndarray:
    """Ground costs between two samples: (m, k) weight matrices under
    "TV", lists of merged rows or of measures under "BL".  A
    matrix above 2 GiB is refused with "resource-limit" before anything is
    allocated.  Under "BL" it is the reference for :func:`meta_w1_matched`."""
    _refuse_huge(len(ps), len(qs))
    ps, qs = _as_arrays(ps, qs, ground)
    if ground == "TV":
        m, k = ps.shape
        out = np.empty((m, m))
        block = max(1, int(2**22 // max(1, m * k)))
        for lo in range(0, m, block):
            hi = min(m, lo + block)
            out[lo:hi] = 0.5 * np.abs(ps[lo:hi, None, :] - qs[None, :, :]).sum(axis=2)
        return out
    return np.array([[_bl_solve(p, q)[0] for q in qs] for p in ps])


def _refuse_huge(m: int, mp: int) -> None:
    if 8 * m * mp > _MAX_COST_MATRIX_BYTES:
        raise FiniPostError("resource-limit", f"a {m} x {mp} cost matrix needs {8 * m * mp / 2**30:.1f} GiB, above "
                            f"the {_MAX_COST_MATRIX_BYTES / 2**30:.0f} GiB limit; lower m_samples")


def _as_arrays(ps, qs, ground: str) -> tuple:
    """Two samples as (m, k) weight matrices under "TV" and lists of
    merged rows under "BL", converted from lists of measures on one space
    (labels under TV, the line or R^d under BL) where need be (TV columns
    follow the union alphabet), or checked if given."""
    if ground == "TV" and isinstance(ps, np.ndarray) and isinstance(qs, np.ndarray):
        P, Q = weight_matrix(ps), weight_matrix(qs)
        if P.shape != Q.shape:
            raise FiniPostError("size-mismatch", f"weight matrices of shapes {P.shape} vs {Q.shape}")
        return P, Q
    given = [isinstance(p, AtomicMeasure) for p in (*ps, *qs)]
    if ground != "TV" and not any(given):
        return checked_rows(ps), checked_rows(qs)
    if not all(given):
        raise FiniPostError("space-mismatch", "give two samples in array form or two lists of measures")
    spaces = {p.space for p in (*ps, *qs)}
    if ground == "TV":
        if not all(isinstance(sp, FiniteAlphabet) for sp in spaces):
            raise FiniPostError("space-mismatch", "TV ground needs finite-alphabet measures")
        labels = tuple(sorted(set().union(*[sp.labels for sp in spaces])))
        alphabet = next(iter(spaces)) if len(spaces) == 1 else FiniteAlphabet(labels)
        return np.stack([p.weight_vector(alphabet) for p in ps]), np.stack([q.weight_vector(alphabet) for q in qs])
    space = spaces.pop()
    if spaces or isinstance(space, FiniteAlphabet):
        raise FiniPostError("space-mismatch", "BL ground needs measures on one space, the line or R^d")
    return [_row(p) for p in ps], [_row(q) for q in qs]


def _row(m: AtomicMeasure) -> tuple[np.ndarray, np.ndarray]:
    """A measure's points (scalars, label strings or (s, d) vectors) and weights."""
    return np.asarray(m.points), m.weights
