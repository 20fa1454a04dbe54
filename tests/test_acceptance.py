"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import math
import time

import numpy as np
import pytest

from finipost.bounds import MedianLawInputs, finite_bound, l21_moment_bound, median_cdf, median_tail_bounds
from finipost.estimators import (
    EstimatorInputs,
    cdf_estimators,
    finitary_functional,
    gini_estimators,
    mean_estimators,
    posterior_risk_profile,
    variance_estimators,
)
from finipost.families import GaussianLaw, UniformLaw
from finipost.harness import ExperimentConfig, run_experiment
from finipost.measures import (
    AtomicMeasure,
    Sample,
    cdf_of,
    empirical,
    gini_md,
    integrate,
    l21_functional,
    moment,
)
from finipost.priors import DirichletProcessModel, FiniteDirichletModel, batched_sequences, sample_sequence
from finipost.rng import derive_seed
from finipost.transport import (
    bounded_lipschitz,
    solve_discrete_ot,
    verify_plan,
    w1_real,
)
from test_estimators import row_gini


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def lstsq_slope(Ns, values):
    lx = np.log(np.asarray(Ns, dtype=float))
    ly = np.log(np.asarray(values, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    return float(np.linalg.lstsq(A, ly, rcond=None)[0][0])


def test_criterion_1_exact_small_case_oracle():
    """k=2, Dirichlet(1,1), n=0, N=2: plug-in lands near 5/36, below the bound."""
    target = 5 / 36
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "bound_finite",
            "model": {"kind": "finite_dirichlet", "alpha": [1.0, 1.0]},
            "n": 0,
            "N_grid": [2],
            "m_samples": 2000,
            "replicates": 1,
            "ground": "TV",
            "master_seed": 42,
        }
    )
    t0 = time.perf_counter()
    row = run_experiment(cfg).rows[0]
    elapsed = time.perf_counter() - t0
    ok = abs(row.estimate - target) < 0.02 and row.estimate < finite_bound(2, 0, 2) and elapsed < 30
    report(1, ok, f"estimate {row.estimate:.5f} vs 5/36={target:.5f}, bound {row.bound:.5f}, {elapsed:.2f}s")
    assert abs(row.estimate - target) < 0.02
    assert row.estimate < finite_bound(2, 0, 2) == pytest.approx(0.35355339059327373)
    assert elapsed < 30


def test_criterion_2_finite_alphabet_bound_suite():
    """k=3, n=10, N=100, m=500, 20 replicates: no estimate above bound + 3 SE."""
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "bound_finite",
            "model": {"kind": "finite_dirichlet", "alpha": [1.0, 1.0, 1.0]},
            "n": 10,
            "N_grid": [100],
            "m_samples": 500,
            "replicates": 20,
            "ground": "TV",
            "master_seed": 7,
        }
    )
    t0 = time.perf_counter()
    rows = run_experiment(cfg).rows
    elapsed = time.perf_counter() - t0
    bound = finite_bound(3, 10, 100)
    assert bound == pytest.approx(0.17905694150420948)
    bad = [r for r in rows if r.estimate > bound + 3 * r.stderr]
    ok = not bad and elapsed < 120
    report(
        2,
        ok,
        f"20 replicates, estimates [{min(r.estimate for r in rows):.4f}, "
        f"{max(r.estimate for r in rows):.4f}] vs bound {bound:.5f}, {elapsed:.1f}s",
    )
    assert not bad
    assert elapsed < 120


def test_criterion_3_mean_functional_bound():
    """DP(1, standard normal), f = id, N=100: estimate <= 0.2 in 20/20 replicates."""
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "bound_mean",
            "model": {
                "kind": "dirichlet_process",
                "mass": 1.0,
                "base": {"family": "gaussian", "mu": 0, "sigma": 1},
            },
            "n": 0,
            "N_grid": [100],
            "m_samples": 10000,
            "replicates": 20,
            "ground": "BL",
            "f_spec": {"kind": "identity"},
            "master_seed": 9,
        }
    )
    t0 = time.perf_counter()
    rows = run_experiment(cfg).rows
    elapsed = time.perf_counter() - t0
    assert rows[0].bound == pytest.approx(0.2)  # E[f(xi_1)^2] = 1
    below = [r for r in rows if r.estimate <= 0.2]
    ok = len(below) == 20 and elapsed < 60
    report(
        3,
        ok,
        f"estimates [{min(r.estimate for r in rows):.4f}, {max(r.estimate for r in rows):.4f}]"
        f" vs 0.2, below in {len(below)}/20, {elapsed:.1f}s",
    )
    assert len(below) == 20
    assert elapsed < 60


def test_criterion_4_rate_reproduction():
    """Log-log slope of the plug-in estimates over N in {25,100,400,1600}.

    Implemented exactly as stated.  Known to fail: the plug-in estimate
    tracks the true transport distance, which decays like 1/N (for the
    two-letter case it equals (2N+1)/(6N(N+1)) exactly, matching the 5/36
    oracle of criterion 1 at N=2), flattened by the m-sample plug-in bias
    floor; the stated window presumes the bounds' N^(-1/2) rate transfers
    to the distance itself.  See the decisions ledger for the analysis and
    measurements.
    """
    grid = [25, 100, 400, 1600]
    slopes = {}
    for name, cfg_dict in (
        (
            "finite",
            {
                "experiment": "bound_finite",
                "model": {"kind": "finite_dirichlet", "alpha": [1.0, 1.0, 1.0]},
                "n": 0,
                "N_grid": grid,
                "m_samples": 500,
                "replicates": 5,
                "ground": "TV",
                "master_seed": 2026,
            },
        ),
        (
            "mean",
            {
                "experiment": "bound_mean",
                "model": {
                    "kind": "dirichlet_process",
                    "mass": 1.0,
                    "base": {"family": "gaussian", "mu": 0, "sigma": 1},
                },
                "n": 0,
                "N_grid": grid,
                "m_samples": 10000,
                "replicates": 5,
                "ground": "BL",
                "f_spec": {"kind": "identity"},
                "master_seed": 2026,
            },
        ),
    ):
        rows = run_experiment(ExperimentConfig.from_dict(cfg_dict)).rows
        medians = [float(np.median([r.estimate for r in rows if r.N == N])) for N in grid]
        slopes[name] = (lstsq_slope(grid, medians), medians)
    ok = all(-0.65 <= s <= -0.35 for s, _ in slopes.values())
    detail = "; ".join(
        f"{name}: slope {s:.3f}, medians {[round(v, 5) for v in med]}"
        for name, (s, med) in slopes.items()
    )
    report(4, ok, detail + "  [window [-0.65, -0.35]; see ledger: distance decays ~1/N]")
    for name, (s, _) in slopes.items():
        assert -0.65 <= s <= -0.35, (
            f"{name} slope {s:.3f} outside [-0.65, -0.35]: the plug-in estimate follows the "
            "true ~1/N decay plus an m-dependent bias floor, not the bound's N^(-1/2) rate "
            "(see decisions ledger)"
        )


def _plug_in(name, history):
    e = empirical(history)
    if name == "mean":
        return integrate(e, lambda v: v)
    if name == "variance":
        return integrate(e, lambda v: v * v) - integrate(e, lambda v: v) ** 2
    if name == "cdf":
        return integrate(e, lambda v: 1.0 if v <= 0.25 else 0.0)
    return gini_md(e)


def test_criterion_5_estimator_identities_and_master_oracle():
    """n=50=N collapse at 1e-12 for both models; Monte Carlo agreement at a
    horizon where the coefficient resolutions are active."""
    dp = DirichletProcessModel(1.0, GaussianLaw(0, 1))
    fd = FiniteDirichletModel((1.0, 1.0), atoms=(0.0, 1.0))
    max_gap = 0.0
    for model, seed in ((dp, 50), (fd, 51)):
        history = sample_sequence(model, 50, derive_seed(seed))
        inputs = EstimatorInputs(model, history, 50)
        gaps = [
            abs(mean_estimators(inputs).finitary - _plug_in("mean", history)),
            abs(variance_estimators(inputs).finitary - _plug_in("variance", history)),
            abs(cdf_estimators(inputs, 0.25).finitary - _plug_in("cdf", history)),
            abs(gini_estimators(inputs).finitary - _plug_in("gini", history)),
        ]
        max_gap = max(max_gap, *gaps)
    assert max_gap <= 1e-12

    # Monte Carlo master oracle at n=12, N=40 (the (N-n-1) and j<=n terms
    # are active there; at n=N they vanish and would certify nothing).
    checks = []
    for model, seed in ((dp, 60), (fd, 61)):
        history = sample_sequence(model, 12, derive_seed(seed))
        inputs = EstimatorInputs(model, history, 40)
        closed = {
            "mean": mean_estimators(inputs).finitary,
            "variance": variance_estimators(inputs).finitary,
            "cdf": cdf_estimators(inputs, 0.25).finitary,
            "gini": gini_estimators(inputs).finitary,
        }
        functionals = {
            "mean": lambda x: x.mean(axis=1),
            "variance": lambda x: x.var(axis=1),
            "cdf": lambda x: (x <= 0.25).mean(axis=1),
            "gini": row_gini,
        }
        for i, (name, t) in enumerate(functionals.items()):
            mc, se = finitary_functional(inputs, t, 10000, derive_seed(70 + i, seed))
            checks.append((name, abs(closed[name] - mc), 4 * se))
    ok = max_gap <= 1e-12 and all(gap <= tol for _, gap, tol in checks)
    worst = max(checks, key=lambda c: c[1] / max(c[2], 1e-300))
    report(
        5,
        ok,
        f"collapse gap {max_gap:.2e}; MC oracle worst {worst[0]}: |gap| {worst[1]:.4f} vs 4se {worst[2]:.4f}",
    )
    for name, gap, tol in checks:
        assert gap <= tol, (name, gap, tol)


def test_criterion_6_posterior_risk_minimality():
    """DP mean problem, n=5, N=50: the finite-horizon estimate minimizes the
    sampled risk against +/- 0.05 shifts, 1e5 replicas, 4 sigma."""
    dp = DirichletProcessModel(1.0, GaussianLaw(0, 1))
    history = sample_sequence(dp, 5, derive_seed(80))
    inputs = EstimatorInputs(dp, history, 50)
    delta_fb = mean_estimators(inputs).finitary
    t = lambda x: x.mean(axis=1)  # noqa: E731
    actions = [delta_fb - 0.05, delta_fb, delta_fb + 0.05]
    t0 = time.perf_counter()
    risks = posterior_risk_profile(inputs, t, actions, 100000, derive_seed(81))
    elapsed = time.perf_counter() - t0
    (rm, sm), (rc, sc), (rp, sp) = risks
    ok = rc <= rm + 4 * math.sqrt(sm**2 + sc**2) and rc <= rp + 4 * math.sqrt(sp**2 + sc**2)
    report(
        6,
        ok,
        f"risk({delta_fb:+.4f}) = {rc:.5f} vs left {rm:.5f}, right {rp:.5f} ({elapsed:.0f}s)",
    )
    assert rc <= rm + 4 * math.sqrt(sm**2 + sc**2)
    assert rc <= rp + 4 * math.sqrt(sp**2 + sc**2)


def test_criterion_7_median_law():
    """Uniform[0,1], N=1: empirical median CDF matches 3F^2-2F^3 at F=0.3
    within 0.005 over 1e5 draws; exact symmetry; tail inequalities on an
    11-point grid for N = 1..50."""
    from finipost.priors import FixedLawModel

    model = FixedLawModel(UniformLaw(0, 1))
    rng = derive_seed(90)
    draws = batched_sequences(model, Sample((), space=model.space), 3, 100000, rng)
    medians = np.median(draws, axis=1)
    target = 3 * 0.09 - 2 * 0.027
    assert target == pytest.approx(0.216)
    empirical_p = float(np.mean(medians <= 0.3))
    ok_mc = abs(empirical_p - target) < 0.005

    ok_sym = median_cdf(MedianLawInputs(17, 0.5)) == 0.5

    ok_tails = True
    for N in range(1, 51):
        for F in np.linspace(0.0, 1.0, 11):
            value = median_cdf(MedianLawInputs(N, float(F)))
            left, right = median_tail_bounds(N, float(F), 1.0 - float(F))
            ok_tails &= value <= left + 1e-12 and 1.0 - value <= right + 1e-12
    ok = ok_mc and ok_sym and ok_tails
    report(7, ok, f"empirical {empirical_p:.4f} vs 0.216; symmetry exact {ok_sym}; tails {ok_tails}")
    assert ok_mc and ok_sym and ok_tails


def test_criterion_8_ot_solver_exactness():
    """100 random uniform-marginal instances per size 2..6: solver equals the
    permutation minimum exactly and the dual certificate closes the gap."""
    rng = np.random.default_rng(777)
    worst_gap = 0.0
    for m in range(2, 7):
        marg = np.full(m, 1.0 / m)
        for _ in range(100):
            c = rng.random((m, m))
            plan = solve_discrete_ot(c, marg, marg)
            best = min(
                sum(c[i, p[i]] for i in range(m)) for p in itertools.permutations(range(m))
            ) / m
            assert plan.cost == pytest.approx(best, abs=1e-12)
            check = verify_plan(plan, c)
            assert check, check.reason
            u, v = plan.duals
            gap = abs(plan.cost - float(u @ plan.row_marginal + v @ plan.col_marginal))
            worst_gap = max(worst_gap, gap)
    ok = worst_gap <= 1e-9
    report(8, ok, f"500 instances exact; worst duality gap {worst_gap:.2e}")
    assert worst_gap <= 1e-9


def test_criterion_9_bounded_lipschitz_properties():
    """Identity, the diameter cap, domination by w1, and mixture convexity,
    all on certificate-checked values."""
    rng = np.random.default_rng(888)

    def random_measure(max_atoms=8):
        k = int(rng.integers(1, max_atoms + 1))
        pts = rng.uniform(-4, 4, size=k)
        w = rng.dirichlet(np.ones(k))
        return AtomicMeasure(list(zip(pts, w)))

    worst_excess = -1.0
    for _ in range(200):
        p, q = random_measure(), random_measure()
        beta, dual = bounded_lipschitz(p, q)
        assert dual.pairing(p, q) == pytest.approx(beta, abs=1e-9)  # certificate
        assert beta <= 2.0 + 1e-9
        assert beta <= w1_real(p, q) + 1e-9
        worst_excess = max(worst_excess, beta - w1_real(p, q))
    zero, _ = bounded_lipschitz(random_measure(), AtomicMeasure([(0.0, 1.0)]))
    p0 = random_measure()
    self_val, _ = bounded_lipschitz(p0, p0)
    assert self_val == pytest.approx(0.0, abs=1e-12)

    from finipost.measures import mixture

    ok_convex = True
    for _ in range(200):
        p, q1, q2 = random_measure(4), random_measure(4), random_measure(4)
        b1 = bounded_lipschitz(p, q1)[0]
        b2 = bounded_lipschitz(p, q2)[0]
        for eps in (0.2, 0.5, 0.8):
            bm = bounded_lipschitz(p, mixture(q1, q2, eps))[0]
            ok_convex &= bm <= eps * b1 + (1 - eps) * b2 + 1e-9
    ok = ok_convex and worst_excess <= 1e-9
    report(9, ok, f"200 pairs: beta<=w1 (max excess {worst_excess:.2e}), beta<=2, convexity {ok_convex}")
    assert ok_convex


def test_criterion_10_functional_oracles():
    """pi/8 for the uniform sqrt(F(1-F)) integral, exact fair-coin mean
    difference, and moment-bound domination on 100 random measures."""
    got = l21_functional(UniformLaw(0, 1))
    ok_pi = abs(got - math.pi / 8) < 1e-6
    ok_gini = gini_md(AtomicMeasure([(0.0, 0.5), (1.0, 0.5)])) == 0.5

    rng = np.random.default_rng(999)
    ok_dom = True
    for _ in range(100):
        k = int(rng.integers(1, 10))
        pts = rng.normal(scale=1.5, size=k)
        w = rng.dirichlet(np.ones(k))
        m = AtomicMeasure(list(zip(pts, w)))
        delta = float(rng.uniform(0.25, 2.5))
        ok_dom &= l21_functional(cdf_of(m)) <= l21_moment_bound(delta, moment(m, 2.0 + delta)) + 1e-9
    ok = ok_pi and ok_gini and ok_dom
    report(10, ok, f"l21(U[0,1]) = {got:.8f} vs pi/8 = {math.pi / 8:.8f}; fair-coin exact {ok_gini}; domination {ok_dom}")
    assert ok_pi and ok_gini and ok_dom
