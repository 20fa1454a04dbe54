"""Distances: scalar Wasserstein, total variation, bounded Lipschitz with
certificates, discrete optimal transport with duals, and the plug-in meta
distance between measure samples."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finipost import transport
from finipost.errors import FiniPostError
from finipost.measures import AtomicMeasure, FiniteAlphabet, Sample, empirical, merged_rows
from finipost.transport import (
    LipschitzDual,
    TransportPlan,
    bounded_lipschitz,
    meta_cost_matrix,
    meta_w1,
    meta_w1_matched,
    solve_discrete_ot,
    tv_finite,
    verify_plan,
    w1_real,
)


def dirac(x):
    return empirical(Sample((x,)))


def random_scalar_pair(rng, max_atoms=10, span=4.0):
    out = []
    for _ in range(2):
        k = int(rng.integers(1, max_atoms + 1))
        pts = rng.uniform(-span, span, size=k)
        w = rng.dirichlet(np.ones(k))
        out.append(AtomicMeasure(list(zip(pts, w))))
    return out


def random_finite_pair(rng, alphabet):
    out = []
    for _ in range(2):
        w = rng.dirichlet(np.ones(alphabet.k))
        out.append(AtomicMeasure(list(zip(alphabet.labels, w)), space=alphabet))
    return out


class TestW1Real:
    def test_translation(self):
        assert w1_real(dirac(0.0), dirac(1.0)) == 1.0

    def test_identity(self):
        p = AtomicMeasure([(0.0, 0.5), (1.0, 0.5)])
        assert w1_real(p, p) == 0.0

    def test_split_vs_center(self):
        p = AtomicMeasure([(0.0, 0.5), (1.0, 0.5)])
        assert w1_real(p, dirac(0.5)) == 0.5

    def test_matches_sorted_samples(self):
        # Between two equal-size empirical measures w1 is the mean absolute
        # difference of the order statistics, the cost bound_mean matches on.
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs = rng.normal(size=17)
            ys = rng.normal(size=17)
            a = np.mean(np.abs(np.sort(xs) - np.sort(ys)))
            b = w1_real(empirical(Sample(tuple(xs))), empirical(Sample(tuple(ys))))
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("p, q", [
        (empirical(Sample(("a", "b"))), empirical(Sample(("a",)))),
        (AtomicMeasure([((0.0, 0.0), 1.0)]), AtomicMeasure([((1.0, 0.0), 1.0)])),
        (dirac(0.0), AtomicMeasure([((0.0, 0.0), 1.0)])),
    ], ids=["labels", "plane", "mixed"])
    def test_off_the_line_is_refused(self, p, q):
        for a, b in ((p, q), (q, p)):
            with pytest.raises(FiniPostError) as err:
                w1_real(a, b)
            assert err.value.code == "space-mismatch"


class TestTvFinite:
    def test_disjoint_masses(self):
        alpha = FiniteAlphabet(("a", "b"))
        p = AtomicMeasure([("a", 1.0)], space=alpha)
        q = AtomicMeasure([("b", 1.0)], space=alpha)
        assert tv_finite(p, q) == 1.0

    def test_identity(self):
        p = empirical(Sample(("a", "b", "b")))
        assert tv_finite(p, p) == 0.0

    def test_half_l1(self):
        alpha = FiniteAlphabet(("a", "b", "c"))
        p = AtomicMeasure([("a", 0.5), ("b", 0.5)], space=alpha)
        q = AtomicMeasure([("a", 0.25), ("b", 0.25), ("c", 0.5)], space=alpha)
        assert tv_finite(p, q) == pytest.approx(0.5, abs=1e-15)

    def test_alphabet_mismatch(self):
        p = empirical(Sample(("a",)))
        q = empirical(Sample(("b",)))
        with pytest.raises(FiniPostError) as err:
            tv_finite(p, q)
        assert err.value.code == "space-mismatch"


class TestBoundedLipschitz:
    def test_zero_on_equal(self):
        p = AtomicMeasure([(0.0, 0.5), (1.0, 0.5)])
        value, dual = bounded_lipschitz(p, p)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_unit_separation(self):
        value, dual = bounded_lipschitz(dirac(0.0), dirac(1.0))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_box_cap_at_two(self):
        value, dual = bounded_lipschitz(dirac(0.0), dirac(3.0))
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_brute_force_grid_oracle(self):
        # Exhaustive grid search over test-function values for (d0, d1).
        grid = np.linspace(-1.0, 1.0, 41)
        best = max(f0 - f1 for f0 in grid for f1 in grid if abs(f0 - f1) <= 1.0 + 1e-12)
        value, _ = bounded_lipschitz(dirac(0.0), dirac(1.0))
        assert value == pytest.approx(best, abs=1e-9)

    def test_certificate_achieves_value(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            p, q = random_scalar_pair(rng)
            value, dual = bounded_lipschitz(p, q)
            assert dual.pairing(p, q) == pytest.approx(value, abs=1e-9)

    def test_euclidean_pairs(self):
        p = AtomicMeasure([((0.0, 0.0), 1.0)])
        q = AtomicMeasure([((3.0, 4.0), 1.0)])
        value, _ = bounded_lipschitz(p, q)
        assert value == pytest.approx(2.0, abs=1e-9)  # distance 5 capped by the box
        q2 = AtomicMeasure([((0.3, 0.4), 1.0)])
        value2, _ = bounded_lipschitz(p, q2)
        assert value2 == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("span", [0.3, 1.0, 4.0])
    def test_euclidean_multi_atom_against_pairwise_lp(self, span):
        rng = np.random.default_rng(17)
        for _ in range(8):
            p, q = (
                AtomicMeasure(list(zip(map(tuple, rng.uniform(-span, span, (k, 2))), rng.dirichlet(np.ones(k)))))
                for k in rng.integers(3, 8, size=2)
            )
            value, dual = bounded_lipschitz(p, q)
            assert len(dual.support) >= 5
            assert value == pytest.approx(plane_bl_lp(p, q), abs=1e-9)
            assert dual.pairing(p, q) == pytest.approx(value, abs=1e-12)


def plane_bl_lp(p, q):
    """Reference bounded Lipschitz value in R^d: the LP over the union
    support with the two constraints of each pair i < j written one pair
    at a time, solved by HiGHS."""
    from scipy.optimize import linprog

    support = list(dict.fromkeys(list(p.points) + list(q.points)))
    delta = np.zeros(len(support))
    for m, sign in ((p, 1.0), (q, -1.0)):
        for pt, w in zip(m.points, m.weights):
            delta[support.index(pt)] += sign * w
    rows, rhs = [], []
    for i in range(len(support)):
        for j in range(i + 1, len(support)):
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(support[i], support[j])))
            for sign in (1.0, -1.0):
                row = np.zeros(len(support))
                row[i], row[j] = sign, -sign
                rows.append(row)
                rhs.append(d)
    res = linprog(-delta, A_ub=np.array(rows), b_ub=rhs, bounds=[(-1.0, 1.0)] * len(support), method="highs")
    assert res.success
    return -res.fun


def line_bl_lp(p, q):
    """Reference bounded Lipschitz value on the line: the chain LP
    max sum_i f_i (p_i - q_i), |f_i| <= 1, |f_{i+1} - f_i| <= x_{i+1} - x_i,
    solved by HiGHS over the sorted union support."""
    from scipy.optimize import linprog

    x = np.unique(np.concatenate([p.scalars(), q.scalars()]))
    delta = np.zeros(x.size)
    np.add.at(delta, np.searchsorted(x, p.scalars()), p.weights)
    np.add.at(delta, np.searchsorted(x, q.scalars()), -q.weights)
    if x.size == 1:
        return 0.0
    steps = np.diff(np.eye(x.size), axis=0)  # row i: f_{i+1} - f_i
    res = linprog(
        -delta,
        A_ub=np.vstack([steps, -steps]),
        b_ub=np.concatenate([np.diff(x), np.diff(x)]),
        bounds=[(-1.0, 1.0)] * x.size,
        method="highs",
    )
    assert res.success
    return -res.fun


def chain_pair(rng, kind):
    """A random pair of line measures of one shape: "random" supports,
    "shared" atoms drawn from one small pool, "one" atom in all, "two"
    atoms in all, "far" apart atoms (gaps well beyond 2), or "grid":
    empirical measures on a lattice, whose equal weights and gaps make the
    slopes of the value function tie exactly."""
    if kind == "one":
        x = rng.normal()
        return AtomicMeasure([(x, 1.0)]), AtomicMeasure([(x, 1.0)])
    if kind == "two":
        pts = rng.normal(scale=2.0, size=2)
        return tuple(AtomicMeasure(list(zip(pts, rng.dirichlet(np.ones(2))))) for _ in range(2))
    if kind == "random":
        max_atoms, span = int(rng.choice([3, 12, 40])), float(rng.choice([0.1, 1.0, 4.0]))
        return tuple(random_scalar_pair(rng, max_atoms=max_atoms, span=span))
    if kind == "grid":
        pts = 0.25 * rng.integers(-8, 9, size=(2, int(rng.integers(1, 9))))
        return tuple(empirical(Sample(tuple(row.tolist()))) for row in pts)
    pool = np.cumsum(rng.uniform(2.5, 10.0, size=8)) if kind == "far" else rng.normal(size=8)
    out = []
    for _ in range(2):
        k = int(rng.integers(1, 9))
        out.append(AtomicMeasure(list(zip(rng.choice(pool, size=k), rng.dirichlet(np.ones(k))))))
    return tuple(out)


CHAIN_KINDS = ("random", "shared", "one", "two", "far", "grid")


class TestBoundedLipschitzChain:
    """The line solver against an independent LP and its closed forms."""

    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    def test_matches_lp(self, kind):
        rng = np.random.default_rng(CHAIN_KINDS.index(kind))
        for _ in range(60):
            p, q = chain_pair(rng, kind)
            value, _ = bounded_lipschitz(p, q)
            assert value == pytest.approx(line_bl_lp(p, q), abs=1e-9)

    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    def test_matches_transport_under_truncated_metric(self, kind):
        # The primal route: BL is the transport cost under min(|x - y|, 2),
        # which shares no step with the chain or with line_bl_lp, the
        # chain's own dual problem.
        rng = np.random.default_rng(40 + CHAIN_KINDS.index(kind))
        for _ in range(60):
            p, q = chain_pair(rng, kind)
            cost = np.minimum(np.abs(p.scalars()[:, None] - q.scalars()[None, :]), 2.0)
            plan = solve_discrete_ot(cost, p.weights, q.weights)
            assert bounded_lipschitz(p, q)[0] == pytest.approx(plan.cost, abs=1e-9)

    def test_equals_w1_when_span_at_most_two(self):
        # |f| <= 1 never binds on a support of span <= 2, which leaves the
        # Kantorovich-Rubinstein dual of w1.
        rng = np.random.default_rng(21)
        for _ in range(200):
            lo = rng.normal(scale=5.0)
            pts = lo + rng.uniform(0.0, 2.0, size=int(rng.integers(2, 30)))
            cut = int(rng.integers(1, pts.size))
            p = AtomicMeasure(list(zip(pts[:cut], rng.dirichlet(np.ones(cut)))))
            q = AtomicMeasure(list(zip(pts[cut - 1:], rng.dirichlet(np.ones(pts.size - cut + 1)))))
            assert bounded_lipschitz(p, q)[0] == pytest.approx(w1_real(p, q), abs=1e-12)

    def test_certificate_is_feasible_and_tight(self):
        rng = np.random.default_rng(22)
        for kind in ("random", "shared", "two", "far", "grid") * 20:
            p, q = chain_pair(rng, kind)
            value, dual = bounded_lipschitz(p, q)
            x = np.asarray(dual.support, dtype=float)
            f = dual.values[np.argsort(x)]
            assert np.all(np.diff(np.sort(x)) > 0.0)
            assert np.all(np.abs(f) <= 1.0 + 1e-12)
            assert np.all(np.abs(np.diff(f)) <= np.diff(np.sort(x)) + 1e-12)
            LipschitzDual(dual.support, dual.values)
            assert dual.pairing(p, q) == pytest.approx(value, abs=1e-12)

    def test_pairing_outside_the_support_is_refused(self):
        _, dual = bounded_lipschitz(AtomicMeasure([(0.0, 0.5), (1.0, 0.5)]), dirac(0.0))
        with pytest.raises(FiniPostError, match="point 2.0") as err:
            dual.pairing(dirac(2.0), dirac(0.0))
        assert err.value.code == "space-mismatch"


class TestInvariance:
    def test_translation(self):
        rng = np.random.default_rng(23)
        for c in (-3.0, 0.5, 7.25):
            for _ in range(50):
                p, q = random_scalar_pair(rng, max_atoms=10)
                pc, qc = (AtomicMeasure([(x + c, w) for x, w in zip(m.points, m.weights)]) for m in (p, q))
                assert bounded_lipschitz(pc, qc)[0] == pytest.approx(bounded_lipschitz(p, q)[0], abs=1e-12)
                assert w1_real(pc, qc) == pytest.approx(w1_real(p, q), abs=1e-12)

    def test_w1_scale_covariance(self):
        rng = np.random.default_rng(24)
        for c in (0.01, 0.5, 3.0, 40.0):
            for _ in range(50):
                p, q = random_scalar_pair(rng, max_atoms=10)
                pc, qc = (AtomicMeasure([(x * c, w) for x, w in zip(m.points, m.weights)]) for m in (p, q))
                assert w1_real(pc, qc) == pytest.approx(c * w1_real(p, q), rel=1e-12, abs=1e-15)

    def test_bl_symmetric(self):
        rng = np.random.default_rng(25)
        for kind in ("random", "shared", "two", "far", "grid") * 40:
            p, q = chain_pair(rng, kind)
            assert bounded_lipschitz(p, q)[0] == bounded_lipschitz(q, p)[0]

    @pytest.mark.parametrize("k", [3, 5])
    def test_tv_label_permutation(self, k):
        rng = np.random.default_rng(30 + k)
        P, Q = rng.dirichlet(np.ones(k), size=40), rng.dirichlet(np.ones(k), size=40)
        est, matched = meta_w1_matched(P, Q, "TV")
        for _ in range(5):
            perm = rng.permutation(k)
            est_perm, matched_perm = meta_w1_matched(P[:, perm], Q[:, perm], "TV")
            assert est_perm == pytest.approx(est, abs=1e-12)
            np.testing.assert_allclose(np.sort(matched_perm), np.sort(matched), rtol=0, atol=1e-12)

    def test_sample_order(self):
        # The tie-break between optimal matchings may move the matched-cost
        # multiset, but never the estimate.
        rng = np.random.default_rng(33)
        P, Q = rng.dirichlet(np.ones(3), size=60), rng.dirichlet(np.ones(3), size=60)
        ps = [random_scalar_pair(rng, max_atoms=5)[0] for _ in range(8)]
        qs = [random_scalar_pair(rng, max_atoms=5)[0] for _ in range(8)]
        for A, B, ground in ((P, Q, "TV"), (ps, qs, "BL")):
            est = meta_w1(A, B, ground)
            for _ in range(3):
                pa, pb = rng.permutation(len(A)), rng.permutation(len(B))
                A_perm = A[pa] if ground == "TV" else [A[i] for i in pa]
                B_perm = B[pb] if ground == "TV" else [B[i] for i in pb]
                for args in ((A_perm, B), (A, B_perm), (A_perm, B_perm)):
                    assert meta_w1(*args, ground) == pytest.approx(est, abs=1e-12)


class TestMetricProperties:
    def test_axioms_on_random_pairs(self):
        rng = np.random.default_rng(13)
        alpha = FiniteAlphabet(("a", "b", "c", "d"))
        for _ in range(200):
            p, q = random_scalar_pair(rng, max_atoms=6)
            r = random_scalar_pair(rng, max_atoms=6)[0]
            for dist in (w1_real, lambda a, b: bounded_lipschitz(a, b)[0]):
                dpq, dqp = dist(p, q), dist(q, p)
                assert abs(dpq - dqp) <= 1e-10
                assert dist(p, r) <= dpq + dist(q, r) + 1e-9
            pf, qf = random_finite_pair(rng, alpha)
            rf = random_finite_pair(rng, alpha)[0]
            assert abs(tv_finite(pf, qf) - tv_finite(qf, pf)) <= 1e-10
            assert tv_finite(pf, rf) <= tv_finite(pf, qf) + tv_finite(qf, rf) + 1e-9

    def test_bl_below_w1_and_two(self):
        # |f| <= 1 and Lip f <= 1 give BL <= min(w1, 2 TV) <= 2.
        rng = np.random.default_rng(14)
        for _ in range(200):
            p, q = random_scalar_pair(rng, max_atoms=8)
            beta, _ = bounded_lipschitz(p, q)
            assert beta <= min(w1_real(p, q), 2.0 * tv_finite(p, q)) + 1e-9
            assert beta <= 2.0 + 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_w1_triangle_property(self, seed):
        rng = np.random.default_rng(seed)
        p, q = random_scalar_pair(rng, max_atoms=6)
        r = random_scalar_pair(rng, max_atoms=6)[0]
        assert w1_real(p, r) <= w1_real(p, q) + w1_real(q, r) + 1e-10
        assert w1_real(p, q) == pytest.approx(w1_real(q, p), abs=1e-12)

    def test_bl_convex_in_second_argument(self):
        from finipost.measures import mixture

        rng = np.random.default_rng(15)
        for _ in range(60):
            p, q1 = random_scalar_pair(rng, max_atoms=5)
            q2 = random_scalar_pair(rng, max_atoms=5)[0]
            b1 = bounded_lipschitz(p, q1)[0]
            b2 = bounded_lipschitz(p, q2)[0]
            for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
                mixed = mixture(q1, q2, eps)
                assert bounded_lipschitz(p, mixed)[0] <= eps * b1 + (1 - eps) * b2 + 1e-9


class TestSolveDiscreteOt:
    def test_identity_plan(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = solve_discrete_ot(c, [0.5, 0.5], [0.5, 0.5])
        assert plan.cost == 0.0
        assert verify_plan(plan, c)

    def test_antidiagonal_wins(self):
        c = np.array([[3.0, 1.0], [2.0, 4.0]])
        plan = solve_discrete_ot(c, [0.5, 0.5], [0.5, 0.5])
        assert plan.cost == pytest.approx(1.5, abs=1e-12)
        assert verify_plan(plan, c)

    def test_general_marginals_lp(self):
        c = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        plan = solve_discrete_ot(c, [0.3, 0.7], [0.2, 0.5, 0.3])
        assert verify_plan(plan, c)
        assert plan.cost == pytest.approx(0.4, abs=1e-9)

    def test_bad_marginals(self):
        c = np.zeros((2, 2))
        with pytest.raises(FiniPostError) as err:
            solve_discrete_ot(c, [0.6, 0.6], [0.5, 0.5])
        assert err.value.code == "bad-marginals"
        with pytest.raises(FiniPostError):
            solve_discrete_ot(c, [1.2, -0.2], [0.5, 0.5])

    def test_verify_reports_marginal_violation(self):
        c = np.array([[3.0, 1.0], [2.0, 4.0]])
        plan = solve_discrete_ot(c, [0.5, 0.5], [0.5, 0.5])
        bad = TransportPlan(
            plan.coupling + 1e-3, plan.cost, plan.row_marginal, plan.col_marginal, plan.duals
        )
        check = verify_plan(bad, c)
        assert not check and check.reason == "marginal"

    def test_verify_reports_gap(self):
        c = np.array([[3.0, 1.0], [2.0, 4.0]])
        plan = solve_discrete_ot(c, [0.5, 0.5], [0.5, 0.5])
        sub = TransportPlan(
            np.array([[0.5, 0.0], [0.0, 0.5]]), 3.5, plan.row_marginal, plan.col_marginal, plan.duals
        )
        check = verify_plan(sub, c)
        assert not check and check.reason == "gap"


class TestMetaW1:
    def test_zero_on_identical_sequences(self):
        rng = np.random.default_rng(9)
        alpha = FiniteAlphabet(("a", "b", "c"))
        ps = [random_finite_pair(rng, alpha)[0] for _ in range(5)]
        assert meta_w1(ps, list(ps), "TV") == pytest.approx(0.0, abs=1e-15)

    def test_single_pair_is_ground_distance(self):
        alpha = FiniteAlphabet(("a", "b"))
        p = AtomicMeasure([("a", 0.7), ("b", 0.3)], space=alpha)
        q = AtomicMeasure([("a", 0.2), ("b", 0.8)], space=alpha)
        assert meta_w1([p], [q], "TV") == pytest.approx(tv_finite(p, q), abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_brute_force_permutations(self, m):
        rng = np.random.default_rng(10)
        alpha = FiniteAlphabet(("a", "b", "c"))
        for _ in range(20):
            ps = [random_finite_pair(rng, alpha)[0] for _ in range(m)]
            qs = [random_finite_pair(rng, alpha)[0] for _ in range(m)]
            got = meta_w1(ps, qs, "TV")
            cost = np.array([[tv_finite(p, q) for q in qs] for p in ps])
            best = min(
                np.mean([cost[i, perm[i]] for i in range(m)])
                for perm in itertools.permutations(range(m))
            )
            assert got == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("m", [20, 60, 150])
    def test_assignment_equals_transport_lp(self, m):
        # The transportation LP is an independent route to the same value.
        rng = np.random.default_rng(40 + m)
        P, Q = rng.dirichlet(np.ones(3), size=m), rng.dirichlet(np.ones(3), size=m)
        uniform = np.full(m, 1.0 / m)
        lp = solve_discrete_ot(0.5 * np.abs(P[:, None, :] - Q[None, :, :]).sum(axis=2), uniform, uniform)
        assert meta_w1_matched(P, Q, "TV")[0] == pytest.approx(lp.cost, abs=1e-12)

    def test_tv_weight_matrices_checked_once(self, monkeypatch):
        # Each weight matrix is checked once per call, by the matching and
        # by the public cost matrix, whose costs the matching assigns.
        rng = np.random.default_rng(41)
        P, Q = rng.dirichlet(np.ones(3), size=30), rng.dirichlet(np.ones(3), size=30)
        checked, check = [], transport.weight_matrix
        monkeypatch.setattr(transport, "weight_matrix", lambda rows: checked.append(1) or check(rows))
        cost = meta_cost_matrix(P, Q, "TV")
        assert len(checked) == 2
        _, matched = meta_w1_matched(P, Q, "TV")
        assert len(checked) == 4
        assert np.array_equal(matched, dense_matched(cost))

    def test_bl_assignment_equals_transport_lp(self):
        rng = np.random.default_rng(19)
        ps = [random_scalar_pair(rng, max_atoms=6)[0] for _ in range(12)]
        qs = [random_scalar_pair(rng, max_atoms=6)[0] for _ in range(12)]
        cost = np.array([[bounded_lipschitz(p, q)[0] for q in qs] for p in ps])
        uniform = np.full(12, 1.0 / 12)
        lp = solve_discrete_ot(cost, uniform, uniform)
        assert meta_w1(ps, qs, "BL") == pytest.approx(lp.cost, abs=1e-12)

    def test_binary_reduction_matches_assignment(self):
        # The sorted fast path for two-label alphabets must agree with the
        # transportation LP on the full cost matrix.
        rng = np.random.default_rng(12)
        alpha = FiniteAlphabet(("a", "b"))
        ps = [random_finite_pair(rng, alpha)[0] for _ in range(40)]
        qs = [random_finite_pair(rng, alpha)[0] for _ in range(40)]
        got, matched = meta_w1_matched(ps, qs, "TV")
        cost = np.array([[tv_finite(p, q) for q in qs] for p in ps])
        uniform = np.full(40, 1.0 / 40)
        assert got == pytest.approx(solve_discrete_ot(cost, uniform, uniform).cost, abs=1e-12)
        assert matched.mean() == pytest.approx(got, abs=1e-15)

    def test_bl_ground(self):
        rng = np.random.default_rng(18)
        ps = [random_scalar_pair(rng, max_atoms=4)[0] for _ in range(4)]
        qs = [random_scalar_pair(rng, max_atoms=4)[0] for _ in range(4)]
        got = meta_w1(ps, qs, "BL")
        cost = np.array([[bounded_lipschitz(p, q)[0] for q in qs] for p in ps])
        best = min(
            np.mean([cost[i, perm[i]] for i in range(4)])
            for perm in itertools.permutations(range(4))
        )
        assert got == pytest.approx(best, abs=1e-9)

    def test_bl_cost_entries_equal_certified_values(self):
        # The cost matrix takes the value without building the certificate;
        # every entry must still equal the certified value bit for bit.
        from finipost.priors import continue_sequence, model_from_spec, posterior_draw, sample_sequence
        from finipost.rng import derive_seed

        gauss = {"family": "gaussian", "mu": 0.0, "sigma": 1.0}
        models = [
            model_from_spec({"kind": "dirichlet_process", "mass": 1.0, "base": gauss, "max_sticks": 64,
                             "residual_tol": 1e-4}),
            model_from_spec({"kind": "polya_tree", "base": gauss, "depth": 3, "level_alpha": [1.0, 4.0, 9.0]}),
        ]
        rng = derive_seed(60)
        ps, qs = [], []
        for model in models:
            h = sample_sequence(model, 3, rng)
            for _ in range(15):
                ps.append(posterior_draw(model, h, rng))
                qs.append(empirical(continue_sequence(model, h, 12, rng)))
        ps.append(dirac(0.5))  # against itself: a one-point union support
        qs.append(dirac(0.5))
        cost = meta_cost_matrix(ps, qs, "BL")
        assert cost[-1, -1] == 0.0
        assert all(cost[i, j] == bounded_lipschitz(p, q)[0] for i, p in enumerate(ps) for j, q in enumerate(qs))

    @pytest.mark.parametrize("labels", [("c", "a", "b"), ("b", "a")])
    def test_weight_matrices_equal_measure_lists(self, labels):
        # Matrices with columns in sorted-label order give bit-identical
        # results to the measure lists they came from.
        rng = np.random.default_rng(19)
        k = len(labels)
        alpha = FiniteAlphabet(tuple(sorted(labels)))
        order = [labels.index(lab) for lab in alpha.labels]
        P, Q = rng.dirichlet(np.ones(k), size=30), rng.dirichlet(np.ones(k), size=30)
        ps = [AtomicMeasure(list(zip(labels, row)), space=alpha) for row in P]
        qs = [AtomicMeasure(list(zip(labels, row)), space=alpha) for row in Q]
        est, matched = meta_w1_matched(P[:, order], Q[:, order], "TV")
        est_m, matched_m = meta_w1_matched(ps, qs, "TV")
        assert est == est_m and np.array_equal(matched, matched_m)

    @pytest.mark.parametrize("model_spec", [
        {"kind": "dirichlet_process", "mass": 1.0, "base": {"family": "gaussian", "mu": 0.0, "sigma": 1.0},
         "max_sticks": 64, "residual_tol": 1e-4},
        {"kind": "polya_tree", "base": {"family": "gaussian", "mu": 0.0, "sigma": 1.0}, "depth": 3,
         "level_alpha": [1.0, 4.0, 9.0]},
    ], ids=["dp", "polya_tree"])
    def test_merged_rows_equal_measure_lists(self, model_spec):
        # Posterior rows, and empirical rows of the history plus counts
        # (ties and zero counts included), give bit-identical BL results as
        # merged rows and as the measures built from the same padded rows.
        from finipost.priors import batched_posterior_rows, model_from_spec, sample_sequence
        from finipost.rng import derive_seed

        model, rng = model_from_spec(model_spec), derive_seed(61)
        h = sample_sequence(model, 3, rng)
        X, P = batched_posterior_rows(model, h, 20, rng)
        counts = rng.multinomial(9, P / P.sum(axis=1, keepdims=True))
        E = np.hstack([np.broadcast_to(h.scalars(), (20, 3)), X])
        V = np.hstack([np.ones((20, 3)), counts]) / 12
        posts, emps = merged_rows(X, P), merged_rows(E, V)
        measures = [[AtomicMeasure(zip(x.tolist(), w.tolist())) for x, w in zip(A, W)] for A, W in ((X, P), (E, V))]
        for (x, w), m in zip(posts + emps, measures[0] + measures[1]):
            order = np.argsort(m.scalars())
            assert np.array_equal(x, m.scalars()[order]) and np.array_equal(w, m.weights[order])
        est, matched = meta_w1_matched(posts, emps, "BL")
        est_m, matched_m = meta_w1_matched(*measures, "BL")
        assert est == est_m and np.array_equal(matched, matched_m)

    def test_merged_rows_and_measures_do_not_mix(self):
        rows = merged_rows(np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]]))
        with pytest.raises(FiniPostError) as err:
            meta_w1(rows, [dirac(0.5)], "BL")
        assert err.value.code == "space-mismatch"

    @pytest.mark.parametrize("points, weights, code", [
        ([[0.0, 1.0]], [[1.5, -0.5]], "bad-weights"),
        ([[0.0, 1.0]], [[0.5, 0.6]], "bad-weights"),
        ([[0.0, np.inf]], [[0.5, 0.5]], "space-mismatch"),
    ], ids=["negative", "sum", "non-finite"])
    def test_merged_rows_are_checked(self, points, weights, code):
        with pytest.raises(FiniPostError) as err:
            merged_rows(np.array(points), np.array(weights))
        assert err.value.code == code

    @pytest.mark.parametrize("ps, qs, code", [
        ([(np.array([0.0, 1.0]), np.array([0.7, 0.7]))], [(np.array([0.0]), np.array([1.0]))], "bad-weights"),
        ([(np.array([0.0, np.nan]), np.array([0.3, 0.7]))], [(np.array([0.0]), np.array([1.0]))], "space-mismatch"),
        ([1, 2], [3, 4], "bad-weights"),
    ], ids=["sum", "nan-point", "not-a-pair"])
    def test_given_rows_are_checked(self, ps, qs, code):
        with pytest.raises(FiniPostError) as err:
            meta_w1(ps, qs, "BL")
        assert err.value.code == code

    def test_weight_matrix_rows_are_checked(self):
        P = np.array([[0.5, 0.5, 0.0], [0.2, 0.2, 0.2]])
        with pytest.raises(FiniPostError) as err:
            meta_w1(P, P, "TV")
        assert err.value.code == "bad-weights"

    def test_matrix_and_measure_list_do_not_mix(self):
        alpha = FiniteAlphabet(("a", "b"))
        p = AtomicMeasure([("a", 0.7), ("b", 0.3)], space=alpha)
        with pytest.raises(FiniPostError) as err:
            meta_w1(np.array([[0.7, 0.3]]), [p], "TV")
        assert err.value.code == "space-mismatch"

    def test_size_mismatch(self):
        p = dirac(0.0)
        with pytest.raises(FiniPostError) as err:
            meta_w1([p], [p, p], "BL")
        assert err.value.code == "size-mismatch"

    def test_unknown_ground(self):
        p = dirac(0.0)
        with pytest.raises(FiniPostError) as err:
            meta_w1([p], [p], "L2")
        assert err.value.code == "config-error"
        with pytest.raises(FiniPostError) as err:
            meta_w1([p], [p], "W1REAL")
        assert err.value.code == "config-error"


BL_MODELS = {
    "dp": {"kind": "dirichlet_process", "mass": 1.0, "base": {"family": "gaussian", "mu": 0.0, "sigma": 1.0},
           "max_sticks": 64, "residual_tol": 1e-4},
    "polya_tree": {"kind": "polya_tree", "base": {"family": "gaussian", "mu": 0.0, "sigma": 1.0}, "depth": 4,
                   "level_alpha": [1.0, 4.0, 9.0, 16.0]},
}


def bl_cell_config(model, coupling, m, seed, n=5, N=100):
    """One seeded bound_real cell: one N, one replicate."""
    from finipost.harness import ExperimentConfig

    return ExperimentConfig.from_dict({
        "experiment": "bound_real", "model": BL_MODELS[model], "n": n, "N_grid": [N], "m_samples": m,
        "replicates": 1, "ground": "BL", "master_seed": seed, "coupling": coupling,
    })


def bl_cell_rows(monkeypatch, model, coupling, m, seed):
    """The posterior and empirical merged rows of one seeded bound_real
    cell, as the harness hands them to the matching."""
    import finipost.cells as cells
    import finipost.harness as harness

    seen = []

    def capture(ps, qs, ground):
        seen.append((ps, qs))
        return meta_w1_matched(ps, qs, ground)

    with monkeypatch.context() as patch:
        patch.setattr(cells, "meta_w1_matched", capture)
        harness.run_experiment(bl_cell_config(model, coupling, m, seed))
    return seen[0]


def dense_matched(cost):
    from scipy.optimize import linear_sum_assignment

    return cost[linear_sum_assignment(cost)]


def count_solves(monkeypatch) -> list:
    """Count the exact BL solves from here on: one list entry per call."""
    calls, solve = [], transport._bl_solve
    monkeypatch.setattr(transport, "_bl_solve", lambda p, q: calls.append(1) or solve(p, q))
    return calls


class TestCertifiedBL:
    """The lazy certified BL matching against the dense cost matrix."""

    @pytest.mark.parametrize("coupling", ["posterior", "independent"])
    @pytest.mark.parametrize("model", ["dp", "polya_tree"])
    def test_lower_bounds_below_exact_costs(self, monkeypatch, model, coupling):
        ps, qs = bl_cell_rows(monkeypatch, model, coupling, 24, seed=7)
        lb = transport._bl_lower_bounds(ps, qs, [transport._bl_solve(p, q)[1:] for p, q in zip(ps, qs)])
        cost = meta_cost_matrix(ps, qs, "BL")
        assert np.all(lb >= 0.0) and np.all(lb <= cost)
        # Each diagonal pair's own optimal test function attains its cost.
        assert np.all(cost.diagonal() - lb.diagonal() <= 1e-8)

    @pytest.mark.parametrize("coupling", ["posterior", "independent"])
    @pytest.mark.parametrize("model", ["dp", "polya_tree"])
    @pytest.mark.parametrize("m", [16, 24, 64])
    def test_matched_costs_equal_dense(self, monkeypatch, m, model, coupling):
        # The whole cell and its leading half, bit for bit, on cells whose
        # optimum is unique (ties are checked below).
        for seed in (2, 3):
            ps, qs = bl_cell_rows(monkeypatch, model, coupling, m, seed)
            cost = meta_cost_matrix(ps, qs, "BL")
            for h in (m, m // 2):
                est, matched = meta_w1_matched(ps[:h], qs[:h], "BL")
                assert np.array_equal(matched, dense_matched(cost[:h, :h]))
                assert est == float(dense_matched(cost[:h, :h]).mean())

    def test_ramps_alone_stay_exact(self, monkeypatch):
        # Without the diagonal test functions the bounds are weak, so more
        # pairs are solved, but the matching is still the optimum.
        ps, qs = bl_cell_rows(monkeypatch, "dp", "independent", 24, seed=4)
        expected = dense_matched(meta_cost_matrix(ps, qs, "BL"))
        calls = count_solves(monkeypatch)
        assert np.array_equal(meta_w1_matched(ps, qs, "BL")[1], expected)
        with_diagonal = len(calls)
        lower = transport._bl_lower_bounds
        monkeypatch.setattr(transport, "_bl_lower_bounds", lambda ps, qs, witnesses: lower(ps, qs, []))
        calls.clear()
        assert np.array_equal(meta_w1_matched(ps, qs, "BL")[1], expected)
        assert len(calls) > with_diagonal

    @pytest.mark.parametrize(
        "m, seed, twin", [pytest.param(3, 53, 1, id="3-53"), pytest.param(16, 1, 7, id="16-1")]
    )
    def test_tied_cell_gets_an_exact_optimal_matching(self, monkeypatch, m, seed, twin):
        # Cells whose optimum is not unique, built on any stream: posterior
        # row ``twin`` is a copy of row 0, so the two rows have equal costs
        # and may swap partners.  Every matched cost is an exact entry of one
        # permutation, and its sum is the optimum.
        from scipy.optimize import linear_sum_assignment

        ps, qs = bl_cell_rows(monkeypatch, "dp", "independent", m, seed)
        ps = [*ps[:twin], ps[0], *ps[twin + 1 :]]
        cost = meta_cost_matrix(ps, qs, "BL")
        rows, cols = linear_sum_assignment(cost)
        best = cost[rows, cols].sum()
        ties = 0
        for i in range(m):
            banned = cost.copy()
            banned[i, cols[i]] = np.inf
            ties += abs(banned[linear_sum_assignment(banned)].sum() - best) <= 1e-12
        assert ties >= 2
        matched = meta_w1_matched(ps, qs, "BL")[1]
        hits = cost == matched[:, None]
        assert hits[linear_sum_assignment(hits, maximize=True)].all()
        assert abs(matched.sum() - best) <= 1e-12

    @pytest.mark.parametrize("coupling", ["posterior", "independent"])
    def test_few_exact_solves(self, monkeypatch, coupling):
        # One m = 24 cell, one matching: well under the m^2 = 576 solves of
        # the dense matrix, and the same count on a rerun.
        from finipost.harness import run_experiment

        cfg = bl_cell_config("dp", coupling, 24, seed=5)
        calls, counts = count_solves(monkeypatch), []
        for _ in range(2):
            calls.clear()
            run_experiment(cfg)
            counts.append(len(calls))
        assert counts[0] == counts[1] < 0.4 * 24**2

    def test_huge_sample_refused_before_any_solve(self, monkeypatch):
        def solve(p, q):
            raise AssertionError("solved before the size check")

        monkeypatch.setattr(transport, "_bl_solve", solve)
        rows = [(np.array([0.0]), np.array([1.0]))] * 20000
        with pytest.raises(FiniPostError) as err:
            meta_w1_matched(rows, rows, "BL")
        assert err.value.code == "resource-limit"
