"""Exchangeable models: urn probabilities, exchangeability, martingale
consistency, truncation, conjugacy, and the JSON model schema."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from finipost.errors import FiniPostError
from finipost.families import IDENTITY, GaussianLaw, Indicator, PointMassLaw, Product, Square, UniformLaw
from finipost.measures import RealLine, Sample
from finipost.priors import (
    DirichletProcessModel,
    FiniteDirichletModel,
    FixedLawModel,
    PolyaTreeModel,
    StickBreakingModel,
    batched_f_means,
    batched_posterior_integrals,
    batched_posterior_rows,
    batched_sequences,
    continue_sequence,
    model_from_spec,
    polya_tree_marginal,
    posterior_draw,
    predictive_expectation,
    predictive_expectation_mc,
    predictive_pair_expectation,
    sample_sequence,
)
from finipost.rng import derive_seed

FD = FiniteDirichletModel((1.0, 1.0), atoms=("a", "b"))
FD01 = FiniteDirichletModel((1.0, 1.0), atoms=(0.0, 1.0))
DP = DirichletProcessModel(1.0, GaussianLaw(0, 1))
DP_SHIFTED = DirichletProcessModel(1.0, GaussianLaw(-3.0, 1.0))


def freq(events):
    return float(np.mean(events))


def freq_se(p, r):
    return math.sqrt(max(p * (1 - p), 1e-12) / r)


class TestSampling:
    def test_zero_length(self):
        s = sample_sequence(DP, 0, derive_seed(0))
        assert len(s) == 0 and s.space == DP.space

    def test_negative_length(self):
        with pytest.raises(FiniPostError) as err:
            sample_sequence(DP, -1, derive_seed(0))
        assert err.value.code == "bad-length"

    def test_fd_match_probability(self):
        rng = derive_seed(100)
        R = 60000
        pairs = [sample_sequence(FD, 2, rng).values for _ in range(R)]
        p = freq([a == b for a, b in pairs])
        assert abs(p - 2 / 3) <= 4 * freq_se(2 / 3, R)

    def test_dp_repeat_probability(self):
        rng = derive_seed(101)
        R = 60000
        pairs = [sample_sequence(DP, 2, rng).values for a in range(R)]
        p = freq([a == b for a, b in pairs])
        assert abs(p - 0.5) <= 4 * freq_se(0.5, R)

    def test_determinism(self):
        a = sample_sequence(DP, 6, derive_seed(7, 1, 2))
        b = sample_sequence(DP, 6, derive_seed(7, 1, 2))
        assert a.values == b.values


class TestContinuation:
    def test_noop(self):
        h = Sample((0.5, 0.7))
        assert continue_sequence(DP, h, 2, derive_seed(0)) is h

    def test_bad_horizon(self):
        with pytest.raises(FiniPostError) as err:
            continue_sequence(DP, Sample((0.5,)), 0, derive_seed(0))
        assert err.value.code == "bad-horizon"

    def test_fd_predictive_after_one(self):
        rng = derive_seed(102)
        R = 60000
        h = Sample(("a",), space=FD.space)
        hits = [continue_sequence(FD, h, 2, rng).values[1] == "a" for _ in range(R)]
        assert abs(freq(hits) - 2 / 3) <= 4 * freq_se(2 / 3, R)

    def test_dp_new_value_probability(self):
        dp2 = DirichletProcessModel(2.0, GaussianLaw(0, 1))
        rng = derive_seed(103)
        R = 60000
        h = Sample((0.25, 1.5))
        news = [continue_sequence(dp2, h, 3, rng).values[2] not in h.values for _ in range(R)]
        assert abs(freq(news) - 0.5) <= 4 * freq_se(0.5, R)

    def test_composition_law(self):
        # One-step-then-rest must equal straight-to-the-end in law: compare
        # the final a-count distribution of the two routes.
        rng = derive_seed(104)
        R = 50000
        h = Sample(("a",), space=FD.space)

        def a_count(seq):
            return sum(1 for v in seq.values if v == "a")

        direct = np.array([a_count(continue_sequence(FD, h, 4, rng)) for _ in range(R)])
        staged = np.array(
            [a_count(continue_sequence(FD, continue_sequence(FD, h, 2, rng), 4, rng)) for _ in range(R)]
        )
        for count in (1, 2, 3, 4):
            p1 = freq(direct == count)
            p2 = freq(staged == count)
            se = math.sqrt(freq_se(p1, R) ** 2 + freq_se(p2, R) ** 2)
            assert abs(p1 - p2) <= 4 * se

    def test_composition_law_dp(self):
        # Distinct-value counts of the two routes share one law.
        rng = derive_seed(124)
        R = 30000
        h = Sample((0.5,))
        direct = np.array(
            [len(set(continue_sequence(DP, h, 4, rng).values)) for _ in range(R)]
        )
        staged = np.array(
            [
                len(set(continue_sequence(DP, continue_sequence(DP, h, 2, rng), 4, rng).values))
                for _ in range(R)
            ]
        )
        for k in (1, 2, 3, 4):
            p1, p2 = freq(direct == k), freq(staged == k)
            se = math.sqrt(freq_se(p1, R) ** 2 + freq_se(p2, R) ** 2)
            assert abs(p1 - p2) <= 4 * se


class TestExchangeability:
    def test_fd_pair_patterns_permutation_invariant(self):
        rng = derive_seed(105)
        R = 100000
        trips = [sample_sequence(FD, 3, rng).values for _ in range(R)]
        p12 = freq([a == b != c for a, b, c in trips])
        p13 = freq([a == c != b for a, b, c in trips])
        p23 = freq([b == c != a for a, b, c in trips])
        se = freq_se(1 / 6, R)
        for p in (p12, p13, p23):
            assert abs(p - 1 / 6) <= 4 * se

    def test_dp_patterns_permutation_invariant(self):
        rng = derive_seed(106)
        R = 100000
        trips = [sample_sequence(DP, 3, rng).values for _ in range(R)]
        p12 = freq([a == b != c for a, b, c in trips])
        p13 = freq([a == c != b for a, b, c in trips])
        p23 = freq([b == c != a for a, b, c in trips])
        se = freq_se(1 / 6, R)
        for p in (p12, p13, p23):
            assert abs(p - 1 / 6) <= 4 * se
        assert abs(freq([a == b == c for a, b, c in trips]) - 1 / 3) <= 4 * freq_se(1 / 3, R)
        assert abs(freq([len({a, b, c}) == 3 for a, b, c in trips]) - 1 / 6) <= 4 * se


class TestPosteriorDraws:
    def test_fd_prior_uniform_weight(self):
        rng = derive_seed(107)
        ws = np.array(
            [posterior_draw(FD, Sample((), space=FD.space), rng).mass_at("a") for _ in range(20000)]
        )
        assert abs(ws.mean() - 0.5) <= 4 * ws.std(ddof=1) / math.sqrt(ws.size)
        assert abs(np.mean(ws**2) - 1 / 3) <= 0.01  # Beta(1,1) second moment

    def test_fd_martingale_consistency(self):
        rng = derive_seed(108)
        h = Sample(("a", "a"), space=FD.space)
        exact = predictive_expectation(FD, h, lambda x: 1.0 if x == "a" else 0.0)
        assert exact == pytest.approx(0.75)
        ws = np.array([posterior_draw(FD, h, rng).mass_at("a") for _ in range(10000)])
        assert abs(ws.mean() - exact) <= 4 * ws.std(ddof=1) / math.sqrt(ws.size)

    def test_dp_prior_draw_normalized(self):
        rng = derive_seed(109)
        m = posterior_draw(DP, Sample((), space=DP.space), rng)
        assert abs(float(m.weights.sum()) - 1.0) <= 1e-12

    def test_dp_martingale_at_history_atom(self):
        rng = derive_seed(110)
        h = Sample((0.7, 0.7, -1.2))
        exact = predictive_expectation(DP, h, lambda x: 1.0 if x == 0.7 else 0.0)
        assert exact == pytest.approx(2 / 4)
        ws = np.array([posterior_draw(DP, h, rng).mass_at(0.7) for _ in range(10000)])
        assert abs(ws.mean() - exact) <= 4 * ws.std(ddof=1) / math.sqrt(ws.size)

    def test_dp_truncation_residual(self):
        model = DirichletProcessModel(5.0, GaussianLaw(0, 1), max_sticks=4096, residual_tol=1e-6)
        from finipost.priors import _truncated_sticks

        _, weights = _truncated_sticks(
            lambda _k: (1.0, 6.0), model.base, model.max_sticks, model.residual_tol, derive_seed(111), np.ones(200)
        )
        for row in weights:
            sticks, residual = sticks_and_residual(row)
            assert residual < model.residual_tol or sticks.size == model.max_sticks
            assert abs(float(sticks.sum()) + residual - 1.0) <= 1e-12

    def test_fixed_law_has_no_posterior(self):
        with pytest.raises(FiniPostError) as err:
            posterior_draw(FixedLawModel(UniformLaw(0, 1)), Sample((0.5,)), derive_seed(0))
        assert err.value.code == "posterior-unavailable"


class TestStickBreaking:
    SB = StickBreakingModel(GaussianLaw(0, 1), beta_rule=lambda k: (1.0, 1.0))

    def test_prior_draw_normalized(self):
        m = posterior_draw(self.SB, Sample((), space=self.SB.space), derive_seed(1))
        assert abs(float(m.weights.sum()) - 1.0) <= 1e-12

    def test_posterior_matches_dp_closed_form(self):
        # Beta(1, c) sticks give the conjugate process: the posterior mean
        # mass at a history point with multiplicity r must be r/(c + n).
        rng = derive_seed(112)
        h = Sample((0.5, 0.5, -0.2))
        ws = np.array([posterior_draw(self.SB, h, rng).mass_at(0.5) for _ in range(3000)])
        assert abs(ws.mean() - 0.5) <= 4 * ws.std(ddof=1) / math.sqrt(ws.size)

    def test_batched_rows_match_dp_closed_form(self):
        # The same law from one batch: about 18000 candidates, drawn in
        # rounds of up to 976 rows whose accepted rows are stacked.
        h = Sample((0.5, 0.5, -0.2))
        atoms, weights = batched_posterior_rows(self.SB, h, 3000, derive_seed(114))
        assert atoms.shape[0] == 3000 and np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-12
        ws = np.where(atoms == 0.5, weights, 0.0).sum(axis=1)
        assert np.all(np.where(atoms == -0.2, weights, 0.0).sum(axis=1) > 0.0)
        assert abs(ws.mean() - 0.5) <= 4 * ws.std(ddof=1) / math.sqrt(ws.size)

    def test_history_values_kept(self):
        rng = derive_seed(113)
        h = Sample((1.25, -0.5))
        m = posterior_draw(self.SB, h, rng)
        assert m.mass_at(1.25) > 0 and m.mass_at(-0.5) > 0

    def test_long_history_unavailable(self):
        with pytest.raises(FiniPostError) as err:
            posterior_draw(self.SB, Sample((1.0, 2.0, 3.0, 4.0, 5.0)), derive_seed(0))
        assert err.value.code == "posterior-unavailable"

    def test_param_list_too_short(self):
        model = StickBreakingModel(
            GaussianLaw(0, 1), beta_params=((1.0, 1.0),), max_sticks=64, residual_tol=1e-4
        )
        with pytest.raises(FiniPostError) as err:
            sample_sequence(model, 3, derive_seed(3))
        assert err.value.code == "param-missing"

    def test_predictive_prior_is_base(self):
        val, se = predictive_expectation_mc(self.SB, Sample((), space=self.SB.space), lambda x: x)
        assert val == pytest.approx(0.0, abs=1e-9) and se == 0.0

    def test_predictive_with_history_needs_rng(self):
        with pytest.raises(FiniPostError):
            predictive_expectation(self.SB, Sample((0.5,)), lambda x: x)
        val, se = predictive_expectation_mc(
            self.SB, Sample((0.5,)), lambda x: x, mc_draws=400, rng=derive_seed(9)
        )
        assert se > 0


class TestPolyaTree:
    def test_marginal_examples(self):
        pt = PolyaTreeModel(
            UniformLaw(0, 1), 2, {"0": 2.0, "1": 1.0, "00": 1.0, "01": 1.0, "10": 1.0, "11": 1.0}
        )
        assert polya_tree_marginal(pt, "0") == pytest.approx(2 / 3)
        pt2 = PolyaTreeModel(
            UniformLaw(0, 1), 2, {"0": 1.0, "1": 1.0, "00": 3.0, "01": 1.0, "10": 1.0, "11": 1.0}
        )
        assert polya_tree_marginal(pt2, "01") == pytest.approx(0.125)

    def test_balanced_marginals_halve(self):
        pt = PolyaTreeModel(GaussianLaw(0, 1), 5, level_alpha=(1.0, 1.0, 1.0, 1.0, 1.0))
        for eps in ("0", "10", "011", "11011"):
            assert polya_tree_marginal(pt, eps) == pytest.approx(2.0 ** -len(eps))

    def test_marginals_sum_to_one_per_level(self):
        pt = PolyaTreeModel(UniformLaw(0, 1), 4, level_alpha=(0.5, 2.0, 1.5, 3.0))
        for level in (1, 2, 3, 4):
            total = sum(polya_tree_marginal(pt, format(i, f"0{level}b")) for i in range(2**level))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_missing_param(self):
        pt = PolyaTreeModel(UniformLaw(0, 1), 2, {"0": 1.0, "1": 1.0})
        with pytest.raises(FiniPostError) as err:
            polya_tree_marginal(pt, "01")
        assert err.value.code == "param-missing"

    def test_depth_one_conjugacy(self):
        # Depth-1 tree is Beta-binomial: posterior mean branch probability
        # is (a0 + c0)/(a0 + a1 + n).
        pt = PolyaTreeModel(UniformLaw(0, 1), 1, {"0": 2.0, "1": 1.0})
        h = Sample((0.1, 0.2, 0.8))
        exact = predictive_expectation(pt, h, lambda x: 1.0 if x < 0.5 else 0.0)
        assert exact == pytest.approx((2 + 2) / (3 + 3))
        rng = derive_seed(114)
        left = pt.leaf_point("0")
        ws = np.array([posterior_draw(pt, h, rng).mass_at(left) for _ in range(8000)])
        assert abs(ws.mean() - exact) <= 4 * ws.std(ddof=1) / math.sqrt(ws.size)

    def test_prior_predictive_tracks_base(self):
        pt = PolyaTreeModel(GaussianLaw(0, 1), 8, level_alpha=tuple([1.0] * 8))
        val = predictive_expectation(pt, Sample((), space=pt.space), lambda x: 1.0 if x <= 0.0 else 0.0)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_pair_expectation_matches_mc(self):
        pt = PolyaTreeModel(UniformLaw(0, 1), 3, level_alpha=(1.0, 2.0, 1.0))
        h = Sample((0.3, 0.9))
        exact, se0 = predictive_pair_expectation(pt, h, lambda x, y: abs(x - y))
        assert se0 == 0.0
        rng = derive_seed(115)
        draws = np.array(
            [
                abs(np.subtract(*continue_sequence(pt, h, 4, rng).values[2:4]))
                for _ in range(20000)
            ]
        )
        assert abs(draws.mean() - exact) <= 4 * draws.std(ddof=1) / math.sqrt(draws.size)

    def test_deep_tree_continuation_runs_in_bounded_memory(self):
        # The rows of a depth-12 tree hold 4096 atoms, so 4096 continuations
        # drawn from one block of rows would peak near 512 MB; the default
        # continuation draws its rows in blocks of at most 4e6 atoms.
        import tracemalloc

        model = PolyaTreeModel(GaussianLaw(0, 1), 12, level_alpha=tuple(float(d * d) for d in range(1, 13)))
        tracemalloc.start()
        try:
            block = batched_sequences(model, Sample(()), 2, 4096, derive_seed(380))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (4096, 2) and np.all(np.isin(block, model._points))
        assert peak < 256 * 2**20

    def test_point_mass_base_rejected(self):
        with pytest.raises(FiniPostError):
            PolyaTreeModel(PointMassLaw(0.0), 2, level_alpha=(1.0, 1.0))

    def test_missing_param_raises_at_use(self):
        # A partial tree builds; every law that reads the unfilled level fails.
        pt = PolyaTreeModel(UniformLaw(0, 1), 2, {"0": 1.0, "1": 1.0, "00": 2.0})
        h = Sample((0.1,))
        for law in (
            lambda: continue_sequence(pt, h, 3, derive_seed(116)),
            lambda: posterior_draw(pt, h, derive_seed(116)),
            lambda: predictive_expectation(pt, h, lambda x: x),
            lambda: pt.prior_quantile(0.5),
        ):
            with pytest.raises(FiniPostError) as err:
                law()
            assert err.value.code == "param-missing"

    # A partial tree over a level fallback: "0" and "10" override levels 1
    # and 2, "111" level 3.  The history holds the base median, where
    # F(x) = 1/2 sits on a dyadic boundary, and a repeated point.
    PARTIAL = PolyaTreeModel(GaussianLaw(0.5, 2.0), 3, {"0": 3.0, "10": 0.4, "111": 5.0}, (1.0, 2.5, 0.7))
    PARTIAL_HISTORY = Sample((-1.0, 0.2, 0.5, 3.1, 0.2))

    def test_leaf_laws_equal_string_addressed_reference(self):
        pt, h = self.PARTIAL, self.PARTIAL_HISTORY
        alpha = string_posterior_alpha(pt, h)
        for leaf in leaves_at(pt.depth):
            x = pt.leaf_point(leaf)
            assert predictive_expectation(pt, h, lambda y, x=x: 1.0 if y == x else 0.0) == string_leaf_prob(alpha, leaf)

    def test_prior_quantile_equals_string_addressed_reference(self):
        pt = self.PARTIAL
        cum = np.cumsum([string_leaf_prob(pt.alpha, leaf) for leaf in leaves_at(pt.depth)])
        for u in (0.0, 0.01, 0.2, 0.5, 0.61, 0.9, 1.0):
            expected = pt.leaf_point(leaves_at(pt.depth)[int(np.searchsorted(cum, u - 1e-12))])
            assert pt.prior_quantile(u) == expected

    def test_pair_expectation_equals_string_addressed_reference(self):
        pt, h = self.PARTIAL, self.PARTIAL_HISTORY
        alpha = string_posterior_alpha(pt, h)
        leaves = leaves_at(pt.depth)
        expected = 0.0
        for leaf1 in leaves:
            p1 = string_leaf_prob(alpha, leaf1)

            def alpha2(eps, leaf1=leaf1):
                return alpha(eps) + (1.0 if leaf1.startswith(eps) else 0.0)

            for leaf2 in leaves:
                g = abs(pt.leaf_point(leaf1) - pt.leaf_point(leaf2))
                expected += p1 * string_leaf_prob(alpha2, leaf2) * g
        assert predictive_pair_expectation(pt, h, lambda x, y: abs(x - y)) == (expected, 0.0)


def leaves_at(level):
    return [format(i, f"0{level}b") for i in range(2**level)]


def string_posterior_alpha(pt, history):
    """Node weight plus history count by string address: each point's
    address comes from doubling F(x) once per level."""
    counts = {}
    for v in history.values:
        u, bits = float(pt.quantile_base.cdf(v)), ""
        for _ in range(pt.depth):
            u *= 2.0
            if u > 1.0:
                bits, u = bits + "1", u - 1.0
            else:
                bits += "0"
            counts[bits] = counts.get(bits, 0.0) + 1.0
    return lambda eps: pt.alpha(eps) + counts.get(eps, 0.0)


def string_leaf_prob(alpha, leaf):
    """Product over the prefixes of the node weight over its sibling pair's."""
    prob = 1.0
    for i in range(1, len(leaf) + 1):
        parent = leaf[: i - 1]
        prob *= alpha(leaf[:i]) / (alpha(parent + "0") + alpha(parent + "1"))
    return prob


class TestPredictives:
    def test_fd_exact(self):
        h = Sample(("a", "a"), space=FD.space)
        assert predictive_expectation(FD, h, lambda x: 1.0 if x == "a" else 0.0) == pytest.approx(0.75)

    def test_dp_values(self):
        assert predictive_expectation(DP, Sample((2.0,)), lambda x: x) == pytest.approx(1.0)
        assert predictive_expectation(DP, Sample((), space=DP.space), lambda x: x) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_pair_constant(self):
        val, se = predictive_pair_expectation(DP, Sample((), space=DP.space), lambda x, y: 1.0)
        assert val == pytest.approx(1.0, abs=1e-12) and se == 0.0

    def test_fd_pair_both_first_label(self):
        val, _ = predictive_pair_expectation(
            FD, Sample((), space=FD.space), lambda x, y: 1.0 if x == "a" and y == "a" else 0.0
        )
        assert val == pytest.approx(1 / 3)

    def test_dp_pair_product(self):
        val, _ = predictive_pair_expectation(DP, Sample((), space=DP.space), lambda x, y: x * y)
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_dp_pair_against_mc(self):
        h = Sample((0.5, -0.25, 1.0))
        exact, _ = predictive_pair_expectation(DP, h, lambda x, y: abs(x - y))
        rng = derive_seed(116)
        draws = np.empty(20000)
        for r in range(draws.size):
            seq = continue_sequence(DP, h, 5, rng)
            draws[r] = abs(seq.values[3] - seq.values[4])
        assert abs(draws.mean() - exact) <= 4 * draws.std(ddof=1) / math.sqrt(draws.size)


class TestBatched:
    @pytest.mark.parametrize(
        "alpha", [(1.0, 2.0, 0.5), (1.0, 1.0), (0.05, 0.02, 0.08), (0.01, 0.01)]
    )
    def test_fd_posterior_batch_equals_per_draw(self, alpha):
        # One Dirichlet call of size m consumes the stream exactly as m
        # posterior_draw calls, so batching keeps seeded reports unchanged.
        model = FiniteDirichletModel(alpha)
        h = sample_sequence(model, 7, derive_seed(120))
        batch = derive_seed(121).dirichlet(model.posterior_alpha(h), size=500)
        rng = derive_seed(121)
        per_draw = [posterior_draw(model, h, rng) for _ in range(500)]
        W = np.stack([[p.mass_at(a) for a in model.atoms] for p in per_draw])
        assert np.array_equal(batch, W)

    def test_fd_posterior_alpha(self):
        h = Sample((0.0, 1.0, 1.0))
        assert FD01.posterior_alpha(h).tolist() == [2.0, 3.0]
        assert FD01.posterior_alpha(Sample((), space=FD01.space)).tolist() == [1.0, 1.0]

    def test_dp_batched_vs_sequential_law(self):
        rng = derive_seed(118)
        h = Sample((1.0,))
        block = batched_sequences(DP, h, 6, 20000, rng)
        assert block.shape == (20000, 6)
        assert np.all(block[:, 0] == 1.0)
        seq_rng = derive_seed(119)
        seq_means = np.array(
            [np.mean(continue_sequence(DP, h, 6, seq_rng).scalars()) for _ in range(20000)]
        )
        bm = block.mean(axis=1)
        se = math.sqrt(bm.var(ddof=1) / bm.size + seq_means.var(ddof=1) / seq_means.size)
        assert abs(bm.mean() - seq_means.mean()) <= 4 * se

    def test_posterior_integrals_fd(self):
        rng = derive_seed(120)
        h = Sample((1.0, 1.0), space=FD01.space)
        vals = batched_posterior_integrals(FD01, h, lambda a: a, 30000, rng)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.75) <= 4 * se

    def test_posterior_integrals_dp(self):
        rng = derive_seed(121)
        h = Sample((2.0,))
        vals = batched_posterior_integrals(DP, h, lambda a: a, 30000, rng)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 4 * se  # posterior mean of the integral

    def test_dp_posterior_batch_matches_per_draw(self):
        h = Sample((-3.0, -2.5, -3.0, -3.0, -4.0))
        K = len(set(h.values))
        batch = batched_posterior_integrals(DP_SHIFTED, h, IDENTITY.vec, 4000, derive_seed(123))
        rng = derive_seed(124)
        per_draw = np.empty(1000)
        for r in range(per_draw.size):
            m = posterior_draw(DP_SHIFTED, h, rng)
            assert abs(math.fsum(m.weights) - 1.0) <= 1e-12
            if len(m) - K - 1 < DP_SHIFTED.max_sticks:
                # The last atom is the residual of P', scaled by 1 - V.
                assert m.weights[-1] < DP_SHIFTED.residual_tol
            per_draw[r] = np.dot(m.weights, m.scalars())
        assert ks_2samp(batch, per_draw).pvalue > 1e-3


# ---------------------------------------------------------------------------
# Reference DP posterior: sticks of DP(c + n, ·) with Pólya-urn locations
# ---------------------------------------------------------------------------

# Values on a half-integer grid, so the history has many ties.
TIED_HISTORY = tuple(float(v) for v in np.round(2.0 * derive_seed(130).normal(-3.0, 1.0, 50)) / 2.0)
TEST_FUNCTIONS = {"identity": IDENTITY.vec, "indicator": Indicator(-3.0).vec}


def tied_history(n):
    return Sample(TIED_HISTORY[:n], space=RealLine())


def polya_locations(model, hist, size, rng):
    """Locations from the posterior predictive: base w.p. c/(c+n), else a
    uniformly chosen history value."""
    if hist.size == 0:
        return np.asarray(model.base.sample(rng, size), dtype=float)
    c = model.total_mass
    fresh = rng.random(size) < c / (c + hist.size)
    out = np.empty(size)
    out[fresh] = model.base.sample(rng, int(fresh.sum()))
    out[~fresh] = hist[rng.integers(0, hist.size, size=int((~fresh).sum()))]
    return out


def polya_stick_integrals(model, history, fvec, draws, rng):
    """Vectorized ∫f dP: all rows break sticks of DP(c + n) in lockstep."""
    hist = np.asarray(history.scalars())
    mass = model.total_mass + hist.size
    acc = np.zeros(draws)
    residual = np.ones(draws)
    alive = np.arange(draws)
    for _ in range(model.max_sticks):
        if not alive.size:
            break
        v = rng.beta(1.0, mass, size=alive.size)
        acc[alive] += residual[alive] * v * fvec(polya_locations(model, hist, alive.size, rng))
        residual[alive] *= 1.0 - v
        alive = alive[residual[alive] >= model.residual_tol]
    return acc + residual * fvec(polya_locations(model, hist, draws, rng))


def polya_stick_draw(model, history, rng):
    """One draw as (locations, weights): all sticks, then the locations.
    Each Beta(1, c + n) stick is drawn by inverting its CDF, one uniform a
    stick, as the package does (the lockstep reference above keeps
    ``rng.beta``)."""
    hist = np.asarray(history.scalars())
    mass = model.total_mass + hist.size
    weights, residual = [], 1.0
    while residual >= model.residual_tol and len(weights) < model.max_sticks:
        v = float(-np.expm1(np.log1p(-rng.random(1)) / mass)[0])
        weights.append(residual * v)
        residual *= 1.0 - v
    weights.append(residual)
    return polya_locations(model, hist, len(weights), rng), np.asarray(weights)


def per_draw_integrals(model, history, fvec, draws, rng):
    out = np.empty(draws)
    for r in range(draws):
        m = posterior_draw(model, history, rng)
        out[r] = np.dot(m.weights, fvec(m.scalars()))
    return out


def hstack_posterior_rows(model, history, draws, rng):
    """The DP posterior rows as first built: the sticks drawn alone, then the
    history values and their weights put in front by two ``np.hstack``
    copies.  The reference for the rows built in place."""
    from finipost.priors import _truncated_sticks

    xstar, w, scale = model._history_part(history, draws, rng)
    c = model.total_mass
    atoms, sticks = _truncated_sticks(lambda _k: (1.0, c), model.base, model._stick_cap, model.residual_tol, rng, scale)
    if not xstar.size:
        return atoms, sticks
    sticks *= scale[:, None]
    return np.hstack([np.broadcast_to(xstar, w.shape), atoms]), np.hstack([w, sticks])


class TestDPConjugateDecomposition:
    @pytest.mark.parametrize("f_id", sorted(TEST_FUNCTIONS))
    @pytest.mark.parametrize("n", [0, 1, 50])
    def test_batched_matches_polya_sticks(self, n, f_id):
        fvec, h = TEST_FUNCTIONS[f_id], tied_history(n)
        new = batched_posterior_integrals(DP_SHIFTED, h, fvec, 4000, derive_seed(131))
        # Its own seed: samples drawn from one stream would be dependent.
        old = polya_stick_integrals(DP_SHIFTED, h, fvec, 4000, derive_seed(132))
        assert ks_2samp(new, old).pvalue > 1e-3

    @pytest.mark.parametrize("f_id", sorted(TEST_FUNCTIONS))
    @pytest.mark.parametrize("n", [0, 1, 50])
    def test_posterior_draw_matches_polya_sticks(self, n, f_id):
        fvec, h = TEST_FUNCTIONS[f_id], tied_history(n)
        new = per_draw_integrals(DP_SHIFTED, h, fvec, 600, derive_seed(133))
        rng = derive_seed(133 if n == 0 else 134)
        old = np.empty(600)
        for r in range(old.size):
            locs, w = polya_stick_draw(DP_SHIFTED, h, rng)
            old[r] = np.dot(w, fvec(locs))
        if n == 0:
            assert np.array_equal(new, old)
        assert ks_2samp(new, old).pvalue > 1e-3

    def test_prior_draws_equal_reference(self):
        # With no history nothing but P' is drawn, from the same stream.
        h = tied_history(0)
        new_rng, old_rng = derive_seed(135), derive_seed(135)
        for _ in range(50):
            m = posterior_draw(DP_SHIFTED, h, new_rng)
            locs, w = polya_stick_draw(DP_SHIFTED, h, old_rng)
            assert m.points == tuple(locs.tolist())
            assert np.array_equal(m.weights, w)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_prior_mean_has_the_cifarelli_regazzini_law(self, seed):
        # For DP(1, Uniform(0, 1)) the law of ∫x dP has the density
        # (e/π) sin(πy) y^(-y) (1-y)^(-(1-y)) on (0, 1) (Cifarelli &
        # Regazzini 1990); its CDF is integrated on a fine grid.
        from scipy.integrate import cumulative_simpson
        from scipy.stats import kstest

        y = np.linspace(0.0, 1.0, 100_001)
        inner = y[1:-1]
        density = np.zeros_like(y)
        density[1:-1] = math.e / math.pi * np.sin(math.pi * inner) * inner**-inner * (1 - inner) ** -(1 - inner)
        cdf = cumulative_simpson(density, x=y, initial=0.0)
        assert abs(cdf[-1] - 1.0) < 1e-9
        model = DirichletProcessModel(1.0, UniformLaw(0.0, 1.0))
        means = batched_posterior_integrals(model, Sample(()), IDENTITY.vec, 20000, derive_seed(seed))
        assert kstest(means, lambda t: np.interp(t, y, cdf)).pvalue > 1e-3

    @pytest.mark.parametrize("draws", [1, 7, 2000])
    @pytest.mark.parametrize("n", [0, 1, 5, 50])
    def test_rows_equal_the_hstack_reference(self, n, draws):
        # Same bits from the same stream, the history columns filled in place.
        h = tied_history(n)
        for seed in range(3):
            new_rng, old_rng = derive_seed(137, seed), derive_seed(137, seed)
            atoms, weights = DP_SHIFTED.posterior_rows(h, draws, new_rng)
            ref_atoms, ref_weights = hstack_posterior_rows(DP_SHIFTED, h, draws, old_rng)
            assert np.array_equal(atoms, ref_atoms) and np.array_equal(weights, ref_weights)
            assert new_rng.random() == old_rng.random()

    def test_history_atoms_are_distinct_values(self):
        h = tied_history(50)
        m = posterior_draw(DP_SHIFTED, h, derive_seed(136))
        distinct = sorted(set(h.values))
        assert list(m.points[: len(distinct)]) == distinct


def unsigned_stirling_first(N):
    """|s(N, k)| for k = 0..N, by |s(i+1, k)| = i |s(i, k)| + |s(i, k-1)|."""
    row = [1]
    for i in range(N):
        row = [i * a + b for a, b in zip(row + [0], [0] + row)]
    return row


class TestDPCountContinuation:
    @pytest.mark.parametrize("c", [0.5, 2.0])
    @pytest.mark.parametrize("N", [5, 20])
    def test_distinct_count_law_at_n0(self, N, c):
        # P(K_N = k) = c^k |s(N, k)| / (c)_N (Ewens sampling formula).
        from scipy.stats import chisquare

        model = DirichletProcessModel(c, GaussianLaw(0, 1))
        R = 20000
        K = distinct_per_row(batched_sequences(model, Sample(()), N, R, derive_seed(140, N, int(4 * c))))
        rising = math.prod(c + i for i in range(N))
        law = np.array([c**k * s / rising for k, s in enumerate(unsigned_stirling_first(N))])
        assert abs(law.sum() - 1.0) < 1e-12
        # Pool the sparse tails so every expected count is at least 5.
        lo, *_, hi = np.flatnonzero(R * law >= 5)

        def pooled(v):
            return np.concatenate([[v[: lo + 1].sum()], v[lo + 1 : hi], [v[hi:].sum()]])

        observed = np.bincount(K, minlength=N + 1)
        assert chisquare(pooled(observed), pooled(R * law)).pvalue > 1e-3

    def test_mean_count_on_history_values(self):
        # E[count of x*_j among the N - n new values] = (N - n) n_j / (n + c).
        model = DirichletProcessModel(2.0, GaussianLaw(0, 1))
        h = Sample((0.25, 1.5, 0.25))
        block = batched_sequences(model, h, 13, 40000, derive_seed(141))[:, 3:]
        for value, n_j in ((0.25, 2), (1.5, 1)):
            counts = np.count_nonzero(block == value, axis=1)
            se = counts.std(ddof=1) / math.sqrt(counts.size)
            assert abs(counts.mean() - 10 * n_j / 5.0) <= 4 * se

    @pytest.mark.parametrize("n", [0, 3])
    def test_first_new_and_last_positions_share_a_law(self, n):
        h = sample_sequence(DP, n, derive_seed(142))
        block = batched_sequences(DP, h, n + 9, 20000, derive_seed(143))
        assert ks_2samp(block[:, n], block[:, -1]).pvalue > 1e-3

    @pytest.mark.parametrize("f", [IDENTITY, Square(), Indicator(0.3)], ids=["identity", "square", "indicator"])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_f_means_equal_sequence_means_within_a_block(self, n, f):
        # One block draws the same counts in both views; the sequence view
        # only shuffles them afterwards.
        h = tied_history(n)
        means = batched_f_means(DP_SHIFTED, h, n + 40, f.vec, 500, derive_seed(144, n))
        block = batched_sequences(DP_SHIFTED, h, n + 40, 500, derive_seed(144, n))
        assert np.max(np.abs(means - f.vec(block).mean(axis=1))) <= 1e-12

    def test_f_means_of_other_models_are_sequence_means(self):
        model = model_from_spec(MODEL_SPECS["polya_tree"])
        h = sample_sequence(model, 2, derive_seed(145))
        means = batched_f_means(model, h, 9, Square().vec, 50, derive_seed(146))
        block = batched_sequences(model, h, 9, 50, derive_seed(146))
        assert np.array_equal(means, Square().vec(block).mean(axis=1))

    @pytest.mark.parametrize(
        "history, total, picks",
        [
            ((), 2024.1849138179193, [0.21547150157832629, 1.060940642844019, 0.24143994736848473, 2.2210952374325093]),
            (
                (0.5, -1.0, 0.5),
                1225.0883673374892,
                [0.8033121560819406, 0.5270670392807252, 0.266327154576623, 0.45699820395708346],
            ),
        ],
        ids=["n0", "n3"],
    )
    def test_f_means_stream_is_pinned(self, history, total, picks):
        # 2000 rows of 397-400 fresh values, their blocks opened in many
        # rounds: the stream must not move.
        means = batched_f_means(DP, Sample(history), 400, np.square, 2000, derive_seed(61))
        assert float(means.sum()) == total
        assert means[[0, 1, 999, 1999]].tolist() == picks

    def test_no_new_values_at_the_horizon(self):
        h = Sample((0.5, -1.0))
        assert np.array_equal(batched_sequences(DP, h, 2, 3, derive_seed(147)), np.tile([0.5, -1.0], (3, 1)))
        assert np.allclose(batched_f_means(DP, h, 2, IDENTITY.vec, 3, derive_seed(147)), -0.25)


def feller_marks(a_new, c, rng):
    """The Feller coupling as marks, one uniform per new value: a row's blocks
    open where independent Bernoulli(c / (c + i)) marks, i = 0…a_new − 1,
    are 1, and run to the next mark or to a_new.  The reference for the gap
    sampler; returns (block_rows, sizes) in row-major order."""
    rows, fresh = a_new.size, int(a_new.max(initial=0))
    i = np.arange(fresh)
    marks = np.zeros((rows, fresh + 1), dtype=bool)
    marks[:, :fresh] = (rng.random((rows, fresh)) < c / (c + i)) & (i < a_new[:, None])
    marks[np.arange(rows), a_new] = True
    flat = np.flatnonzero(marks)
    block_rows, block_cols = np.divmod(flat, fresh + 1)
    opens = block_cols < a_new[block_rows]
    return block_rows[opens], np.diff(flat)[opens[:-1]]


def gap_blocks(c, fresh, rows, seed, history=()):
    """(a_new, block_rows, block_cols, sizes) of the DP's count continuation."""
    model = DirichletProcessModel(c, GaussianLaw(0, 1))
    _, old, block_rows, block_cols, sizes, _ = model._count_continuation(Sample(history), fresh, rows, derive_seed(seed))
    return fresh - old.sum(axis=1), block_rows, block_cols, sizes


def largest_block(block_rows, sizes, rows):
    out = np.zeros(rows, dtype=sizes.dtype)
    np.maximum.at(out, block_rows, sizes)
    return out


def chisquare_pooled(observed, law, rows):
    """Chi-square p-value of counts against a law, the sparse tails pooled so
    that every expected count is at least 5."""
    from scipy.stats import chisquare

    lo, *_, hi = np.flatnonzero(rows * law >= 5)

    def pooled(v):
        return np.concatenate([[v[: lo + 1].sum()], v[lo + 1 : hi], [v[hi:].sum()]])

    return chisquare(pooled(observed), pooled(rows * law)).pvalue


class TestEwensGaps:
    """Block openings drawn by inverting the gap law, against the Feller
    marks and the exact Ewens laws (20,000 rows of 50 new values)."""

    @pytest.mark.parametrize("c", [1.0, 5.0])
    def test_block_counts_have_the_ewens_law(self, c):
        # P(K = k) = c^k |s(a, k)| / (c)_a, and the marks agree in law.
        R, a = 20000, 50
        _, block_rows, _, sizes = gap_blocks(c, a, R, 150)
        K = np.bincount(block_rows, minlength=R)
        rising = math.prod(c + i for i in range(a))
        law = np.array([c**k * s / rising for k, s in enumerate(unsigned_stirling_first(a))])
        assert chisquare_pooled(np.bincount(K, minlength=a + 1), law, R) > 1e-3
        ref_rows, ref_sizes = feller_marks(np.full(R, a), c, derive_seed(151))
        assert ks_2samp(K, np.bincount(ref_rows, minlength=R)).pvalue > 1e-3
        largest = largest_block(block_rows, sizes, R)
        assert ks_2samp(largest, largest_block(ref_rows, ref_sizes, R)).pvalue > 1e-3

    @pytest.mark.parametrize("c", [1.0, 5.0])
    def test_mean_block_count(self, c):
        # E K = Σ_{i<a} c / (c + i).
        R, a = 20000, 50
        K = np.bincount(gap_blocks(c, a, R, 152)[1], minlength=R)
        assert abs(K.mean() - sum(c / (c + i) for i in range(a))) <= 4 * K.std(ddof=1) / math.sqrt(R)

    @pytest.mark.parametrize("c", [1.0, 5.0])
    def test_first_gap_has_its_exact_law(self, c):
        # No opening at 1…k has probability Π_{i≤k} i / (c + i), so the
        # first block (opened at 0) is longer than k with that probability.
        R, a = 20000, 50
        _, _, block_cols, sizes = gap_blocks(c, a, R, 153)
        first = sizes[block_cols == 0]
        assert first.size == R
        longer = np.append(np.cumprod([1.0, *(i / (c + i) for i in range(1, a))]), 0.0)
        law = np.concatenate([[0.0], longer[:-1] - longer[1:]])  # P(size = s), s = 0…a
        assert chisquare_pooled(np.bincount(first, minlength=a + 1), law, R) > 1e-3

    def test_ragged_rows_partition_their_new_values(self):
        # Under a history each row has its own a_new, some 0: a row's blocks
        # tile 0…a_new − 1, in order of opening, and an empty row has none.
        a_new, block_rows, block_cols, sizes = gap_blocks(2.0, 6, 5000, 154, history=(0.5, 0.5, -1.0))
        assert np.count_nonzero(a_new == 0) > 100 and len(set(a_new.tolist())) == 7
        assert np.array_equal(np.bincount(block_rows, weights=sizes, minlength=a_new.size), a_new)
        order = np.lexsort((block_cols, block_rows))
        rows, cols, ends = block_rows[order], block_cols[order], (block_cols + sizes)[order]
        starts = np.r_[True, rows[1:] != rows[:-1]]
        assert np.all(sizes >= 1) and np.all(cols[starts] == 0)
        assert np.array_equal(cols[~starts], ends[:-1][~starts[1:]])

    def test_no_new_values(self):
        a_new, block_rows, block_cols, sizes = gap_blocks(1.0, 0, 7, 155)
        assert not a_new.any() and block_rows.size == block_cols.size == sizes.size == 0


def sticks_and_residual(row):
    """A stick row's sticks and its residual, the last positive weight."""
    last = np.flatnonzero(row)[-1]
    assert np.all(row[last + 1 :] == 0.0)
    return row[:last], row[last]


class TestTruncationScale:
    def test_scaled_stop_rule(self):
        # One call over mixed row scales, so rows stop at different k.
        from finipost.priors import _truncated_sticks

        scale = np.repeat([1.0, 0.3, 1e-3, 1e-7], 100)
        _, weights = _truncated_sticks(lambda _k: (1.0, 2.0), GaussianLaw(0, 1), 4096, 1e-6, derive_seed(137), scale)
        sizes = set()
        for s, row in zip(scale, weights):
            sticks, residual = sticks_and_residual(row)
            assert s * residual < 1e-6
            if sticks.size > 1:
                assert s * (residual + sticks[-1]) >= 1e-6
            assert abs(float(sticks.sum()) + residual - 1.0) <= 1e-12
            if s < 1e-6:
                assert sticks.size == 0 and residual == 1.0
            sizes.add(sticks.size)
        assert len(sizes) > 10


class TestStickLaw:
    @pytest.mark.parametrize("b", [0.5, 1.0, 5.0])
    def test_inverted_sticks_have_the_beta_1_b_law(self, b):
        # The first two sticks of every row, V1 = W1 and V2 = W2 / (1 - W1),
        # against the Beta(1, b) CDF.
        from scipy.stats import beta, kstest

        from finipost.priors import _truncated_sticks

        _, w = _truncated_sticks(lambda _k: (1.0, b), GaussianLaw(0, 1), 2, 1e-300, derive_seed(140), np.ones(20000))
        for v in (w[:, 0], w[:, 1] / (1.0 - w[:, 0])):
            assert kstest(v, beta(1.0, b).cdf).pvalue > 1e-3

    def test_only_a_equal_one_is_inverted(self):
        # Stick 1 is Beta(1, 2), inverted from one uniform call; stick 2 is
        # Beta(2, 3), one rng.beta call.
        from finipost.priors import _truncated_sticks

        rule = lambda k: (1.0, 2.0) if k == 1 else (2.0, 3.0)  # noqa: E731
        _, w = _truncated_sticks(rule, GaussianLaw(0, 1), 2, 1e-300, derive_seed(141), np.ones(500))
        rng = derive_seed(141)
        v1 = -np.expm1(np.log1p(-rng.random(500)) / 2.0)
        v2 = rng.beta(2.0, 3.0, size=500)
        assert np.array_equal(w[:, 0], v1) and np.array_equal(w[:, 1], (1.0 - v1) * v2)


# ---------------------------------------------------------------------------
# Stream contracts and protocol conformance across the five model kinds
# ---------------------------------------------------------------------------

MODEL_SPECS = {
    "finite_dirichlet_labels": {"kind": "finite_dirichlet", "alpha": [1.0, 2.0, 0.5]},
    "finite_dirichlet_scalars": {"kind": "finite_dirichlet", "alpha": [1.0, 2.0, 0.5], "atoms": [0.0, 1.5, -2.0]},
    "dirichlet_process": {"kind": "dirichlet_process", "mass": 1.5, "base": {"family": "gaussian", "mu": 0, "sigma": 1}},
    "stick_breaking": {
        "kind": "stick_breaking", "base": {"family": "uniform", "a": 0, "b": 1}, "beta_rule": {"a": 1.0, "b": 1.0},
    },
    "polya_tree": {
        "kind": "polya_tree", "base": {"family": "gaussian", "mu": 0, "sigma": 1}, "depth": 3,
        "level_alpha": [1.0, 4.0, 9.0],
    },
    "fixed": {"kind": "fixed", "base": {"family": "uniform", "a": 0, "b": 1}},
}
SCALAR_KINDS = [name for name in MODEL_SPECS if name != "finite_dirichlet_labels"]
POSTERIOR_KINDS = [name for name in MODEL_SPECS if name != "fixed"]


def _per_step_fd_urn(model, history, upto, rng):
    """The finite-Dirichlet urn one draw at a time: an independent
    reference, in law, for the continuation from posterior rows."""
    values = list(history.values)
    total = sum(model.concentration) + len(history)
    weights = model.posterior_alpha(history)
    for _ in range(upto - len(history)):
        cum = np.cumsum(weights / total)
        j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        values.append(model.atoms[j])
        weights[j] += 1.0
        total += 1.0
    return values


def _per_step_pt_urn(model, history, upto, rng):
    """The Polya-tree urn one point at a time: each new point descends the
    tree, taking the left child with its posterior-mean branch probability
    given all points so far, and adds one count along its path.  An
    independent reference, in law, for the continuation from posterior
    rows."""
    prior = [a.tolist() for a in model._prior()]
    counts = [c.tolist() for c in model._counts(history)]
    points = model._points.tolist()
    values = list(history.values)
    for _ in range(upto - len(history)):
        node = 0
        for a, c in zip(prior, counts):
            left, right = 2 * node, 2 * node + 1
            a0, a1 = a[left] + c[left], a[right] + c[right]
            node = left if rng.random() < a0 / (a0 + a1) else right
            c[node] += 1.0
        values.append(points[node])
    return values


def _posterior_draw_sb_urn(model, history, upto, rng):
    """Stick-breaking new values i.i.d. from one ``posterior_draw``, by
    inverse CDF: an independent reference, in law, for the continuation
    from posterior rows."""
    measure = posterior_draw(model, history, rng)
    cum = np.cumsum(measure.weights)
    idx = np.searchsorted(cum, rng.random(upto - len(history)) * cum[-1], side="right")
    return [*history.scalars(), *measure.scalars()[np.minimum(idx, len(measure) - 1)]]


def _chi2_same_law(a, b):
    """p-value of the chi-square test that two samples of category codes
    share one law (categories absent from both are dropped)."""
    from scipy.stats import chi2_contingency

    size = max(a.max(), b.max()) + 1
    table = np.stack([np.bincount(a, minlength=size), np.bincount(b, minlength=size)])
    return chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


def _per_step_dp_urn(model, history, upto, rng):
    """The Blackwell-MacQueen urn one draw at a time: an independent
    reference, in law, for the DP's count continuation."""
    c = model.total_mass
    values = [float(v) for v in history.values]
    for i in range(len(history), upto):
        if rng.random() < c / (c + i):
            values.append(float(model.base.sample(rng)))
        else:
            values.append(values[int(rng.integers(0, i))])
    return values


def distinct_per_row(block):
    """The number of distinct values in each row of a matrix."""
    ordered = np.sort(block, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


class TestStreamContracts:
    @pytest.mark.parametrize("kind", ["finite_dirichlet_labels", "finite_dirichlet_scalars"])
    @pytest.mark.parametrize("n", [0, 3])
    def test_fd_continuation_matches_per_step_urn_in_law(self, kind, n):
        # Continuations are drawn from posterior rows, a different stream
        # from the per-step urn with the same law: the first three new
        # values are compared as one of k**3 joint outcomes.
        model = model_from_spec(MODEL_SPECS[kind])
        h = sample_sequence(model, n, derive_seed(906))
        R, upto = 6000, n + 3
        rng, new_rng = derive_seed(907), derive_seed(908)
        reference = [_per_step_fd_urn(model, h, upto, rng) for _ in range(R)]
        drawn = [continue_sequence(model, h, upto, new_rng) for _ in range(R)]
        assert all(seq.space == model.space for seq in drawn)
        codes = []
        for seqs in (reference, [list(seq.values) for seq in drawn]):
            assert all(seq[:n] == list(h.values) for seq in seqs)
            codes.append(np.array([[model.atoms.index(v) for v in seq[n:]] for seq in seqs]) @ model.k ** np.arange(3))
        assert _chi2_same_law(*codes) > 1e-3

    @pytest.mark.parametrize("n", [0, 3])
    def test_pt_continuation_matches_per_point_descent_in_law(self, n):
        # The three new leaves of a depth-3 tree: 512 joint outcomes.
        model = model_from_spec(MODEL_SPECS["polya_tree"])
        h = sample_sequence(model, n, derive_seed(906))
        points = model._points
        rng = derive_seed(907)
        reference = np.array([_per_step_pt_urn(model, h, n + 3, rng) for _ in range(30000)])
        block = batched_sequences(model, h, n + 3, 60000, derive_seed(908))
        assert np.all(block[:, :n] == h.scalars()) and np.all(reference[:, :n] == h.scalars())
        codes = [np.searchsorted(points, seqs[:, n:]) @ 8 ** np.arange(3) for seqs in (reference, block)]
        assert _chi2_same_law(*codes) > 1e-3

    @pytest.mark.parametrize("n", [0, 2])
    def test_sb_continuation_matches_posterior_draw_urn_in_law(self, n):
        model = model_from_spec(MODEL_SPECS["stick_breaking"])
        h = sample_sequence(model, n, derive_seed(906))
        R, upto = 3000, n + 6
        rng = derive_seed(907)
        reference = np.array([_posterior_draw_sb_urn(model, h, upto, rng) for _ in range(R)])
        block = batched_sequences(model, h, upto, R, derive_seed(908))
        assert np.all(block[:, :n] == h.scalars()) and np.all(reference[:, :n] == h.scalars())
        assert ks_2samp((reference**2).mean(axis=1), (block**2).mean(axis=1)).pvalue > 1e-3
        # Ties, among the new values and with the history.
        assert _chi2_same_law(distinct_per_row(reference), distinct_per_row(block)) > 1e-3

    @pytest.mark.parametrize("n", [0, 3])
    def test_dp_continuation_matches_per_step_urn_in_law(self, n):
        # The DP draws its continuation as counts, a different stream from
        # the per-step urn with the same law: both views are compared in law.
        model = model_from_spec(MODEL_SPECS["dirichlet_process"])
        h = sample_sequence(model, n, derive_seed(906))
        R, upto = 20000, n + 12
        rng = derive_seed(907)
        reference = np.array([_per_step_dp_urn(model, h, upto, rng) for _ in range(R)])
        block = batched_sequences(model, h, upto, R, derive_seed(908))
        k_ref, k_new = distinct_per_row(reference), distinct_per_row(block)
        for k in range(n + 1, n + 8):
            p1, p2 = freq(k_ref == k), freq(k_new == k)
            assert abs(p1 - p2) <= 4 * math.sqrt(freq_se(p1, R) ** 2 + freq_se(p2, R) ** 2)
        # Rounded: with a history the f-mean has atoms, which the two
        # routes sum in different orders.
        means = batched_f_means(model, h, upto, Square().vec, R, derive_seed(909))
        assert ks_2samp(np.round(means, 12), np.round((reference**2).mean(axis=1), 12)).pvalue > 1e-3

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    @pytest.mark.parametrize("n", [0, 3])
    def test_one_row_batch_equals_continuation(self, kind, n):
        # Each model writes its urn once: for the Dirichlet models and the
        # fixed law a sequence is a one-row batch, for the others a batch is
        # one sequence per row.  Either way the two must draw one stream.
        model = model_from_spec(MODEL_SPECS[kind])
        for seed in range(20):
            h = sample_sequence(model, n, derive_seed(900, seed))
            row = batched_sequences(model, h, n + 6, 1, derive_seed(901, seed))[0]
            seq = continue_sequence(model, h, n + 6, derive_seed(901, seed))
            assert np.array_equal(row, seq.scalars())

    @pytest.mark.parametrize("kind", POSTERIOR_KINDS)
    @pytest.mark.parametrize("n", [0, 2])
    def test_posterior_rows_sum_to_one(self, kind, n):
        model = model_from_spec(MODEL_SPECS[kind])
        h = sample_sequence(model, n, derive_seed(902))
        atoms, weights = batched_posterior_rows(model, h, 30, derive_seed(903))
        assert atoms.shape == weights.shape and weights.shape[0] == 30
        assert np.all(weights >= 0.0)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-12
        assert batched_posterior_rows(model, h, 0, derive_seed(903))[1].shape[0] == 0

    @pytest.mark.parametrize("kind", POSTERIOR_KINDS)
    @pytest.mark.parametrize("n", [0, 2])
    def test_posterior_draw_is_row_zero(self, kind, n):
        model = model_from_spec(MODEL_SPECS[kind])
        h = sample_sequence(model, n, derive_seed(902))
        for seed in range(10):
            m = posterior_draw(model, h, derive_seed(903, seed))
            atoms, weights = batched_posterior_rows(model, h, 1, derive_seed(903, seed))
            keep = weights[0] > 0.0
            assert m.points == tuple(atoms[0][keep].tolist())
            assert np.array_equal(m.weights, weights[0][keep])

    @pytest.mark.parametrize("kind", ["finite_dirichlet_scalars", "dirichlet_process", "stick_breaking", "polya_tree"])
    @pytest.mark.parametrize("n", [0, 2])
    def test_batched_integrals_weigh_the_posterior_rows(self, kind, n):
        model = model_from_spec(MODEL_SPECS[kind])
        h = sample_sequence(model, n, derive_seed(902))
        batch = batched_posterior_integrals(model, h, IDENTITY.vec, 30, derive_seed(903))
        atoms, weights = batched_posterior_rows(model, h, 30, derive_seed(903))
        assert np.array_equal(batch, (weights * IDENTITY.vec(atoms)).sum(axis=1))

    def test_short_rows_repeat_their_last_atom_with_weight_zero(self):
        model = model_from_spec(MODEL_SPECS["dirichlet_process"])
        h = sample_sequence(model, 2, derive_seed(910))
        atoms, weights = batched_posterior_rows(model, h, 40, derive_seed(911))
        for x, w in zip(atoms, weights):
            s = np.flatnonzero(w)[-1] + 1
            assert np.all(x[s:] == x[s - 1]) and np.all(w[s:] == 0.0)
            assert np.unique(x[:s]).size == s and abs(math.fsum(w) - 1.0) <= 1e-12
        assert len({int(np.count_nonzero(w)) for w in weights}) > 1


# (model spec, history, x): each median-law model kind, ties at x included.
MASS_CASES = {
    "fixed_uniform": (MODEL_SPECS["fixed"], (), 0.3),
    "dp_gauss": (MODEL_SPECS["dirichlet_process"], (), 0.2),
    "dp_gauss_tied": (MODEL_SPECS["dirichlet_process"], (0.0, 0.5, 0.0), 0.0),
    "finite_dirichlet_scalars": (MODEL_SPECS["finite_dirichlet_scalars"], (), 0.0),
    "polya_tree": (MODEL_SPECS["polya_tree"], (), None),
    "stick_breaking": (MODEL_SPECS["stick_breaking"], (), 0.4),
}


class TestMassAtMost:
    @pytest.mark.parametrize("case", sorted(MASS_CASES))
    def test_binomial_counts_match_sequence_counts(self, case):
        # Given P, the count of 2N + 1 new values at most x is
        # Binomial(2N + 1, P(-inf, x]): against counts of built sequences.
        spec, history, x = MASS_CASES[case]
        model, h, N, R = model_from_spec(spec), Sample(history), 3, 12000
        x = model.prior_quantile(0.5) if x is None else x
        counts = derive_seed(941).binomial(2 * N + 1, model.mass_at_most(h, x, R, derive_seed(940)))
        block = batched_sequences(model, h, len(h) + 2 * N + 1, R, derive_seed(942))
        held = np.count_nonzero(block[:, len(h) :] <= x, axis=1)
        assert 0 < held.mean() < 2 * N + 1
        assert _chi2_same_law(counts, held) > 1e-3

    def test_dp_mass_has_the_beta_moments(self):
        # Beta(c F0(x) + #{h <= x}, c (1 - F0(x)) + #{h > x}): c = 1.5,
        # F0(0) = 1/2, three of four history values at most 0.
        model, R = model_from_spec(MODEL_SPECS["dirichlet_process"]), 200_000
        theta = model.mass_at_most(Sample((0.0, 0.5, 0.0, -1.0)), 0.0, R, derive_seed(943))
        a, b = 1.5 * 0.5 + 3.0, 1.5 * 0.5 + 1.0
        mean, var = a / (a + b), a * b / ((a + b) ** 2 * (a + b + 1.0))
        assert abs(theta.mean() - mean) <= 4.0 * math.sqrt(var / R)
        assert abs(theta.var(ddof=1) / var - 1.0) <= 0.02

    def test_rows_give_a_mass_at_most_one(self):
        # At the largest atom every row holds all its weight, which sums to
        # 1 only up to rounding; a binomial count needs a mass in [0, 1].
        model = model_from_spec(MODEL_SPECS["finite_dirichlet_scalars"])
        theta = model.mass_at_most(Sample(()), 1.5, 2000, derive_seed(945))
        assert np.all((theta > 1.0 - 1e-12) & (theta <= 1.0))

    @pytest.mark.parametrize(
        "history, x, mass", [((), 1.0, 1.0), ((), 0.5, 0.0), ((1.0, 1.0), 2.0, 1.0), ((1.0,), 0.0, 0.0)]
    )
    def test_point_mass_base_gives_a_constant(self, history, x, mass):
        model = DirichletProcessModel(2.0, PointMassLaw(1.0))
        assert np.array_equal(model.mass_at_most(Sample(history), x, 5, derive_seed(944)), np.full(5, mass))

    @pytest.mark.parametrize("kind", ["fixed", "dirichlet_process", "polya_tree"])
    def test_history_off_the_model_space_is_refused(self, kind):
        # The DP and the fixed law write their own masses; the shared checks
        # run before every model's.
        model = model_from_spec(MODEL_SPECS[kind])
        with pytest.raises(FiniPostError) as err:
            model.mass_at_most(Sample(("a1", "a2")), 0.3, 4, derive_seed(946))
        assert err.value.code == "space-mismatch"


def _all_finite(result) -> bool:
    if isinstance(result, Sample):
        return all(isinstance(v, str) for v in result.values) or bool(np.all(np.isfinite(result.scalars())))
    if hasattr(result, "weights"):
        return bool(np.all(np.isfinite(result.weights))) and abs(math.fsum(result.weights) - 1.0) < 1e-9
    return bool(np.all(np.isfinite(np.asarray(result, dtype=float))))


# (model case, law function) -> the FiniPostError code the call must raise;
# every other call returns finite values.
EXPECTED_CODES = {
    ("fixed", "posterior_draw"): "posterior-unavailable",
    ("fixed", "batched_posterior_rows"): "posterior-unavailable",
    ("fixed", "batched_posterior_integrals"): "posterior-unavailable",
    ("finite_dirichlet_labels", "batched_sequences"): "space-mismatch",
    ("finite_dirichlet_labels", "batched_f_means"): "space-mismatch",
    ("finite_dirichlet_labels", "batched_posterior_integrals"): "space-mismatch",
    ("finite_dirichlet_labels", "prior_quantile"): "space-mismatch",
    ("finite_dirichlet_labels", "mass_at_most"): "space-mismatch",
    **{
        ("stick_breaking_n5", law): "posterior-unavailable"
        for law in (
            "continue_sequence", "posterior_draw", "batched_sequences", "batched_f_means",
            "batched_posterior_rows", "batched_posterior_integrals", "mass_at_most",
            "predictive_expectation", "predictive_expectation_mc", "predictive_pair_expectation",
        )
    },
}
LAWS = {
    "sample_sequence": lambda model, h, f, g, rng: sample_sequence(model, 3, rng),
    "continue_sequence": lambda model, h, f, g, rng: continue_sequence(model, h, len(h) + 3, rng),
    "posterior_draw": lambda model, h, f, g, rng: posterior_draw(model, h, rng),
    "batched_sequences": lambda model, h, f, g, rng: batched_sequences(model, h, len(h) + 3, 4, rng),
    "batched_f_means": lambda model, h, f, g, rng: batched_f_means(
        model, h, len(h) + 3, np.vectorize(f), 4, rng
    ),
    # The weights only: on a label alphabet the atoms are labels.
    "batched_posterior_rows": lambda model, h, f, g, rng: batched_posterior_rows(model, h, 4, rng)[1],
    "batched_posterior_integrals": lambda model, h, f, g, rng: batched_posterior_integrals(
        model, h, np.vectorize(f), 4, rng
    ),
    "predictive_expectation": lambda model, h, f, g, rng: predictive_expectation(model, h, f, 64, rng),
    "predictive_expectation_mc": lambda model, h, f, g, rng: predictive_expectation_mc(model, h, f, 64, rng),
    "predictive_pair_expectation": lambda model, h, f, g, rng: predictive_pair_expectation(model, h, g, 64, rng),
    "prior_quantile": lambda model, h, f, g, rng: model.prior_quantile(0.3),
    "mass_at_most": lambda model, h, f, g, rng: model.mass_at_most(h, 0.3, 4, rng),
}


class TestProtocolConformance:
    def test_each_model_writes_its_urn_once(self):
        # Every other model continues from its posterior rows through the
        # base class, and a sequence is a one-row batch: only the DP's exact
        # count sampler and the fixed law (no rows) write a continuation.
        from finipost.priors import ExchangeableModel

        subclasses = ExchangeableModel.__subclasses__()
        own = [cls.__name__ for cls in subclasses if "batched_continuation" in vars(cls)]
        assert own == ["DirichletProcessModel", "FixedLawModel"]
        assert not any(hasattr(cls, "continuation") for cls in [ExchangeableModel, *subclasses])

    @pytest.mark.parametrize("kind", [*POSTERIOR_KINDS, "dirichlet_process_capped", "stick_breaking_capped"])
    @pytest.mark.parametrize("n", [0, 2])
    def test_rows_are_no_wider_than_the_width_bound(self, kind, n):
        # The bound is reached where the support is fixed or the stick cap
        # binds (eight Beta(1, b) sticks leave far more than residual_tol).
        spec = MODEL_SPECS[kind.removesuffix("_capped")]
        model = model_from_spec({**spec, "max_sticks": 8} if kind.endswith("_capped") else spec)
        h = sample_sequence(model, n, derive_seed(912))
        width = batched_posterior_rows(model, h, 30, derive_seed(913))[0].shape[1]
        if kind in ("dirichlet_process", "stick_breaking"):
            assert width <= model.row_width(h)
        else:
            assert width == model.row_width(h)

    @pytest.mark.parametrize(
        "overrides, blocks",
        [({}, [2000]), ({"max_sticks": 64}, [2000]), ({"mass": 250.0, "max_sticks": 4096}, [976, 976, 48])],
        ids=["default", "capped", "max-sticks-binds"],
    )
    def test_dp_integrals_draw_blocks_of_the_stick_cap(self, monkeypatch, overrides, blocks):
        # Rows are min(max_sticks, S) sticks wide, so a 2000-draw integral is
        # one block of at most 4e6 atoms unless max_sticks binds; at c = 250
        # S exceeds 4096, and rows are 4097 wide as before.
        model = model_from_spec({**MODEL_SPECS["dirichlet_process"], **overrides})
        seen = []

        def rows(self, history, draws, rng):
            seen.append(draws)
            return np.zeros((draws, 1)), np.ones((draws, 1))

        monkeypatch.setattr(DirichletProcessModel, "posterior_rows", rows)
        batched_posterior_integrals(model, Sample(()), IDENTITY.vec, 2000, derive_seed(914))
        assert seen == blocks

    @pytest.mark.parametrize("c, tol", [(1.0, 1e-8), (1.5, 1e-8), (0.1, 1e-3), (5.0, 1e-12), (40.0, 1e-6)])
    def test_stick_cap_binds_with_probability_below_2_to_the_minus_53(self, c, tol):
        # A row breaks 1 + Poisson(c ln(1/tol)) sticks at most; the cap S
        # leaves a Poisson tail P(N >= S) below 2^-53.
        from scipy.stats import poisson

        model = DirichletProcessModel(c, GaussianLaw(0, 1), residual_tol=tol)
        cap = model.row_width(Sample((0.5, 0.5, 1.0))) - 3
        assert poisson.sf(cap - 1, c * math.log(1 / tol)) <= 2.0**-53
        if (c, tol) == (1.0, 1e-8):
            assert cap == 108

    def test_posterior_models_write_rows_and_no_model_its_integrals(self):
        # Every posterior integral is Σ W·f(X) over the model's rows.
        from finipost.priors import ExchangeableModel

        subclasses = ExchangeableModel.__subclasses__()
        rows = [cls.__name__ for cls in subclasses if "posterior_rows" in vars(cls)]
        assert rows == ["FiniteDirichletModel", "DirichletProcessModel", "StickBreakingModel", "PolyaTreeModel"]
        assert [cls.__name__ for cls in subclasses if "posterior_integrals" in vars(cls)] == []

    def test_only_the_dirichlet_process_weighs_counts_into_f_means(self):
        from finipost.priors import ExchangeableModel

        own = [cls.__name__ for cls in ExchangeableModel.__subclasses__() if "f_means" in vars(cls)]
        assert own == ["DirichletProcessModel"]

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("case", [*MODEL_SPECS, "stick_breaking_n5"])
    def test_law_returns_finite_or_documented_error(self, case, law):
        model = model_from_spec(MODEL_SPECS[case.removesuffix("_n5")])
        h = sample_sequence(model, 5 if case.endswith("_n5") else 2, derive_seed(904))
        if case == "finite_dirichlet_labels":
            f, g = (lambda a: float(a == "a1")), (lambda a, b: float(a == b))
        else:
            f, g = Square(), Product()
        expected = EXPECTED_CODES.get((case, law))
        if expected is None:
            assert _all_finite(LAWS[law](model, h, f, g, derive_seed(905)))
        else:
            with pytest.raises(FiniPostError) as err:
                LAWS[law](model, h, f, g, derive_seed(905))
            assert err.value.code == expected


class TestModelSpecs:
    def test_roundtrip_kinds(self):
        specs = [
            {"kind": "finite_dirichlet", "alpha": [1.0, 2.0, 3.0]},
            {"kind": "finite_dirichlet", "alpha": [1.0, 1.0], "atoms": [0.0, 1.0]},
            {
                "kind": "dirichlet_process",
                "mass": 2.0,
                "base": {"family": "gaussian", "mu": 0, "sigma": 1},
                "max_sticks": 128,
                "residual_tol": 1e-6,
            },
            {
                "kind": "stick_breaking",
                "base": {"family": "uniform", "a": 0, "b": 1},
                "beta_rule": {"a": 1.0, "b": 3.0},
            },
            {
                "kind": "polya_tree",
                "base": {"family": "uniform", "a": 0, "b": 1},
                "depth": 3,
                "level_alpha": [1.0, 2.0, 4.0],
            },
            {"kind": "fixed", "base": {"family": "uniform", "a": 0, "b": 1}},
        ]
        for spec in specs:
            model = model_from_spec(spec)
            s = sample_sequence(model, 3, derive_seed(5))
            assert len(s) == 3

    @pytest.mark.parametrize(
        "atoms", [["a", 1.0], [0.0, "1"], [0.0, True], [0.0, float("nan")]],
        ids=["label-then-number", "number-then-label", "bool", "nan"],
    )
    def test_atoms_all_labels_or_all_finite_numbers(self, atoms):
        with pytest.raises(FiniPostError) as err:
            model_from_spec({"kind": "finite_dirichlet", "alpha": [1, 1], "atoms": atoms})
        assert err.value.code == "config-error"

    def test_unknown_kind(self):
        with pytest.raises(FiniPostError) as err:
            model_from_spec({"kind": "mystery"})
        assert err.value.code == "config-error"

    def test_validation(self):
        with pytest.raises(FiniPostError):
            FiniteDirichletModel((1.0,))
        with pytest.raises(FiniPostError):
            FiniteDirichletModel((1.0, -1.0))
        with pytest.raises(FiniPostError):
            DirichletProcessModel(0.0, GaussianLaw(0, 1))
        with pytest.raises(FiniPostError):
            DirichletProcessModel(1.0, GaussianLaw(0, 1), max_sticks=4)
        with pytest.raises(FiniPostError):
            DirichletProcessModel(1.0, GaussianLaw(0, 1), residual_tol=0.5)
        with pytest.raises(FiniPostError):
            StickBreakingModel(GaussianLaw(0, 1))
        with pytest.raises(FiniPostError):
            PolyaTreeModel(UniformLaw(0, 1), 0, {})
