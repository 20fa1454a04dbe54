"""Finite-horizon estimators: frozen examples, boundary collapse, the
horizon envelope, and the Monte Carlo master oracle for both
coefficient resolutions."""

import math

import numpy as np
import pytest

from finipost.errors import FiniPostError
from finipost.estimators import (
    EstimatorInputs,
    cdf_estimators,
    finitary_functional,
    gini_estimators,
    mean_estimators,
    posterior_risk,
    posterior_risk_profile,
    variance_estimators,
)
from finipost.families import GaussianLaw, PointMassLaw
from finipost.measures import Sample, empirical, gini_md, integrate
from finipost.priors import DirichletProcessModel, FiniteDirichletModel, batched_sequences
from finipost.rng import derive_seed

FD01 = FiniteDirichletModel((1.0, 1.0), atoms=(0.0, 1.0))
DP = DirichletProcessModel(1.0, GaussianLaw(0, 1))


def plug_in_variance(history: Sample) -> float:
    e = empirical(history)
    return integrate(e, lambda v: v * v) - integrate(e, lambda v: v) ** 2


def row_gini(x: np.ndarray) -> np.ndarray:
    """Mean absolute difference of each row's empirical measure, from the
    sorted row: (2/N^2) sum_i (2i - N - 1) x_(i)."""
    N = x.shape[1]
    return np.sort(x, axis=1) @ (2.0 * np.arange(1, N + 1) - N - 1) * (2.0 / N**2)


class TestEstimatorInputs:
    def test_horizon_zero_is_refused(self):
        with pytest.raises(FiniPostError) as err:
            EstimatorInputs(DP, Sample(()), 0)
        assert err.value.code == "bad-horizon"

    def test_history_off_the_model_space_is_refused(self):
        with pytest.raises(FiniPostError) as err:
            EstimatorInputs(DP, Sample(("a", "b")), 3)
        assert err.value.code == "space-mismatch"


class TestMeanEstimators:
    def test_convex_combination(self):
        pair = mean_estimators(EstimatorInputs(DP, Sample((2.0,)), 2))
        assert pair.finitary == pytest.approx(1.5)
        assert pair.classical == pytest.approx(1.0)

    def test_no_history_is_prior_predictive(self):
        pair = mean_estimators(EstimatorInputs(DP, Sample((), space=DP.space), 10))
        assert pair.finitary == pytest.approx(pair.classical, abs=1e-12)
        assert pair.classical == pytest.approx(0.0, abs=1e-9)

    def test_boundary_collapse(self):
        h = Sample((0.3, -1.2, 0.8, 2.0))
        pair = mean_estimators(EstimatorInputs(DP, h, 4))
        assert pair.finitary == float(h.scalars().mean())


class TestVarianceEstimators:
    def test_two_point_prior_case(self):
        # Enumeration oracle: urn sequences of length 2 over {0, 1} carry
        # probabilities 1/3, 1/6, 1/6, 1/3 and variances 0, 1/4, 1/4, 0.
        seqs = {(0.0, 0.0): 1 / 3, (0.0, 1.0): 1 / 6, (1.0, 0.0): 1 / 6, (1.0, 1.0): 1 / 3}
        oracle = sum(p * np.var(s) for s, p in seqs.items())
        assert oracle == pytest.approx(1 / 12)
        pair = variance_estimators(EstimatorInputs(FD01, Sample((), space=FD01.space), 2))
        assert pair.finitary == pytest.approx(oracle, abs=1e-12)
        assert pair.classical == pytest.approx(1 / 6, abs=1e-12)

    def test_boundary_collapse(self):
        h = Sample((0.1, 0.5, 0.9, 0.5, -0.3))
        pair = variance_estimators(EstimatorInputs(DP, h, 5))
        assert pair.finitary == pytest.approx(plug_in_variance(h), abs=1e-15)

    def test_degenerate_model_gives_zero(self):
        dp0 = DirichletProcessModel(1e-9, PointMassLaw(0.4))
        h = Sample((0.4, 0.4, 0.4))
        pair = variance_estimators(EstimatorInputs(dp0, h, 12))
        assert pair.finitary == pytest.approx(0.0, abs=1e-9)

    def test_horizon_guard(self):
        with pytest.raises(FiniPostError) as err:
            variance_estimators(EstimatorInputs(DP, Sample((), space=DP.space), 1))
        assert err.value.code == "bad-horizon"


class TestCdfEstimators:
    def test_worked_example(self):
        pair = cdf_estimators(EstimatorInputs(FD01, Sample((0.0,)), 2), 0.5)
        assert pair.finitary == pytest.approx(5 / 6)
        assert pair.classical == pytest.approx(2 / 3)

    def test_below_support(self):
        pair = cdf_estimators(EstimatorInputs(FD01, Sample((0.0, 1.0)), 4), -3.0)
        assert pair.finitary == 0.0 and pair.classical == 0.0

    def test_boundary_collapse(self):
        h = Sample((0.1, 0.9, 0.5))
        pair = cdf_estimators(EstimatorInputs(DP, h, 3), 0.6)
        assert pair.finitary == pytest.approx(np.mean(h.scalars() <= 0.6), abs=1e-15)

    def test_monotone_in_y_and_in_unit_interval(self):
        h = Sample((0.2, -0.7, 1.4))
        inputs = EstimatorInputs(DP, h, 9)
        vals = [cdf_estimators(inputs, y).finitary for y in np.linspace(-3, 3, 25)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestGiniEstimators:
    def test_two_point_prior_case(self):
        pair = gini_estimators(EstimatorInputs(FD01, Sample((), space=FD01.space), 2))
        assert pair.finitary == pytest.approx(1 / 6, abs=1e-12)
        assert pair.classical == pytest.approx(1 / 3, abs=1e-12)

    def test_degenerate_history(self):
        dp0 = DirichletProcessModel(1e-9, PointMassLaw(1.0))
        pair = gini_estimators(EstimatorInputs(dp0, Sample((1.0, 1.0)), 6))
        assert pair.finitary == pytest.approx(0.0, abs=1e-9)

    def test_boundary_collapse(self):
        h = Sample((0.0, 0.25, 1.0, 0.25))
        pair = gini_estimators(EstimatorInputs(DP, h, 4))
        assert pair.finitary == pytest.approx(gini_md(empirical(h)), abs=1e-15)


class TestHorizonEnvelope:
    def test_mean_gap_identity(self):
        # finitary - classical = (n/N)(sample mean - predictive mean).
        h = Sample((0.5, 1.5, -2.0, 0.25))
        n = len(h)
        mu_bar = float(h.scalars().mean())
        for N in (4, 8, 16, 64, 256):
            pair = mean_estimators(EstimatorInputs(DP, h, N))
            gap = pair.finitary - pair.classical
            assert gap * N / n == pytest.approx(
                mu_bar - pair.components["mu_hat_n"], abs=1e-12
            )

    def test_bounded_ratio_for_mean_and_cdf(self):
        h = Sample((0.5, 1.5, -2.0, 0.25))
        n = len(h)
        for N in (8, 16, 64, 256, 1024):
            for pair in (
                mean_estimators(EstimatorInputs(DP, h, N)),
                cdf_estimators(EstimatorInputs(DP, h, N), 0.4),
            ):
                ratio = abs(pair.finitary - pair.classical) * N / n
                assert ratio <= 10.0

    @pytest.mark.parametrize("model", [DP, FD01], ids=["dp", "fd"])
    def test_each_estimator_gap_within_its_envelope(self, model):
        h = Sample((0.0, 1.0, 1.0, 0.0, 1.0))
        n = len(h)
        for N in (5, 10, 40, 640):
            inputs = EstimatorInputs(model, h, N)
            pairs = [mean_estimators(inputs), cdf_estimators(inputs, 0.5), variance_estimators(inputs)]
            pairs.append(gini_estimators(inputs))
            for pair in pairs:
                assert abs(pair.finitary - pair.classical) <= pair.envelope + 1e-12
                assert 0.0 <= pair.envelope <= 100.0 * n / N


class TestMonteCarloOracle:
    """The generic continuation route must agree with each closed form at a
    horizon where the disputed coefficient terms are active."""

    H = Sample((0.4, -0.3, 1.1))

    def check(self, model, closed, functional, seed):
        inputs = EstimatorInputs(model, self.H, 11)
        mc, se = finitary_functional(inputs, functional, 20000, derive_seed(seed))
        assert abs(closed - mc) <= 4 * se, (closed, mc, se)

    def test_mean(self):
        closed = mean_estimators(EstimatorInputs(DP, self.H, 11)).finitary
        self.check(DP, closed, lambda x: x.mean(axis=1), 200)

    def test_variance(self):
        closed = variance_estimators(EstimatorInputs(DP, self.H, 11)).finitary
        self.check(DP, closed, lambda x: x.var(axis=1), 201)

    def test_cdf(self):
        closed = cdf_estimators(EstimatorInputs(DP, self.H, 11), 0.5).finitary
        self.check(DP, closed, lambda x: (x <= 0.5).mean(axis=1), 202)

    def test_gini(self):
        closed = gini_estimators(EstimatorInputs(DP, self.H, 11)).finitary
        self.check(DP, closed, row_gini, 203)

    def test_variance_wrong_coefficient_rejected(self):
        # Reading the pair coefficient as (N-n) instead of (N-n-1) must be
        # outside the Monte Carlo band: the oracle pins the resolution.
        inputs = EstimatorInputs(DP, self.H, 11)
        pair = variance_estimators(inputs)
        n, N = 3, 11
        wrong = pair.finitary - ((N - n) * (N - n) - (N - n) * (N - n - 1)) / N**2 * pair.components[
            "c12_hat_n"
        ]
        mc, se = finitary_functional(inputs, lambda x: x.var(axis=1), 20000, derive_seed(204))
        assert abs(pair.finitary - mc) <= 4 * se
        assert abs(wrong - mc) > 4 * se

    def test_gini_wrong_cross_range_rejected(self):
        # Cross sum over j < n (dropping the n-th term) must sit outside
        # the Monte Carlo band.
        inputs = EstimatorInputs(DP, self.H, 11)
        pair = gini_estimators(inputs)
        n, N = 3, 11
        from finipost.priors import predictive_expectation

        last = predictive_expectation(DP, self.H, lambda v: abs(v - self.H.values[-1]))
        wrong = pair.finitary - 2.0 * (N - n) / N**2 * last
        mc, se = finitary_functional(inputs, row_gini, 20000, derive_seed(205))
        assert abs(pair.finitary - mc) <= 4 * se
        assert abs(wrong - mc) > 4 * se


class TestFunctionalAndRisk:
    def test_replica_guard(self):
        inputs = EstimatorInputs(DP, Sample((0.5,)), 5)
        for call in (
            lambda: finitary_functional(inputs, row_gini, 1, derive_seed(1)),
            lambda: posterior_risk(inputs, row_gini, 0.0, 1, derive_seed(1)),
            lambda: posterior_risk_profile(inputs, row_gini, [0.0, 1.0], 1, derive_seed(1)),
        ):
            with pytest.raises(FiniPostError) as err:
                call()
            assert err.value.code == "config-error"

    @pytest.mark.parametrize("model", [DP, FD01], ids=["dp", "fd"])
    def test_replicas_are_batched_rows(self, model):
        # Each replica is one row of ``batched_sequences`` on the same stream.
        inputs = EstimatorInputs(model, Sample((0.0, 1.0)), 9)
        t = lambda x: (x**2).mean(axis=1)  # noqa: E731
        vals = t(batched_sequences(model, inputs.history, 9, 50, derive_seed(6)))
        val, se = finitary_functional(inputs, t, 50, derive_seed(6))
        assert val == vals.mean()
        assert se == vals.std(ddof=1) / math.sqrt(50)

    def test_risk_is_the_one_action_profile(self):
        inputs = EstimatorInputs(DP, Sample((0.4, 1.0)), 12)
        t = lambda x: x.mean(axis=1)  # noqa: E731
        single = posterior_risk(inputs, t, 0.3, 500, derive_seed(7))
        assert single == posterior_risk_profile(inputs, t, [0.3], 500, derive_seed(7))[0]

    def test_risk_of_forced_outcome_is_zero(self):
        dp0 = DirichletProcessModel(1e-12, PointMassLaw(2.0))
        inputs = EstimatorInputs(dp0, Sample((2.0,)), 6)
        val, _ = posterior_risk(inputs, lambda x: x.mean(axis=1), 2.0, 256, derive_seed(2))
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_risk_shift_identity(self):
        # With shared replicas, risk(a) - risk(b) = (mean_t - b)^2 ... (a-b)
        # algebra: risk(a) = var_t + (mean_t - a)^2 exactly per sample.
        inputs = EstimatorInputs(DP, Sample((0.4, 1.0)), 12)
        t = lambda x: x.mean(axis=1)  # noqa: E731
        actions = [0.0, 0.7, 1.3]
        risks = posterior_risk_profile(inputs, t, actions, 4000, derive_seed(3))
        base = mean_estimators(EstimatorInputs(DP, Sample((0.4, 1.0)), 12)).finitary
        # risk differences follow the quadratic identity around the sample mean
        r0, r1, r2 = (r for r, _ in risks)
        # reconstruct the shared sample mean from two risks
        a0, a1, a2 = actions
        tbar = ((r1 - r0) / (a0 - a1) + a0 + a1) / 2.0
        assert r2 - r0 == pytest.approx((tbar - a2) ** 2 - (tbar - a0) ** 2, abs=1e-10)
        assert tbar == pytest.approx(base, abs=0.05)

    def test_risk_minimized_near_conditional_mean(self):
        inputs = EstimatorInputs(DP, Sample((0.4, 1.0, -0.2)), 30)
        t = lambda x: x.mean(axis=1)  # noqa: E731
        center = mean_estimators(EstimatorInputs(DP, Sample((0.4, 1.0, -0.2)), 30)).finitary
        risks = posterior_risk_profile(
            inputs, t, [center - 0.25, center, center + 0.25], 20000, derive_seed(4)
        )
        (rm, sm), (rc, sc), (rp, sp) = risks
        assert rc <= rm + 4 * math.sqrt(sm**2 + sc**2)
        assert rc <= rp + 4 * math.sqrt(sp**2 + sc**2)

    @pytest.mark.parametrize(
        "t, code",
        [
            (lambda x: x.mean(), "config-error"),
            (lambda x: x[:, :1], "config-error"),
            (lambda x: x.mean(axis=1)[:-1], "config-error"),
            (lambda x: np.where(x[:, -1] > 0.0, np.nan, x.mean(axis=1)), "non-finite-integrand"),
            (lambda x: np.where(x[:, -1] > 0.0, np.inf, x.mean(axis=1)), "non-finite-integrand"),
        ],
        ids=["scalar", "column", "short", "nan", "inf"],
    )
    def test_row_functional_gives_one_finite_value_per_row(self, t, code):
        inputs = EstimatorInputs(DP, Sample((0.5,)), 5)
        for call in (
            lambda: finitary_functional(inputs, t, 64, derive_seed(1)),
            lambda: posterior_risk_profile(inputs, t, [0.0, 1.0], 64, derive_seed(1)),
        ):
            with pytest.raises(FiniPostError) as err:
                call()
            assert err.value.code == code


class TestRowForms:
    """The row forms the Monte Carlo tests use equal the measure-level
    functionals of each row's empirical measure, ties included."""

    @pytest.mark.parametrize("model", [DP, FD01], ids=["dp", "fd"])
    def test_row_forms_equal_measure_functionals(self, model):
        rows = batched_sequences(model, Sample((0.0, 1.0)), 17, 200, derive_seed(9))
        forms = {
            "mean": (lambda x: x.mean(axis=1), lambda e: integrate(e, lambda v: v)),
            "variance": (
                lambda x: x.var(axis=1),
                lambda e: integrate(e, lambda v: v * v) - integrate(e, lambda v: v) ** 2,
            ),
            "cdf": (lambda x: (x <= 0.25).mean(axis=1), lambda e: integrate(e, lambda v: float(v <= 0.25))),
            "gini": (row_gini, gini_md),
        }
        measures = [empirical(Sample(tuple(row))) for row in rows.tolist()]
        for name, (row_form, measure_form) in forms.items():
            got = row_form(rows)
            assert got.shape == (len(rows),)
            np.testing.assert_allclose(got, [measure_form(e) for e in measures], rtol=0, atol=1e-12, err_msg=name)
