"""Closed-form bounds: frozen arithmetic examples, rate shapes, and the
median law against an independent special-function oracle and an exact
binomial-sum oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc

from finipost.bounds import (
    MedianLawInputs,
    bounded_support_bound,
    dudley_gamma,
    euclidean_bound,
    finite_bound,
    l21_moment_bound,
    mean_bound_conditional,
    mean_bound_unconditional,
    median_cdf,
    median_tail_bounds,
    real_bound,
    regularized_incomplete_beta,
    tail_probability_bound,
)
from finipost.errors import FiniPostError
from finipost.measures import AtomicMeasure, cdf_of, l21_functional, moment


class TestInputCarriers:
    def test_median_inputs_validation(self):
        MedianLawInputs(0, 0.5)
        with pytest.raises(FiniPostError):
            MedianLawInputs(-1, 0.5)
        with pytest.raises(FiniPostError):
            MedianLawInputs(2, 1.5)


class TestMeanBounds:
    def test_unconditional_values(self):
        assert mean_bound_unconditional(100, 1.0) == pytest.approx(0.2)
        assert mean_bound_unconditional(7, 0.0) == 0.0
        assert mean_bound_unconditional(25, 4.0) == pytest.approx(0.8)

    def test_conditional_values(self):
        assert mean_bound_conditional(0, 100, 0.0, 0.0, 1.0) == pytest.approx(0.2)
        assert mean_bound_conditional(10, 100, 1.0, 1.0, 1.0) == pytest.approx(
            0.2 + 2 / math.sqrt(90)
        )
        assert mean_bound_conditional(0, 50, 0.0, 0.0, 0.0) == 0.0

    def test_conditional_head_is_sign_safe(self):
        # The head takes |sample mean| and the predictive mean of |f|, so a
        # negative sample mean cannot pull the bound below its tail term.
        assert mean_bound_conditional(10, 100, -3.0, 3.0, 1.0) == pytest.approx(
            0.6 + 2 / math.sqrt(90)
        )
        with pytest.raises(FiniPostError) as err:
            mean_bound_conditional(10, 100, 1.0, -1.0, 1.0)
        assert err.value.code == "config-error"

    def test_horizon_errors(self):
        with pytest.raises(FiniPostError) as err:
            mean_bound_unconditional(0, 1.0)
        assert err.value.code == "bad-horizon"
        with pytest.raises(FiniPostError):
            mean_bound_conditional(5, 5, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "bound",
        [
            lambda: finite_bound(3, -50, 5),
            lambda: real_bound(-3, 10, 1.0),
            lambda: mean_bound_conditional(-1, 50, 0.0, 0.0, 1.0),
        ],
        ids=["finite", "real", "mean"],
    )
    def test_negative_history_length(self, bound):
        # n = -50, N = 5 once gave a finite bound of -9.9 (the n/N head).
        with pytest.raises(FiniPostError) as err:
            bound()
        assert err.value.code == "bad-horizon"


class TestRateBounds:
    def test_finite_values(self):
        assert finite_bound(3, 10, 100) == pytest.approx(3 / (4 * math.sqrt(90)) + 0.1)
        assert finite_bound(2, 0, 2) == pytest.approx(2 / (4 * math.sqrt(2)))

    def test_finite_monotone_in_n(self):
        vals = [finite_bound(4, n, 101) for n in range(0, 100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_real_values(self):
        assert real_bound(0, 100, math.pi / 8) == pytest.approx(math.pi / 80)
        assert real_bound(10, 100, 0.5) == pytest.approx(0.5 / math.sqrt(90) + 0.2)
        assert real_bound(0, 10, 0.0) == 0.0

    def test_bounded_support_values(self):
        assert bounded_support_bound(0.5, 0, 100) == pytest.approx(0.1)
        assert bounded_support_bound(1.0, 10, 110) == pytest.approx(0.2 + 20 / 110)

    def test_real_dominated_by_bounded_support(self):
        # Literal inequality of the two formulas whenever the l21 value is
        # at most the support radius.
        rng = np.random.default_rng(0)
        for _ in range(200):
            M = float(rng.uniform(0.1, 5))
            delta = float(rng.uniform(0, M))
            n = int(rng.integers(0, 50))
            N = n + int(rng.integers(1, 200))
            assert real_bound(n, N, delta) <= bounded_support_bound(M, n, N) + 1e-12

    def test_all_bounds_decrease_in_N(self):
        for n in (0, 3, 17):
            grid = range(n + 1, n + 10001, 37)
            for f in (
                lambda N: finite_bound(3, n, N),
                lambda N: real_bound(n, N, 0.7),
                lambda N: bounded_support_bound(1.2, n, N),
                lambda N: euclidean_bound(2, 4, n, N, 1.0),
            ):
                vals = [f(N) for N in grid]
                assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
                assert all(v >= 0 for v in vals)

    def test_bound_rate_is_minus_half(self):
        # Sanity of the implemented formulas: at n=0 the leading term scales
        # as N^(-1/2), so the log-log slope over the default grid is -1/2.
        grid = np.array([25, 100, 400, 1600])
        for f in (lambda N: finite_bound(3, 0, int(N)), lambda N: mean_bound_unconditional(int(N), 1.0)):
            y = np.log([f(N) for N in grid])
            slope = np.polyfit(np.log(grid), y, 1)[0]
            assert slope == pytest.approx(-0.5, abs=1e-12)


class TestMomentBounds:
    def test_values(self):
        assert l21_moment_bound(2.0, 3.0) == pytest.approx(4.0)
        assert l21_moment_bound(1.0, 1.0) == pytest.approx(3.0)
        assert l21_moment_bound(0.5, 0.0) == 1.0

    def test_domain(self):
        with pytest.raises(FiniPostError):
            l21_moment_bound(0.0, 1.0)

    def test_dominates_measured_l21(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            k = int(rng.integers(1, 10))
            pts = rng.normal(scale=2.0, size=k)
            w = rng.dirichlet(np.ones(k))
            m = AtomicMeasure(list(zip(pts, w)))
            delta = float(rng.uniform(0.2, 3.0))
            measured = l21_functional(cdf_of(m))
            assert measured <= l21_moment_bound(delta, moment(m, 2.0 + delta)) + 1e-9

    def test_tail_probability(self):
        assert tail_probability_bound(0.5, math.pi / 8, 0, 100) == pytest.approx(math.pi / 40)
        assert tail_probability_bound(1e9, 1.0, 0, 100) < 1e-8
        assert tail_probability_bound(1e-9, 1.0, 0, 100) == 1.0


class TestEuclideanBound:
    def test_gamma(self):
        assert dudley_gamma(2, 4) == pytest.approx(2.0)

    def test_gamma_domain(self):
        with pytest.raises(FiniPostError) as err:
            dudley_gamma(2, 2)
        assert err.value.code == "bad-dudley-params"
        with pytest.raises(FiniPostError) as err:
            dudley_gamma(4, 40)  # gamma = 160/(36*38) < 1
        assert err.value.code == "gamma-below-one"

    def test_value(self):
        got = euclidean_bound(2, 4, 0, 16, 0.0)
        assert got == pytest.approx((4 / 3 + 4 * 3**8 * 2.0) * 16 ** (-0.25))

    def test_decay(self):
        assert euclidean_bound(2, 4, 0, 10**8, 0.0) < euclidean_bound(2, 4, 0, 100, 0.0) / 10


def _binomial_tail(a: int, b: int, x: Fraction) -> Fraction:
    """P(Binomial(a + b - 1, x) >= a), exactly: I_x(a, b) for integer a, b."""
    n = a + b - 1
    p, q = x.numerator, x.denominator
    return Fraction(sum(math.comb(n, j) * p**j * (q - p) ** (n - j) for j in range(a, n + 1)), q**n)


class TestMedianLaw:
    def test_symmetry_point(self):
        for N in (1, 5, 20, 33):
            assert median_cdf(MedianLawInputs(N, 0.5)) == 0.5

    def test_cubic_case(self):
        assert median_cdf(MedianLawInputs(1, 0.3)) == pytest.approx(0.216, abs=1e-15)

    def test_endpoints(self):
        assert median_cdf(MedianLawInputs(9, 0.0)) == 0.0
        assert median_cdf(MedianLawInputs(9, 1.0)) == 1.0

    def test_against_scipy_oracle(self):
        for N in list(range(1, 21)) + [25, 40, 80, 150]:
            for F in np.linspace(0.001, 0.999, 23):
                mine = median_cdf(MedianLawInputs(N, float(F)))
                ref = float(betainc(N + 1, N + 1, F))
                assert mine == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_incomplete_beta_matches_exact_binomial_tail_for_median_laws(self):
        # The median law is I_F(N+1, N+1); the dyadic F are exact floats,
        # so the oracle sees the same argument.
        for N in range(1, 151):
            for F in (Fraction(k, 64) for k in range(1, 64, 4)):
                ref = float(_binomial_tail(N + 1, N + 1, F))
                assert median_cdf(MedianLawInputs(N, float(F))) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_incomplete_beta_matches_exact_binomial_tail_random_integers(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = (int(v) for v in rng.integers(1, 61, size=2))
            x = float(rng.uniform(0.001, 0.999))
            ref = float(_binomial_tail(a, b, Fraction(x)))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_incomplete_beta_passes_generic_parameters_to_betainc(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = float(rng.uniform(0.5, 60))
            b = float(rng.uniform(0.5, 60))
            x = float(rng.uniform(0.001, 0.999))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(betainc(a, b, x)), rel=1e-10, abs=1e-13
            )

    def test_monotone_in_F_and_symmetric(self):
        for N in (1, 4, 19, 30):
            F = np.linspace(0.0, 1.0, 41)
            vals = [median_cdf(MedianLawInputs(N, float(f))) for f in F]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
            for f, v in zip(F, vals):
                assert v + median_cdf(MedianLawInputs(N, float(1 - f))) == pytest.approx(1.0, abs=1e-12)

    def test_tail_bounds_values(self):
        assert median_tail_bounds(MedianLawInputs(1, 0.3), 0.0, 0.1) == (0.0, pytest.approx(0.3))
        left, right = median_tail_bounds(MedianLawInputs(1, 0.3), 0.2, 0.2)
        assert left == pytest.approx(0.6) and right == pytest.approx(0.6)
        big_left, _ = median_tail_bounds(MedianLawInputs(10**6, 0.3), 0.2, 0.0)
        assert big_left == pytest.approx(0.4, abs=1e-5)

    def test_cdf_dominated_by_tail_bound(self):
        for N in range(1, 51):
            for F in np.linspace(0.0, 1.0, 11):
                value = median_cdf(MedianLawInputs(N, float(F)))
                left, right = median_tail_bounds(MedianLawInputs(N, float(F)), float(F), 1.0 - float(F))
                assert value <= left + 1e-12
                assert 1.0 - value <= right + 1e-12
