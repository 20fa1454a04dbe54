"""Atomic measures, CDFs, and the measure-level functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finipost.errors import FiniPostError
from finipost.families import GaussianLaw, PointMassLaw, UniformLaw
from finipost.measures import (
    AtomicMeasure,
    FiniteAlphabet,
    RealLine,
    Sample,
    cdf_of,
    empirical,
    gini_md,
    integrate,
    l21_functional,
    mixture,
    moment,
    weight_matrix,
)


def random_scalar_measure(rng, max_atoms=12, span=5.0):
    k = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-span, span, size=k)
    w = rng.dirichlet(np.ones(k))
    return AtomicMeasure(list(zip(pts, w)))


class TestWeightMatrix:
    def test_accepts_probability_rows(self):
        W = weight_matrix([[0.25, 0.75], [1.0, 0.0]])
        assert W.shape == (2, 2) and W.dtype == float

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.5, 0.6]],
            [[1.5, -0.5]],
            [[float("nan"), 1.0]],
            [0.5, 0.5],
            np.empty((0, 2)),
        ],
    )
    def test_rejects_what_a_measure_rejects(self, rows):
        with pytest.raises(FiniPostError) as err:
            weight_matrix(rows)
        assert err.value.code == "bad-weights"


class TestEmpirical:
    def test_label_counting(self):
        e = empirical(Sample(("a", "a", "b")))
        assert e.mass_at("a") == pytest.approx(2 / 3)
        assert e.mass_at("b") == pytest.approx(1 / 3)

    def test_single_atom(self):
        e = empirical(Sample((0.5,)))
        assert e.mass_at(0.5) == 1.0

    def test_multiplicities(self):
        e = empirical(Sample((1.0, 2.0, 2.0, 2.0)))
        assert e.mass_at(1.0) == 0.25
        assert e.mass_at(2.0) == 0.75

    def test_empty_sample(self):
        with pytest.raises(FiniPostError) as err:
            empirical(Sample(()))
        assert err.value.code == "empty-sample"


class TestMixture:
    def test_degenerate_weight(self):
        d0, d1 = empirical(Sample((0.0,))), empirical(Sample((1.0,)))
        assert mixture(d0, d1, 1.0) == d0

    def test_plain(self):
        m = mixture(empirical(Sample((0.0,))), empirical(Sample((1.0,))), 0.3)
        assert m.mass_at(0.0) == pytest.approx(0.3)
        assert m.mass_at(1.0) == pytest.approx(0.7)

    def test_merges_shared_atom(self):
        half = AtomicMeasure([(0.0, 0.5), (1.0, 0.5)])
        m = mixture(half, empirical(Sample((1.0,))), 0.5)
        assert len(m) == 2
        assert m.mass_at(0.0) == pytest.approx(0.25)
        assert m.mass_at(1.0) == pytest.approx(0.75)

    def test_space_mismatch(self):
        labels = empirical(Sample(("a",)))
        scalars = empirical(Sample((1.0,)))
        with pytest.raises(FiniPostError) as err:
            mixture(labels, scalars, 0.5)
        assert err.value.code == "space-mismatch"


class TestIntegrate:
    def test_symmetric_mean(self):
        assert integrate(AtomicMeasure([(0.0, 0.5), (2.0, 0.5)]), lambda x: x) == 1.0

    def test_point_mass(self):
        assert integrate(empirical(Sample((3.0,))), lambda x: x**3) == 27.0

    def test_weighted_square(self):
        assert integrate(AtomicMeasure([(1.0, 0.25), (3.0, 0.75)]), lambda x: x * x) == 7.0

    def test_non_finite_integrand(self):
        with pytest.raises(FiniPostError) as err:
            integrate(empirical(Sample((0.0,))), lambda x: float("inf"))
        assert err.value.code == "non-finite-integrand"


class TestCdfOf:
    def test_two_point(self):
        c = cdf_of(AtomicMeasure([(0.0, 0.5), (1.0, 0.5)]))
        assert c.thresholds.tolist() == [0.0, 1.0]
        assert c.cumulative.tolist() == [0.5, 1.0]

    def test_dirac(self):
        c = cdf_of(empirical(Sample((0.0,))))
        assert c.thresholds.tolist() == [0.0] and c.cumulative.tolist() == [1.0]

    def test_three_point_partial_sums(self):
        c = cdf_of(AtomicMeasure([(-1.0, 0.2), (0.0, 0.3), (2.0, 0.5)]))
        assert c.cumulative.tolist() == pytest.approx([0.2, 0.5, 1.0])

    def test_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = cdf_of(random_scalar_measure(rng))
            assert np.all(np.diff(c.cumulative) >= 0)
            assert c.cumulative[-1] == 1.0

    def test_label_space_rejected(self):
        with pytest.raises(FiniPostError) as err:
            cdf_of(empirical(Sample(("a", "b"))))
        assert err.value.code == "space-mismatch"


class TestL21Functional:
    def test_uniform_is_pi_over_8(self):
        assert l21_functional(UniformLaw(0, 1)) == pytest.approx(math.pi / 8, abs=1e-9)

    def test_fair_two_point(self):
        assert l21_functional(cdf_of(AtomicMeasure([(0.0, 0.5), (1.0, 0.5)]))) == 0.5

    def test_dirac_is_zero(self):
        assert l21_functional(cdf_of(empirical(Sample((4.0,))))) == 0.0
        assert l21_functional(PointMassLaw(2.0)) == 0.0

    def test_gaussian_scales_with_sigma(self):
        base = l21_functional(GaussianLaw(0, 1), tol=1e-10)
        threes = l21_functional(GaussianLaw(5, 3), tol=1e-10)
        assert threes == pytest.approx(3 * base, rel=1e-7)

    def test_gaussian_against_quadrature_oracle(self):
        from scipy.integrate import quad
        from scipy.special import ndtr

        ref, _ = quad(lambda t: math.sqrt(ndtr(t) * (1 - ndtr(t))), -10, 10)
        assert l21_functional(GaussianLaw(0, 1)) == pytest.approx(ref, abs=1e-7)

    def test_bounded_by_half_width(self):
        # sqrt(F(1-F)) <= 1/2 on an interval of length 2M.
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = random_scalar_measure(rng, span=3.0)
            assert l21_functional(cdf_of(m)) <= 3.0 + 1e-12


class TestGiniMoment:
    def test_dirac_zero(self):
        assert gini_md(empirical(Sample((2.5,)))) == 0.0

    def test_fair_two_point(self):
        assert gini_md(AtomicMeasure([(0.0, 0.5), (1.0, 0.5)])) == 0.5

    def test_uniform_three_point(self):
        m = AtomicMeasure([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)])
        assert gini_md(m) == pytest.approx(8 / 9, abs=1e-12)

    def test_moment_examples(self):
        assert moment(empirical(Sample((0.0,))), 3.0) == 0.0
        assert moment(AtomicMeasure([(-1.0, 0.5), (1.0, 0.5)]), 2.0) == 1.0
        assert moment(AtomicMeasure([(1.0, 0.25), (3.0, 0.75)]), 1.0) == 2.5

    def test_gini_dominated_by_first_moment(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = random_scalar_measure(rng)
            assert gini_md(m) <= 2.0 * moment(m, 1.0) + 1e-12


class TestInvariants:
    def test_normalization_on_random_constructions(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m = random_scalar_measure(rng)
            assert abs(math.fsum(m.weights) - 1.0) <= 1e-12
            assert np.all(m.weights >= 0)

    @given(st.floats(0, 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_mixture_linearity_under_integration(self, w, seed):
        rng = np.random.default_rng(seed)
        p = random_scalar_measure(rng)
        q = random_scalar_measure(rng)
        coeffs = rng.uniform(-2, 2, size=3)
        f = lambda x: coeffs[0] + coeffs[1] * x + coeffs[2] * x * x  # noqa: E731
        lhs = integrate(mixture(p, q, w), f)
        rhs = w * integrate(p, f) + (1 - w) * integrate(q, f)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_exact_point_merging(self):
        m = AtomicMeasure([(1.0, 0.25), (1.0, 0.25), (2.0, 0.5)])
        assert len(m) == 2
        assert m.mass_at(1.0) == 0.5

    def test_nearby_points_not_merged(self):
        m = AtomicMeasure([(1.0, 0.5), (1.0 + 1e-13, 0.5)])
        assert len(m) == 2

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(FiniPostError):
            AtomicMeasure([(0.0, 0.5), (1.0, 0.6)])
        with pytest.raises(FiniPostError):
            AtomicMeasure([(0.0, 1.5), (1.0, -0.5)])
        # Every comparison with NaN is false: a NaN weight must still fail.
        with pytest.raises(FiniPostError) as err:
            AtomicMeasure([(0.0, 1.0), (1.0, math.nan)])
        assert err.value.code == "bad-weights"


class TestSampleAndSpaces:
    def test_sample_length(self):
        s = Sample((1.0, 2.0, 3.0))
        assert s.length == len(s) == 3

    def test_inferred_spaces(self):
        assert isinstance(Sample((1.0,)).space, RealLine)
        assert Sample(("x", "y")).space == FiniteAlphabet(("x", "y"))

    @pytest.mark.parametrize("values", [(math.nan,), (0.5, math.inf), (-math.inf,)], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("space", [None, RealLine()], ids=["inferred", "given"])
    def test_line_sample_refuses_non_finite_values(self, values, space):
        # As a measure's points do: no law computes with a NaN or infinite history.
        with pytest.raises(FiniPostError) as err:
            Sample(values, space=space)
        assert err.value.code == "space-mismatch"
