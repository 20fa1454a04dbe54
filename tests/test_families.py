"""Analytic laws and named test functions: each closed-form expectation
against quadrature of the same function written as a plain lambda, the
routing of ``expect``/``pair_expect``, and the Dirichlet-process pair
predictive in named and plain form."""

import numpy as np
import pytest
from scipy import integrate

from finipost.families import (
    IDENTITY,
    AbsDeviation,
    AbsDifference,
    GaussianLaw,
    Indicator,
    Linear,
    PointMassLaw,
    Product,
    Square,
    UniformLaw,
)
from finipost.measures import Sample
from finipost.priors import DirichletProcessModel, predictive_pair_expectation

# Each law with three points: left of, inside and right of (or far into the
# tails of) its support.
LAWS = {
    "uniform": (UniformLaw(-1.0, 2.0), (-2.5, 0.3, 4.0)),
    "gaussian": (GaussianLaw(0.0, 1.0), (-2.5, 0.3, 4.0)),
    "gaussian-shifted": (GaussianLaw(-3.0, 1.5), (-6.0, -2.2, 1.0)),
    "point-mass": (PointMassLaw(0.7), (-1.0, 0.7, 2.0)),
}


def unary_cases(points):
    cases = [
        ("identity", IDENTITY, lambda x: x),
        ("linear", Linear(-2.5), lambda x: -2.5 * x),
        ("square", Square(), lambda x: x * x),
    ]
    for where, p in zip(("left", "inside", "right"), points):
        cases.append((f"indicator-{where}", Indicator(p), lambda x, p=p: 1.0 if x <= p else 0.0))
        cases.append((f"absdev-{where}", AbsDeviation(p), lambda x, p=p: abs(x - p)))
    return cases


PAIRS = [
    ("absdiff", AbsDifference(), lambda x, y: abs(x - y)),
    ("product", Product(), lambda x, y: x * y),
]


@pytest.mark.parametrize("law_id", LAWS)
def test_unary_closed_forms_match_quadrature(law_id):
    law, points = LAWS[law_id]
    for name, f, plain in unary_cases(points):
        exact = law.expect(f)
        assert exact == f.expectation(law), name
        assert exact == pytest.approx(law.expect(plain), abs=1e-8), name


def pair_by_quadrature(law, plain):
    """E plain(X, Y) for X, Y i.i.d. from the law, by iterated quad with the
    inner integral split at y = x, where |x - y| has its kink."""
    if isinstance(law, PointMassLaw):
        return law.pair_expect(plain)
    lo, hi = (law.a, law.b) if isinstance(law, UniformLaw) else (-np.inf, np.inf)

    def inner(x):
        return sum(integrate.quad(lambda y: plain(x, y) * law.pdf(y), a, b)[0] for a, b in ((lo, x), (x, hi)))

    return integrate.quad(lambda x: inner(x) * law.pdf(x), lo, hi)[0]


@pytest.mark.parametrize("pair_id", [p[0] for p in PAIRS])
@pytest.mark.parametrize("law_id", LAWS)
def test_pair_closed_forms_match_quadrature(law_id, pair_id):
    law, _ = LAWS[law_id]
    _, g, plain = next(p for p in PAIRS if p[0] == pair_id)
    exact = law.pair_expect(g)
    assert exact == g.expectation(law)
    assert exact == pytest.approx(pair_by_quadrature(law, plain), abs=1e-7)


@pytest.mark.parametrize(
    "law_id, exact", [("uniform", 1.0), ("gaussian-shifted", 3.0 / np.sqrt(np.pi))], ids=["uniform", "gaussian-shifted"]
)
def test_plain_abs_difference_meets_quadrature_tolerance(law_id, exact):
    # The kink of |x - y| on the diagonal must not cost the plain-callable
    # route its accuracy: E|X - Y| is (b - a)/3 and 2 sigma / sqrt(pi).
    law, _ = LAWS[law_id]
    assert law.pair_expect(lambda x, y: abs(x - y)) == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("law_id", ["uniform", "gaussian-shifted"])
def test_scalar_vector_section_and_diagonal_agree(law_id):
    _, points = LAWS[law_id]
    xs = np.array(points)
    for name, f, plain in unary_cases(points):
        assert np.array_equal(f.vec(xs), [plain(x) for x in xs]), name
        assert [f(x) for x in xs] == [plain(x) for x in xs], name
    for name, g, plain in PAIRS:
        for x in points:
            assert np.array_equal(g.vec(x, xs), [plain(x, y) for y in xs]), name
            assert [g.section(x)(y) for y in xs] == [plain(x, y) for y in xs], name
            assert [g.section(x)(y) for y in xs] == [plain(y, x) for y in xs], name
            assert g.diagonal(x) == plain(x, x), name


@pytest.mark.parametrize("pair_id", [p[0] for p in PAIRS])
@pytest.mark.parametrize("law_id", ["uniform", "gaussian-shifted"])
def test_dp_pair_predictive_named_equals_plain(law_id, pair_id):
    law, points = LAWS[law_id]
    _, g, plain = next(p for p in PAIRS if p[0] == pair_id)
    model = DirichletProcessModel(1.5, law)
    history = Sample(tuple(points) + (points[1],))
    named = predictive_pair_expectation(model, history, g)
    quad = predictive_pair_expectation(model, history, plain)
    assert named == pytest.approx(quad, abs=1e-7)
