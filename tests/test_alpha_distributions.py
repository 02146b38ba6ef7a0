"""Tests for failure-rate distribution families and their cost integrals."""

import math
import pickle

import numpy as np
import pytest
from scipy import stats
from scipy.special import hyp2f1, ndtr, ndtri

from scanloop.alpha_distributions import (
    Beta,
    EmpiricalHistogram,
    PointMass,
    TruncatedNormal,
    Uniform,
    _normal_cdf,
    _normal_quantile,
    expected_cost_ratio,
    mean_alpha,
    sample_alpha,
)
from scanloop.cost_model import PredictorProfile, cost_ratio_at
from scanloop.errors import QuadratureFailure, UndefinedRatio

from oracles import (
    mc_population_ratio,
    piecewise_constant_ratio,
    quad_population_ratio,
    sample_many,
    simpson_population_ratio,
    total_mass,
)

PROFILE = PredictorProfile(0.8, 0.8)
QUOTIENT = 0.1
# The default re-scan budget of expected_cost_ratio and of policy.max_rescans.
BUDGET = 50

HIST = EmpiricalHistogram.from_weights(
    edges=(0.1, 0.2, 0.3, 0.4, 0.5), weights=(5.0, 12.0, 8.0, 3.0, 2.0)
)


# ---------------------------------------------------------------------------
# construction and validation


def test_truncated_normal_validation():
    for mu in (40.0, -40.0):
        with pytest.raises(ValueError, match="no normal mass"):
            TruncatedNormal(mu, 0.01, 0.1, 0.3)


def test_histogram_validation():
    with pytest.raises(ValueError):
        EmpiricalHistogram(edges=(0.2, 0.1), masses=(0.5, 0.5))
    with pytest.raises(ValueError):
        EmpiricalHistogram(edges=(0.5, 1.0), masses=(0.5, 0.5))
    with pytest.raises(ValueError):
        EmpiricalHistogram(edges=(0.5,), masses=(0.9,))
    with pytest.raises(ValueError):
        EmpiricalHistogram(edges=(0.3, 0.5), masses=(1.5, -0.5))
    with pytest.raises(ValueError):
        EmpiricalHistogram.from_weights(edges=(0.3, 0.5), weights=(0.0, 0.0))


def test_histogram_from_weights_normalizes():
    h = EmpiricalHistogram.from_weights(edges=(0.2, 0.4), weights=(3.0, 1.0))
    assert h.masses == (0.75, 0.25)


def test_point_mass_has_no_density():
    with pytest.raises(TypeError):
        PointMass(0.2).pdf(0.2)


# ---------------------------------------------------------------------------
# densities


def test_pdf_zero_outside_support():
    assert Uniform(0.1, 0.3).pdf(0.05) == 0.0
    assert Uniform(0.1, 0.3).pdf(0.35) == 0.0
    assert TruncatedNormal(0.2, 0.1, 0.1, 0.3).pdf(0.4) == 0.0
    assert HIST.pdf(0.55) == 0.0
    assert HIST.pdf(-0.1) == 0.0
    assert Beta(2.0, 8.0).pdf(-0.2) == 0.0
    assert Beta(2.0, 8.0).pdf(1.0) == 0.0


def test_beta_pdf_matches_scipy():
    xs = np.linspace(0.01, 0.99, 23)
    ours = [Beta(2.0, 8.0).pdf(float(x)) for x in xs]
    ref = stats.beta.pdf(xs, 2.0, 8.0)
    np.testing.assert_allclose(ours, ref, rtol=1e-12)


def test_truncnorm_pdf_matches_scipy():
    mu, sigma, lo, hi = 0.2, 0.1, 0.05, 0.45
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    xs = np.linspace(lo, hi, 17)
    ours = [TruncatedNormal(mu, sigma, lo, hi).pdf(float(x)) for x in xs]
    ref = stats.truncnorm.pdf(xs, a, b, loc=mu, scale=sigma)
    np.testing.assert_allclose(ours, ref, rtol=1e-12)


def test_truncnorm_far_above_its_mean_matches_scipy():
    # lo is 6.5 sigma above mu: 1 - CDF(6.5) is 4e-11, so the difference of
    # the two CDFs near 1 would carry a relative error of about 5e-7.
    mu, sigma, lo, hi = -0.33, 0.072, 0.14, 0.36
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    dist = TruncatedNormal(mu, sigma, lo, hi)
    xs = np.linspace(lo, hi, 9)
    ours = [dist.pdf(float(x)) for x in xs]
    ref = stats.truncnorm.pdf(xs, a, b, loc=mu, scale=sigma)
    np.testing.assert_allclose(ours, ref, rtol=1e-13)
    ref = stats.truncnorm.mean(a, b, loc=mu, scale=sigma)
    assert mean_alpha(dist) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize(
    "dist",
    [
        Uniform(0.1, 0.3),
        Beta(2.0, 8.0),
        Beta(1.0, 3.0),
        Beta(400.0, 1600.0),
        TruncatedNormal(0.2, 0.1, 0.05, 0.45),
        HIST,
        PointMass(0.2),
    ],
    ids=lambda d: type(d).__name__,
)
def test_density_normalization(dist):
    assert total_mass(dist) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# mean_alpha


def test_mean_alpha_examples():
    assert mean_alpha(PointMass(0.2)) == 0.2
    assert mean_alpha(Beta(2.0, 8.0)) == pytest.approx(0.2, abs=1e-9)
    assert mean_alpha(Uniform(0.1, 0.3)) == pytest.approx(0.2, abs=1e-12)


def test_mean_alpha_truncnorm_matches_scipy():
    mu, sigma, lo, hi = 0.25, 0.15, 0.05, 0.6
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    ref = stats.truncnorm.mean(a, b, loc=mu, scale=sigma)
    assert mean_alpha(TruncatedNormal(mu, sigma, lo, hi)) == pytest.approx(ref, abs=1e-9)


def test_mean_alpha_histogram_is_midpoint_average():
    lows = (0.0,) + HIST.edges[:-1]
    ref = sum(m * (lo + hi) / 2.0 for m, lo, hi in zip(HIST.masses, lows, HIST.edges))
    assert mean_alpha(HIST) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize(
    "dist",
    [
        Uniform(0.1, 0.3),
        Beta(2.0, 8.0),
        Beta(2.0, 1.5),
        Beta(1.0, 1.2),
        TruncatedNormal(0.25, 0.15, 0.05, 0.6),
        TruncatedNormal(-0.3, 0.2, 0.1, 0.4),
        HIST,
    ],
    ids=repr,
)
def test_closed_form_mean_matches_quad(dist):
    from scipy.integrate import quad

    lo, hi = dist.support
    cuts = sorted({lo, hi, *dist.breakpoints()})
    ref = sum(
        quad(lambda a: a * dist.pdf(a), x, y, epsabs=0.0, epsrel=1e-13)[0]
        for x, y in zip(cuts, cuts[1:])
    )
    assert mean_alpha(dist) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("b", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("a", [1.0, 2.0])
def test_beta_with_b_below_two_integrates(a, b):
    # (1 - alpha)^(b - 1) has an unbounded slope at 1; the Jacobi weight takes it.
    dist = Beta(a, b)
    assert mean_alpha(dist) == a / (a + b)
    for p, r in ((0.8, 0.8), (0.9, 0.5)):
        got = expected_cost_ratio(dist, PredictorProfile(p, r), QUOTIENT)
        ref = quad_population_ratio(dist, p, r, QUOTIENT, BUDGET)
        assert got == pytest.approx(ref, rel=1e-12)


class UnsplitHistogram(EmpiricalHistogram):
    """A histogram that hides its bin edges from the integrator."""

    def breakpoints(self) -> tuple[float, ...]:
        return ()


def test_rules_that_disagree_raise_quadrature_failure():
    # Four jumps of the density inside the piece [0, 0.417] (the first cut
    # toward alpha_max = 0.833): Gauss rules converge slowly across a jump,
    # and the 32-node rule says so.
    dist = UnsplitHistogram(HIST.edges, HIST.masses)
    with pytest.raises(QuadratureFailure, match=r"UnsplitHistogram: .* the piece \[0\.0, 0\.41"):
        expected_cost_ratio(dist, PROFILE, QUOTIENT)


def test_rules_that_miss_the_density_raise_quadrature_failure():
    # sd = 3.5e-151 is far below the spacing of doubles at the mode 0.5, so
    # every cut lands on 0.5 and no node sees the density.
    with pytest.raises(QuadratureFailure, match="Beta: .* probability mass of 0$"):
        expected_cost_ratio(Beta(1e300, 1e300), PROFILE, QUOTIENT)


@pytest.mark.parametrize("budget", [50, 10_000])
@pytest.mark.parametrize("precision, recall", [(0.8, 0.8), (0.2, 1.0), (0.3, 0.999)])
@pytest.mark.parametrize(
    "dist",
    [
        Beta(400.0, 1600.0),  # sd 0.009 about 0.2; 1 / B(a, b) = e^1003 overflows
        Beta(2.72, 1990.0),  # mode 9e-4, a tail of e^(-1990 alpha)
        Beta(6.33, 1.005),  # mode 0.999, within sd of 1
        Beta(2000.0, 8000.0),  # betaln off by 2e-12; the rules' mass takes it out
        TruncatedNormal(0.93, 0.0041, 0.49, 0.83),  # peaks at hi, falls off on 1.7e-4
    ],
    ids=repr,
)
def test_concentrated_densities_match_quad_oracle(dist, precision, recall, budget):
    got = expected_cost_ratio(dist, PredictorProfile(precision, recall), QUOTIENT, budget)
    ref = quad_population_ratio(dist, precision, recall, QUOTIENT, budget)
    assert got == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# expected_cost_ratio


def test_point_mass_collapses_to_pointwise_ratio():
    got = expected_cost_ratio(PointMass(0.3), PROFILE, QUOTIENT)
    ref = cost_ratio_at(0.3, PROFILE, QUOTIENT)
    assert got == pytest.approx(ref, abs=1e-10)
    assert 1.0 - got == pytest.approx(0.5714285714285714, abs=5e-4)


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.45, 0.7])
def test_point_mass_collapse_grid(alpha):
    got = expected_cost_ratio(PointMass(alpha), PROFILE, QUOTIENT)
    ref = cost_ratio_at(alpha, PROFILE, QUOTIENT)
    assert got == pytest.approx(ref, abs=1e-10)


def test_uniform_ratio_matches_closed_form_and_simpson():
    # The unbounded closed form: at p = r = 0.8 the flag probability is alpha
    # <= 0.3, so the budget of 50 re-scans moves the ratio by under 1e-25.
    got = expected_cost_ratio(Uniform(0.1, 0.3), PROFILE, QUOTIENT)
    exact = piecewise_constant_ratio([(0.1, 0.3, 5.0)], 0.8, 0.8, QUOTIENT)
    assert got == pytest.approx(exact, abs=1e-10)

    def density(a: np.ndarray) -> np.ndarray:
        return np.where((a >= 0.1) & (a <= 0.3), 5.0, 0.0)

    simpson = simpson_population_ratio(
        density, 0.1, 0.3, 0.8, 0.8, QUOTIENT, BUDGET, panels=10_000
    )
    assert got == pytest.approx(simpson, abs=1e-8)


def test_histogram_ratio_matches_closed_form():
    # As above: the flag probability is at most 0.5, and 0.5^50 < 1e-15.
    got = expected_cost_ratio(HIST, PROFILE, QUOTIENT)
    lows = (0.0,) + HIST.edges[:-1]
    bins = [
        (lo, hi, m / (hi - lo)) for m, lo, hi in zip(HIST.masses, lows, HIST.edges)
    ]
    exact = piecewise_constant_ratio(bins, 0.8, 0.8, QUOTIENT)
    assert got == pytest.approx(exact, abs=1e-10)


def test_beta_ratio_matches_simpson_oracle():
    got = expected_cost_ratio(Beta(2.0, 8.0), PROFILE, QUOTIENT)

    def density(a: np.ndarray) -> np.ndarray:
        return stats.beta.pdf(a, 2.0, 8.0)

    simpson = simpson_population_ratio(
        density, 0.0, 1.0, 0.8, 0.8, QUOTIENT, BUDGET, panels=100_000
    )
    assert got == pytest.approx(simpson, abs=1e-8)


@pytest.mark.parametrize(
    "dist, sampler",
    [
        (Beta(2.0, 8.0), lambda rng, n: rng.beta(2.0, 8.0, n)),
        (Uniform(0.1, 0.3), lambda rng, n: 0.1 + 0.2 * rng.random(n)),
        (HIST, lambda rng, n: sample_many(HIST, rng, n)),
    ],
    ids=["beta", "uniform", "histogram"],
)
def test_quadrature_agrees_with_monte_carlo(dist, sampler):
    rng = np.random.default_rng(20240817)
    alphas = np.asarray(sampler(rng, 1_000_000), dtype=float)
    mc, se = mc_population_ratio(alphas, 0.8, 0.8, QUOTIENT, BUDGET)
    got = expected_cost_ratio(dist, PROFILE, QUOTIENT)
    assert abs(got - mc) < 3.0 * se


def test_beta_ratio_matches_ten_million_sample_mc():
    rng = np.random.default_rng(7)
    alphas = rng.beta(2.0, 8.0, 10_000_000)
    mc, se = mc_population_ratio(alphas, 0.8, 0.8, QUOTIENT, BUDGET)
    got = expected_cost_ratio(Beta(2.0, 8.0), PROFILE, QUOTIENT)
    assert abs(got - mc) < 3.0 * se


def test_shifted_point_masses_give_larger_ratio():
    ratios = [
        expected_cost_ratio(PointMass(a), PROFILE, QUOTIENT)
        for a in (0.1, 0.2, 0.3, 0.5, 0.7)
    ]
    assert all(lo < hi for lo, hi in zip(ratios, ratios[1:]))


def test_support_past_alpha_max_saturates():
    # alpha_max = 0.5 inside the support: above it every scan is flagged
    # (f = 1 at r = 1), so those subjects run the whole budget.
    profile = PredictorProfile(0.5, 1.0)
    for budget in (0, 1, 50):
        got = expected_cost_ratio(Uniform(0.4, 0.9), profile, 0.1, budget)
        ref = quad_population_ratio(Uniform(0.4, 0.9), 0.5, 1.0, 0.1, budget)
        assert got == pytest.approx(ref, rel=1e-12)


def test_support_ending_at_alpha_max_stays_finite():
    # alpha_max = 0.3 is the uniform upper bound, where the density is positive
    # and the unbounded form diverges.
    got = expected_cost_ratio(Uniform(0.1, 0.3), PredictorProfile(0.3, 1.0), 0.1)
    assert got == pytest.approx(
        quad_population_ratio(Uniform(0.1, 0.3), 0.3, 1.0, 0.1, BUDGET), rel=1e-12
    )


@pytest.mark.parametrize("budget", [100, 300, 1_000, 10_000])
@pytest.mark.parametrize("hi", [0.3, 0.299])
def test_support_ending_near_alpha_max_under_a_large_budget(hi, budget):
    # At r = 1, f = alpha / 0.3 reaches 1 at alpha_max = 0.3, at or 0.001
    # past the support's end, and S_K turns over within 0.3 / K of it.
    got = expected_cost_ratio(Uniform(0.1, hi), PredictorProfile(0.3, 1.0), 0.1, budget)
    ref = quad_population_ratio(Uniform(0.1, hi), 0.3, 1.0, 0.1, budget)
    assert got == pytest.approx(ref, rel=1e-12)


def test_point_mass_at_alpha_max_runs_the_whole_budget():
    # f = 1: 50 re-scans at 0.1 each, then a correction with probability 0.5.
    got = expected_cost_ratio(PointMass(0.5), PredictorProfile(0.5, 1.0), 0.1)
    assert got == pytest.approx((50 * 0.1 + 0.5) / 0.5, rel=1e-14)


def test_point_mass_at_zero_has_no_ratio():
    with pytest.raises(UndefinedRatio):
        expected_cost_ratio(PointMass(0.0), PROFILE, QUOTIENT)


ORACLE_FAMILIES = [
    PointMass(0.3),
    Uniform(0.05, 0.4),
    Beta(2.0, 8.0),
    Beta(2.0, 1.5),
    Beta(1.0, 1.2),
    TruncatedNormal(0.2, 0.1, 0.0, 0.6),
    HIST,
]


@pytest.mark.parametrize("budget", [0, 1, 50, 10_000])
@pytest.mark.parametrize("precision, recall", [(0.8, 0.8), (0.9, 0.5), (1.0, 1.0)])
@pytest.mark.parametrize("dist", ORACLE_FAMILIES, ids=repr)
def test_ratio_matches_quad_oracle(dist, precision, recall, budget):
    # At p = r = 1, f = alpha, so under a Beta with b < 2 and K = 10^4 the
    # cost S_K = (1 - alpha^K) / (1 - alpha) rises to K within 1e-4 of
    # alpha = 1, where (1 - alpha)^(b - 1) still carries mass: the pieces
    # that halve toward alpha_max = 1 resolve it.
    got = expected_cost_ratio(dist, PredictorProfile(precision, recall), QUOTIENT, budget)
    ref = quad_population_ratio(dist, precision, recall, QUOTIENT, budget)
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("recall, expected", [(0.5, 0.84325606379736), (0.9, 0.6008651600740066)])
def test_beta_ratio_matches_hypergeometric_form(recall, expected):
    # At p = 1 no intact scan is flagged (q = 0) and f = alpha*r <= r, so a
    # budget of 10^4 is the unbounded loop: E[alpha (1 - r + r c) / (1 - alpha r)]
    # / E[alpha] = (1 - r + r c) 2F1(1, a + 1; a + b + 1; r), by Euler's integral.
    a, b = 2.0, 1.5
    exact = (1.0 - recall + recall * QUOTIENT) * hyp2f1(1.0, a + 1.0, a + b + 1.0, recall)
    assert exact == pytest.approx(expected, rel=1e-14)
    got = expected_cost_ratio(Beta(a, b), PredictorProfile(1.0, recall), QUOTIENT, 10_000)
    assert got == pytest.approx(exact, rel=1e-13)


def test_no_gauss_node_on_alpha_one():
    # alpha_max = p = 1 - 2^-53 cuts a piece one ulp wide below 1, on which
    # half of the 64 nodes would round to 1; it joins its neighbour instead.
    got = expected_cost_ratio(Beta(1.0, 2.0), PredictorProfile(1.0 - 2.0**-53, 1.0), 0.1)
    unsaturated = expected_cost_ratio(Beta(1.0, 2.0), PredictorProfile(1.0, 1.0), 0.1)
    assert got == pytest.approx(unsaturated, rel=1e-12)


def test_beta_allowed_with_pole_at_vanishing_edge():
    # precision == recall puts the pole at 1.0, the Beta support edge, where
    # the density vanishes; the integral is finite and must be computed.
    got = expected_cost_ratio(Beta(2.0, 8.0), PredictorProfile(0.8, 0.8), 0.1)
    assert 0.0 < got < 1.0


def test_zero_recall_population_ratio_is_one():
    got = expected_cost_ratio(Uniform(0.1, 0.3), PredictorProfile(0.8, 0.0), 0.1)
    assert got == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# sampling


def test_point_mass_sampling_is_constant():
    rng = np.random.default_rng(0)
    draws = {sample_alpha(PointMass(0.2), rng) for _ in range(32)}
    assert draws == {0.2}


def test_uniform_sample_mean_clt():
    rng = np.random.default_rng(11)
    draws = sample_many(Uniform(0.1, 0.3), rng, 1_000_000)
    bound = 3.0 * (0.2 / math.sqrt(12.0)) / 1000.0
    assert abs(draws.mean() - 0.2) < bound


def test_beta_sample_mean_clt():
    rng = np.random.default_rng(12)
    draws = sample_many(Beta(2.0, 8.0), rng, 1_000_000)
    std = math.sqrt(2.0 * 8.0 / ((10.0) ** 2 * 11.0))
    assert abs(draws.mean() - 0.2) < 3.0 * std / 1000.0


def test_truncnorm_sample_mean_and_support():
    mu, sigma, lo, hi = 0.25, 0.15, 0.05, 0.6
    rng = np.random.default_rng(13)
    draws = sample_many(TruncatedNormal(mu, sigma, lo, hi), rng, 500_000)
    assert draws.min() >= lo and draws.max() <= hi
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    ref_mean = stats.truncnorm.mean(a, b, loc=mu, scale=sigma)
    ref_std = stats.truncnorm.std(a, b, loc=mu, scale=sigma)
    assert abs(draws.mean() - ref_mean) < 3.0 * ref_std / math.sqrt(500_000)


@pytest.mark.parametrize("lo", [0.07, 0.083, 0.1])
def test_truncnorm_far_upper_tail_draws_stay_near_lo(lo):
    # lo is 7 to 10 sigma above mu, where the upper-tail CDF rounds towards
    # 1; an inverse-CDF draw from it landed on hi, and 8.3 sigma had no mass.
    mu, sigma, hi, n = 0.0, 0.01, 0.5, 100_000
    dist = TruncatedNormal(mu, sigma, lo, hi)
    rng = np.random.default_rng(1)
    draws = sample_many(dist, rng, n)
    scalar = np.array([dist.sample(rng) for _ in range(10_000)])
    # the excess over lo is about exponential with mean sigma^2 / lo
    for x in (draws, scalar):
        assert x.min() >= lo and x.max() < lo + 3.0 * sigma
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    ref_mean = stats.truncnorm.mean(a, b, loc=mu, scale=sigma)
    ref_std = stats.truncnorm.std(a, b, loc=mu, scale=sigma)
    assert abs(draws.mean() - ref_mean) < 3.0 * ref_std / math.sqrt(n)


def test_histogram_sample_bin_frequencies():
    rng = np.random.default_rng(14)
    n = 400_000
    draws = sample_many(HIST, rng, n)
    assert draws.min() >= 0.0 and draws.max() <= HIST.edges[-1]
    lows = (0.0,) + HIST.edges[:-1]
    for m, lo, hi in zip(HIST.masses, lows, HIST.edges):
        freq = np.mean((draws > lo) & (draws <= hi))
        se = math.sqrt(m * (1.0 - m) / n)
        assert abs(freq - m) < 3.0 * se + 1e-9


@pytest.mark.parametrize(
    "dist",
    [
        HIST,
        EmpiricalHistogram((0.1, 0.3, 0.5), (0.5, 0.5, 0.0)),
        EmpiricalHistogram((0.1, 0.3), (0.0, 1.0)),
        EmpiricalHistogram((0.4,), (1.0,)),
    ],
    ids=["five_bins", "empty_last_bin", "empty_first_bin", "one_bin"],
)
def test_histogram_sample_equals_sample_many_draw_for_draw(dist):
    scalar_rng, vector_rng = np.random.default_rng(15), np.random.default_rng(15)
    scalar = np.array([dist.sample(scalar_rng) for _ in range(20_000)])
    assert scalar.tobytes() == sample_many(dist, vector_rng, 20_000).tobytes()


class _Given:
    """Stands in for a Generator whose scalar ``random()`` draws are ``u``."""

    def __init__(self, u):
        self.random = iter(u.tolist()).__next__


# (distribution, whether some draw of the test below is clamped to lo, to hi)
INVERSION_CASES = {
    "uniform": (Uniform(0.5, 0.95), False, False),
    # lo = 0 sits 2 sigma below mu
    "truncnorm": (TruncatedNormal(0.2, 0.1, 0.0, 0.6), False, False),
    # the support 12.5 sigma above mu: draws from the mirrored far tail, and
    # those at u near 0 round below lo
    "truncnorm_far": (TruncatedNormal(0.05, 0.02, 0.3, 0.7), True, False),
    # the normal CDF at lo underflows to 0: u = 0 maps to -inf
    "truncnorm_cdf_lo_0": (TruncatedNormal(0.5, 0.01, 0.0, 0.52), True, False),
    # the support below mu: draws at u near 1 round past hi
    "truncnorm_below_mu": (TruncatedNormal(0.849, 0.047, 0.432, 0.475), False, True),
    # the normal CDF at hi rounds to 1: u = 1 - 2^-53 maps to p = 1 and +inf
    "truncnorm_cdf_hi_1": (TruncatedNormal(0.3, 0.02, 0.3, 0.6), False, True),
    "hist": (HIST, False, False),
    "hist_empty_bin": (EmpiricalHistogram((0.1, 0.3, 0.5), (0.5, 0.5, 0.0)), False, False),
}


class _Given:
    """Stands in for a Generator whose scalar ``random()`` draws are ``u``."""

    def __init__(self, u):
        self.random = iter(u.tolist()).__next__


@pytest.mark.parametrize("name", INVERSION_CASES)
def test_array_inverse_cdf_equals_scalar_sample_bit_for_bit(name):
    # A key block's worth of uniforms, the ends of [0, 1) and their
    # neighbours, and the histogram's cumulative masses: each array draw
    # equals the draw the scalar ``sample`` makes from the same uniform.
    dist, clamps_lo, clamps_hi = INVERSION_CASES[name]
    ends = [0.0, 5e-324, 1e-323, 1.0 - 2.0**-51, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    u = np.concatenate(
        [np.random.default_rng(21).random(4096), np.array(ends), np.cumsum(HIST.masses)[:-1]]
    )
    got = dist.inverse_cdf(u)
    scalar = _Given(u)
    want = np.array([dist.sample(scalar) for _ in range(len(u))])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    lo, hi = dist.support
    assert lo <= got.min() and got.max() <= hi
    if isinstance(dist, TruncatedNormal):
        unclamped = dist.mu + dist.sigma * dist.sign * _normal_quantile(
            dist.cdf_lo + (dist.cdf_hi - dist.cdf_lo) * u
        )
        assert ((unclamped < lo) & (got == lo)).any() == clamps_lo
        assert ((unclamped > hi) & (got == hi)).any() == clamps_hi


def test_scalar_sampling_is_deterministic_per_seed():
    for dist in [Uniform(0.1, 0.3), Beta(2.0, 8.0), TruncatedNormal(0.2, 0.1, 0.0, 0.5), HIST]:
        a = [sample_alpha(dist, np.random.default_rng(99)) for _ in range(1)]
        b = [sample_alpha(dist, np.random.default_rng(99)) for _ in range(1)]
        assert a == b


def test_sample_alpha_returns_valid_failure_rate():
    rng = np.random.default_rng(15)
    for dist in [Uniform(0.1, 0.3), Beta(2.0, 8.0), HIST]:
        for _ in range(100):
            fr = sample_alpha(dist, rng)
            assert type(fr) is float and 0.0 <= fr < 1.0


def test_truncnorm_scalar_sample_equals_clipped_inverse_cdf():
    mu, sigma, lo, hi = 0.2, 0.1, 0.0, 0.6
    dist = TruncatedNormal(mu, sigma, lo, hi)
    cdf_lo, cdf_hi = float(ndtr((lo - mu) / sigma)), float(ndtr((hi - mu) / sigma))
    assert dist.cdf_lo == pytest.approx(cdf_lo, rel=CDF_RTOL)
    assert dist.cdf_hi == pytest.approx(cdf_hi, rel=CDF_RTOL)
    # Measured: the draws are within 1.2e-16 of SciPy's, one double's
    # spacing at 0.6.
    ours, ref = np.random.default_rng(16), np.random.default_rng(16)
    for _ in range(2000):
        u = dist.cdf_lo + (dist.cdf_hi - dist.cdf_lo) * ref.random()
        want = float(np.clip(mu + sigma * ndtri(u), lo, hi))
        assert dist.sample(ours) == pytest.approx(want, rel=0.0, abs=2.0**-51)


def _ulps(got, want):
    """How many doubles apart two arrays of finite doubles of one sign are."""
    return np.abs(got.view(np.int64) - want.view(np.int64))


def _around(x, steps=3):
    """x and its neighbours up to ``steps`` doubles either side."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[1:] + above


def test_normal_quantile_within_6_ulps_of_scipy():
    rng = np.random.default_rng(17)
    u = [
        rng.random(40_000),
        # decades down through the subnormals, and the upper tail up to 1 - 1e-16
        np.concatenate([10.0 ** (d + rng.random(100)) for d in range(-324, 0)]),
        1.0 - 10.0 ** -rng.uniform(0.1, 16.0, 20_000),
        # Cephes's branch edges exp(-2), 1 - exp(-2) and exp(-32), and AS 241's
        # 0.5 ± 0.425 and exp(-25)
        np.concatenate(
            [_around(e) for e in (math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 0.075, 0.925,
                                  math.exp(-25))]
        ),
        np.array([5e-324, 0.5, math.nextafter(1.0, 0.0)]),
    ]
    u = np.concatenate(u)
    u = u[u > 0.0]  # decades below 5e-324 underflow to 0, checked below
    got, want = _normal_quantile(u), ndtri(u)
    assert np.isfinite(want).all()
    assert _ulps(got, want).max() <= 6
    assert _normal_quantile(np.array([0.0, -0.0, 1.0])).tolist() == [-math.inf, -math.inf, math.inf]


# Relative error bounds of the normal CDF against SciPy's, measured on the
# inputs below: up to 54 ulps on [-8, 8], and up to about 1 750 ulps further
# down the lower tail, where erfc's exp(-x²) and Cephes's both lose digits.
CDF_RTOL = 64 * 2.0**-52
CDF_TAIL_RTOL = 2048 * 2.0**-52
MAXLOG = math.log(np.finfo(np.float64).max)


def test_normal_cdf_within_relative_bounds_of_scipy():
    rng = np.random.default_rng(18)
    x = [
        rng.uniform(0.0, 40.0, 20_000),
        rng.standard_normal(20_000),
        10.0 ** rng.uniform(-300.0, math.log10(40.0), 20_000),
        # beyond 38, where the tails are 0 and 1
        rng.uniform(38.0, 1e6, 10_000),
        np.array([1e300, math.inf, 0.0, 5e-324]),
        # |x| / sqrt(2) at 1 and 8, Cephes's edges, and where its exp(-x²/2) underflows
        np.concatenate([_around(e * math.sqrt(2.0)) for e in (1.0, 8.0, math.sqrt(MAXLOG))]),
    ]
    x = np.concatenate(x)
    x = np.concatenate([x, -x])  # both tails
    got, want = np.array([_normal_cdf(v) for v in x.tolist()]), ndtr(x)
    # Below about -37.5 both CDFs are subnormal or 0, and only close in absolute terms.
    tiny = np.finfo(np.float64).tiny
    rtol = np.where(np.abs(x) <= 8.0, CDF_RTOL, CDF_TAIL_RTOL)
    assert (np.abs(got - want) <= rtol * want + tiny).all()


def test_truncnorm_derived_bounds_stay_out_of_identity():
    dist = TruncatedNormal(0.2, 0.1, 0.0, 0.6)
    assert repr(dist) == "TruncatedNormal(mu=0.2, sigma=0.1, lo=0.0, hi=0.6)"
    copy = pickle.loads(pickle.dumps(dist))
    assert copy == dist and hash(copy) == hash(dist)
    assert (copy.cdf_lo, copy.cdf_hi) == (dist.cdf_lo, dist.cdf_hi)
