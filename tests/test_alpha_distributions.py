"""Tests for failure-rate distribution families and their cost integrals."""

import math
import pickle

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

import scanloop.alpha_distributions as ad
from scanloop.alpha_distributions import (
    Beta,
    EmpiricalHistogram,
    PointMass,
    TruncatedNormal,
    Uniform,
    expected_cost_ratio,
    mean_alpha,
    sample_alpha,
)
from scanloop.cost_model import FailureRate, PredictorProfile, cost_ratio_at
from scanloop.errors import QuadratureFailure, SupportViolation

from oracles import (
    mc_population_ratio,
    piecewise_constant_ratio,
    simpson_population_ratio,
    total_mass,
)

PROFILE = PredictorProfile(0.8, 0.8)
QUOTIENT = 0.1

HIST = EmpiricalHistogram.from_weights(
    edges=(0.1, 0.2, 0.3, 0.4, 0.5), weights=(5.0, 12.0, 8.0, 3.0, 2.0)
)


# ---------------------------------------------------------------------------
# construction and validation


def test_point_mass_validation():
    with pytest.raises(ValueError):
        PointMass(1.0)
    with pytest.raises(ValueError):
        PointMass(-0.1)
    assert PointMass(0.0).support == (0.0, 0.0)


def test_uniform_validation():
    with pytest.raises(ValueError):
        Uniform(0.3, 0.2)
    with pytest.raises(ValueError):
        Uniform(0.1, 1.0)
    with pytest.raises(ValueError):
        Uniform(-0.1, 0.5)


def test_beta_validation():
    with pytest.raises(ValueError):
        Beta(0.5, 8.0)
    with pytest.raises(ValueError):
        Beta(2.0, 1.0)
    assert Beta(1.0, 1.5).support == (0.0, 1.0)


def test_truncated_normal_validation():
    with pytest.raises(ValueError):
        TruncatedNormal(0.2, 0.0, 0.1, 0.3)
    with pytest.raises(ValueError):
        TruncatedNormal(0.2, 0.1, 0.3, 0.1)
    with pytest.raises(ValueError):
        TruncatedNormal(0.2, 0.1, 0.0, 1.0)
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


@pytest.mark.parametrize(
    "dist",
    [
        Uniform(0.1, 0.3),
        Beta(2.0, 8.0),
        Beta(1.0, 3.0),
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


def test_quadrature_failure_when_budget_too_small(monkeypatch):
    monkeypatch.setattr(ad, "QUADRATURE_ATOL", 1e-300)
    monkeypatch.setattr(ad, "QUADRATURE_RTOL", 1e-300)
    monkeypatch.setattr(ad, "QUADRATURE_MAX_LEVELS", 1)
    with pytest.raises(QuadratureFailure):
        mean_alpha(Beta(2.0, 8.0))


# ---------------------------------------------------------------------------
# expected_cost_ratio


def test_point_mass_collapses_to_pointwise_ratio():
    got = expected_cost_ratio(PointMass(0.3), PROFILE, QUOTIENT)
    ref = cost_ratio_at(FailureRate(0.3), PROFILE, QUOTIENT)
    assert got.ratio == pytest.approx(ref.ratio, abs=1e-10)
    assert got.reduction == pytest.approx(0.5714285714285714, abs=5e-4)


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.45, 0.7])
def test_point_mass_collapse_grid(alpha):
    got = expected_cost_ratio(PointMass(alpha), PROFILE, QUOTIENT).ratio
    ref = cost_ratio_at(FailureRate(alpha), PROFILE, QUOTIENT).ratio
    assert got == pytest.approx(ref, abs=1e-10)


def test_uniform_ratio_matches_closed_form_and_simpson():
    got = expected_cost_ratio(Uniform(0.1, 0.3), PROFILE, QUOTIENT).ratio
    exact = piecewise_constant_ratio([(0.1, 0.3, 5.0)], 0.8, 0.8, QUOTIENT)
    assert got == pytest.approx(exact, abs=1e-10)

    def density(a: np.ndarray) -> np.ndarray:
        return np.where((a >= 0.1) & (a <= 0.3), 5.0, 0.0)

    simpson = simpson_population_ratio(density, 0.1, 0.3, 0.8, 0.8, QUOTIENT, panels=10_000)
    assert got == pytest.approx(simpson, abs=1e-8)


def test_histogram_ratio_matches_closed_form():
    got = expected_cost_ratio(HIST, PROFILE, QUOTIENT).ratio
    lows = (0.0,) + HIST.edges[:-1]
    bins = [
        (lo, hi, m / (hi - lo)) for m, lo, hi in zip(HIST.masses, lows, HIST.edges)
    ]
    exact = piecewise_constant_ratio(bins, 0.8, 0.8, QUOTIENT)
    assert got == pytest.approx(exact, abs=1e-10)


def test_beta_ratio_matches_simpson_oracle():
    got = expected_cost_ratio(Beta(2.0, 8.0), PROFILE, QUOTIENT).ratio

    def density(a: np.ndarray) -> np.ndarray:
        return stats.beta.pdf(a, 2.0, 8.0)

    simpson = simpson_population_ratio(density, 0.0, 1.0, 0.8, 0.8, QUOTIENT, panels=100_000)
    assert got == pytest.approx(simpson, abs=1e-8)


@pytest.mark.parametrize(
    "dist, sampler",
    [
        (Beta(2.0, 8.0), lambda rng, n: rng.beta(2.0, 8.0, n)),
        (Uniform(0.1, 0.3), lambda rng, n: 0.1 + 0.2 * rng.random(n)),
        (HIST, lambda rng, n: HIST.sample_many(rng, n)),
    ],
    ids=["beta", "uniform", "histogram"],
)
def test_quadrature_agrees_with_monte_carlo(dist, sampler):
    rng = np.random.default_rng(20240817)
    alphas = np.asarray(sampler(rng, 1_000_000), dtype=float)
    mc, se = mc_population_ratio(alphas, 0.8, 0.8, QUOTIENT)
    got = expected_cost_ratio(dist, PROFILE, QUOTIENT).ratio
    assert abs(got - mc) < 3.0 * se


def test_beta_ratio_matches_ten_million_sample_mc():
    rng = np.random.default_rng(7)
    alphas = rng.beta(2.0, 8.0, 10_000_000)
    mc, se = mc_population_ratio(alphas, 0.8, 0.8, QUOTIENT)
    got = expected_cost_ratio(Beta(2.0, 8.0), PROFILE, QUOTIENT).ratio
    assert abs(got - mc) < 3.0 * se


def test_shifted_point_masses_give_larger_ratio():
    ratios = [
        expected_cost_ratio(PointMass(a), PROFILE, QUOTIENT).ratio
        for a in (0.1, 0.2, 0.3, 0.5, 0.7)
    ]
    assert all(lo < hi for lo, hi in zip(ratios, ratios[1:]))


def test_support_violation_pole_inside_support():
    with pytest.raises(SupportViolation):
        expected_cost_ratio(Uniform(0.4, 0.9), PredictorProfile(0.5, 1.0), 0.1)


def test_support_violation_pole_at_edge_with_mass():
    # Pole exactly at the uniform upper bound, where the density is positive.
    with pytest.raises(SupportViolation):
        expected_cost_ratio(Uniform(0.1, 0.3), PredictorProfile(0.3, 1.0), 0.1)


def test_support_violation_point_mass_at_pole():
    with pytest.raises(SupportViolation):
        expected_cost_ratio(PointMass(0.5), PredictorProfile(0.5, 1.0), 0.1)


def test_beta_allowed_with_pole_at_vanishing_edge():
    # precision == recall puts the pole at 1.0, the Beta support edge, where
    # the density vanishes; the integral is finite and must be computed.
    got = expected_cost_ratio(Beta(2.0, 8.0), PredictorProfile(0.8, 0.8), 0.1)
    assert 0.0 < got.ratio < 1.0


def test_zero_recall_population_ratio_is_one():
    got = expected_cost_ratio(Uniform(0.1, 0.3), PredictorProfile(0.8, 0.0), 0.1)
    assert got.ratio == pytest.approx(1.0, abs=1e-10)


def test_expected_cost_ratio_rejects_negative_quotient():
    with pytest.raises(ValueError):
        expected_cost_ratio(Uniform(0.1, 0.3), PROFILE, -0.2)


# ---------------------------------------------------------------------------
# sampling


def test_point_mass_sampling_is_constant():
    rng = np.random.default_rng(0)
    draws = {sample_alpha(PointMass(0.2), rng).alpha for _ in range(32)}
    assert draws == {0.2}


def test_uniform_sample_mean_clt():
    rng = np.random.default_rng(11)
    draws = Uniform(0.1, 0.3).sample_many(rng, 1_000_000)
    bound = 3.0 * (0.2 / math.sqrt(12.0)) / 1000.0
    assert abs(draws.mean() - 0.2) < bound


def test_beta_sample_mean_clt():
    rng = np.random.default_rng(12)
    draws = Beta(2.0, 8.0).sample_many(rng, 1_000_000)
    std = math.sqrt(2.0 * 8.0 / ((10.0) ** 2 * 11.0))
    assert abs(draws.mean() - 0.2) < 3.0 * std / 1000.0


def test_truncnorm_sample_mean_and_support():
    mu, sigma, lo, hi = 0.25, 0.15, 0.05, 0.6
    rng = np.random.default_rng(13)
    draws = TruncatedNormal(mu, sigma, lo, hi).sample_many(rng, 500_000)
    assert draws.min() >= lo and draws.max() <= hi
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    ref_mean = stats.truncnorm.mean(a, b, loc=mu, scale=sigma)
    ref_std = stats.truncnorm.std(a, b, loc=mu, scale=sigma)
    assert abs(draws.mean() - ref_mean) < 3.0 * ref_std / math.sqrt(500_000)


def test_histogram_sample_bin_frequencies():
    rng = np.random.default_rng(14)
    n = 400_000
    draws = HIST.sample_many(rng, n)
    assert draws.min() >= 0.0 and draws.max() <= HIST.edges[-1]
    lows = (0.0,) + HIST.edges[:-1]
    for m, lo, hi in zip(HIST.masses, lows, HIST.edges):
        freq = np.mean((draws > lo) & (draws <= hi))
        se = math.sqrt(m * (1.0 - m) / n)
        assert abs(freq - m) < 3.0 * se + 1e-9


def test_scalar_sampling_is_deterministic_per_seed():
    for dist in [Uniform(0.1, 0.3), Beta(2.0, 8.0), TruncatedNormal(0.2, 0.1, 0.0, 0.5), HIST]:
        a = [sample_alpha(dist, np.random.default_rng(99)).alpha for _ in range(1)]
        b = [sample_alpha(dist, np.random.default_rng(99)).alpha for _ in range(1)]
        assert a == b


def test_sample_alpha_returns_valid_failure_rate():
    rng = np.random.default_rng(15)
    for dist in [Uniform(0.1, 0.3), Beta(2.0, 8.0), HIST]:
        for _ in range(100):
            fr = sample_alpha(dist, rng)
            assert 0.0 <= fr.alpha < 1.0


def test_truncnorm_scalar_sample_equals_clipped_inverse_cdf():
    mu, sigma, lo, hi = 0.2, 0.1, 0.0, 0.6
    dist = TruncatedNormal(mu, sigma, lo, hi)
    cdf_lo, cdf_hi = float(ndtr((lo - mu) / sigma)), float(ndtr((hi - mu) / sigma))
    assert (dist.cdf_lo, dist.cdf_hi) == (cdf_lo, cdf_hi)
    ours, ref = np.random.default_rng(16), np.random.default_rng(16)
    for _ in range(2000):
        u = cdf_lo + (cdf_hi - cdf_lo) * ref.random()
        assert dist.sample(ours) == float(np.clip(mu + sigma * ndtri(u), lo, hi))


def test_truncnorm_derived_bounds_stay_out_of_identity():
    dist = TruncatedNormal(0.2, 0.1, 0.0, 0.6)
    assert repr(dist) == "TruncatedNormal(mu=0.2, sigma=0.1, lo=0.0, hi=0.6)"
    copy = pickle.loads(pickle.dumps(dist))
    assert copy == dist and hash(copy) == hash(dist)
    assert (copy.cdf_lo, copy.cdf_hi) == (dist.cdf_lo, dist.cdf_hi)
