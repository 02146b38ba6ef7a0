"""The closed form and the simulator agree across the abstract config space.

The acceptance criteria check agreement at a few fixed operating points.
Here a fixed, seeded list of abstract configs spreads over every failure-rate
family, predictor operating point, cost quotient and re-scan budget, and each
cohort's simulated costs are compared with the closed form through
``empirical_vs_analytic``'s z-scores.  The choices:

* 60 configs from ``numpy.random.default_rng(1)``, the families in turn, so
  twelve each; precision in [0.2, 1], recall in [0.05, 1], the budget K from
  {0, 1, 2, 3, 5, 10, 50} and the quotient c_s/c_c log-uniform in
  [10⁻³, 1].  Populations may reach past alpha_max, where the predictor
  saturates.  Cohort seed = config index, 20 000 subjects each.
* Only cohorts with at least 500 first-scan failures count: below that the
  delta method's standard error of the paired ratio is not trustworthy.
  The count is read off the cohort; at 20 000 subjects every config of
  the list has it.
* Every |z| <= 5, for ``z_mean_cost`` and ``z_cost_ratio``.  Under agreement
  each z is close to N(0, 1), so 5 leaves room for the largest of 120 while
  it catches a single config whose sides disagree.
* The sample standard deviation of each z over the list lies in [0.8, 1.2].
  It catches a biased or mis-scaled side that no single config shows.
* At K = 0 the loop is the baseline flow: the paired estimator is exactly 1
  and its standard error 0, so ``z_cost_ratio`` is not used there.  Instead
  the empirical ratio must be exactly 1, and the analytic one within 1e-14
  of 1: it is a quotient of two quadratures, each rounded on its own (a
  Beta population of the list gives 1 + 6 ulps).

The gate adds a check and loosens none; the list is fixed, so a run is
deterministic.
"""

import statistics

import numpy as np
import pytest

from scanloop.acquisition_loop import empirical_vs_analytic, run_cohort
from scanloop.config import parse_config

CONFIGS = 60
SUBJECTS = 20_000
MIN_FIRST_FAILURES = 500
BUDGETS = (0, 1, 2, 3, 5, 10, 50)
FAMILIES = ("point_mass", "uniform", "beta", "truncated_normal", "histogram")


def _population(family: str, rng: np.random.Generator) -> str:
    """The ``[distribution]`` body of one population of ``family``."""
    if family == "point_mass":
        return f"family = point_mass\nalpha = {rng.uniform(0.02, 0.6)!r}"
    if family == "uniform":
        lo = rng.uniform(0.0, 0.5)
        return f"family = uniform\nlo = {lo!r}\nhi = {lo + rng.uniform(0.05, 0.45)!r}"
    if family == "beta":
        return f"family = beta\na = {rng.uniform(1.0, 5.0)!r}\nb = {rng.uniform(2.0, 20.0)!r}"
    if family == "truncated_normal":
        mu, sigma = rng.uniform(0.0, 0.5), rng.uniform(0.02, 0.3)
        return (
            f"family = truncated_normal\nmu = {mu!r}\nsigma = {sigma!r}\n"
            f"lo = 0.0\nhi = {rng.uniform(0.3, 0.9)!r}"
        )
    return "family = histogram\ncsv = bins.csv"


def _configs(base_dir):
    """The fixed list of (index, config document, budget)."""
    rng = np.random.default_rng(1)
    (base_dir / "bins.csv").write_text(
        "bin_upper_edge,mass\n0.05,3\n0.15,10\n0.3,7\n0.5,4\n0.9,1\n"
    )
    for i in range(CONFIGS):
        body = _population(FAMILIES[i % len(FAMILIES)], rng)
        precision, recall = rng.uniform(0.2, 1.0), rng.uniform(0.05, 1.0)
        budget = int(rng.choice(BUDGETS))
        quotient = 10.0 ** rng.uniform(-3.0, 0.0)
        yield i, budget, f"""
[cohort]
mode = abstract
subjects = {SUBJECTS}
seed = {i}
workers = 1

[distribution]
{body}

[predictor]
kind = confusion
precision = {precision!r}
recall = {recall!r}

[costs]
rescan = {quotient!r}
correction = 1.0

[policy]
max_rescans = {budget}
"""


def test_z_scores_across_the_config_space(tmp_path):
    z_cost, z_ratio, counted = [], [], []
    for i, budget, text in _configs(tmp_path):
        config = parse_config(text, base_dir=tmp_path)
        report = run_cohort(config)
        if int(report.table.first_fail.sum()) < MIN_FIRST_FAILURES:
            continue
        counted.append(i)
        summary = empirical_vs_analytic(report)
        z_cost.append(summary.z_mean_cost)
        if budget == 0:
            assert summary.empirical_cost_ratio == 1.0, i
            assert summary.analytic_cost_ratio == pytest.approx(1.0, rel=1e-14, abs=0.0), i
        else:
            z_ratio.append(summary.z_cost_ratio)
    assert len(counted) >= CONFIGS // 2
    assert all(z is not None for z in z_cost + z_ratio)
    for zs in (z_cost, z_ratio):
        assert max(map(abs, zs)) <= 5.0
        assert 0.8 <= statistics.stdev(zs) <= 1.2, zs

