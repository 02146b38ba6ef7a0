"""Tests for the calibrated coin-flip and noisy-score predictors."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scanloop.cost_model import PredictorProfile
from scanloop.predictor_model import (
    ConfusionPredictor,
    ScorePredictor,
    classify,
    false_positive_rate,
    score,
)

from oracles import OperatingPoint, classify_many, operating_point

# ---------------------------------------------------------------------------
# false_positive_rate


def test_fpr_reference_point():
    q = false_positive_rate(0.2, PredictorProfile(0.8, 0.8))
    assert q == pytest.approx(0.05, abs=1e-15)


def test_fpr_perfect_precision_never_false_flags():
    for a in (0.0, 0.3, 0.9):
        for r in (0.0, 0.5, 1.0):
            assert false_positive_rate(a, PredictorProfile(1.0, r)) == 0.0


def test_fpr_boundary_flag_everything():
    q = false_positive_rate(0.5, PredictorProfile(0.5, 1.0))
    assert q == pytest.approx(1.0, abs=1e-15)


def test_fpr_zero_base_rate_is_zero():
    assert false_positive_rate(0.0, PredictorProfile(0.8, 0.8)) == 0.0


def test_fpr_saturates_above_alpha_max():
    # alpha_max = 0.3 / (0.3 + 1 - 0.3) = 0.3; the exact solution would be 7/3.
    assert false_positive_rate(0.9, PredictorProfile(0.3, 1.0)) == 1.0


@given(a=st.floats(0.01, 0.9), p=st.floats(0.05, 1.0), r=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_fpr_makes_marginal_precision_exact(a, p, r):
    # a relative-tolerance identity needs the products to stay in the normal
    # float range; at subnormal magnitudes (e.g. r = 5e-324) a*r and q round
    # with unbounded relative error and the identity is unfalsifiable
    assume(r == 0.0 or a * r >= 1e-300)
    q = false_positive_rate(a, PredictorProfile(p, r))
    if a * r * (1.0 - p) > p * (1.0 - a):
        # above alpha_max: saturated, and the flags are purer than asked
        assert q == 1.0
        assert a * r / (a * r + (1.0 - a)) >= p * (1.0 - 1e-12)
        return
    if r == 0.0:
        assert q == 0.0
        return
    implied_precision = a * r / (a * r + (1.0 - a) * q)
    assert implied_precision == pytest.approx(p, rel=1e-12)


# ---------------------------------------------------------------------------
# ConfusionPredictor construction


def test_calibrated_factory_round_trip():
    pred = ConfusionPredictor.calibrated(PredictorProfile(0.8, 0.8), 0.2)
    assert pred.false_positive_rate == false_positive_rate(0.2, PredictorProfile(0.8, 0.8))


def test_calibrated_holds_recall_and_derives_fpr():
    pred = ConfusionPredictor.calibrated(PredictorProfile(0.8, 0.8), 0.2)
    assert pred.recall == 0.8
    assert pred.false_positive_rate == pytest.approx(0.05, abs=1e-15)
    saturated = ConfusionPredictor.calibrated(PredictorProfile(0.3, 1.0), 0.9)
    assert saturated == ConfusionPredictor(recall=1.0, false_positive_rate=1.0)


def test_calibrated_factory_saturates_above_alpha_max():
    pred = ConfusionPredictor.calibrated(PredictorProfile(0.3, 1.0), 0.9)
    assert pred.false_positive_rate == 1.0
    rng = np.random.default_rng(3)
    assert all(classify(False, pred, rng) for _ in range(100))


# ---------------------------------------------------------------------------
# classify


def test_classify_recall_one_always_flags_failures():
    pred = ConfusionPredictor.calibrated(PredictorProfile(0.9, 1.0), 0.2)
    rng = np.random.default_rng(1)
    assert all(classify(True, pred, rng) for _ in range(200))


def test_classify_flag_frequencies_binomial():
    pred = ConfusionPredictor.calibrated(PredictorProfile(0.8, 0.8), 0.2)
    rng = np.random.default_rng(2)
    n = 100_000

    fail_flags = sum(classify(True, pred, rng) for _ in range(n))
    se_r = math.sqrt(0.8 * 0.2 / n)
    assert abs(fail_flags / n - 0.8) < 3.0 * se_r

    ok_flags = sum(classify(False, pred, rng) for _ in range(n))
    se_q = math.sqrt(0.05 * 0.95 / n)
    assert abs(ok_flags / n - 0.05) < 3.0 * se_q


def test_classify_many_matches_scalar_stream():
    pred = ConfusionPredictor.calibrated(PredictorProfile(0.7, 0.9), 0.3)
    fails = np.array([True, False, True, True, False, False, True, False] * 40)
    vec = classify_many(fails, pred, np.random.default_rng(33))
    rng = np.random.default_rng(33)
    scalar = np.array([classify(bool(f), pred, rng) for f in fails])
    np.testing.assert_array_equal(vec, scalar)


def test_classify_deterministic_per_seed():
    pred = ConfusionPredictor.calibrated(PredictorProfile(0.8, 0.8), 0.2)
    a = [classify(i % 2 == 0, pred, np.random.default_rng(7)) for i in range(1)]
    b = [classify(i % 2 == 0, pred, np.random.default_rng(7)) for i in range(1)]
    assert a == b


def test_calibration_empirical_precision_and_recall():
    a, p, r = 0.2, 0.8, 0.8
    pred = ConfusionPredictor.calibrated(PredictorProfile(p, r), a)
    rng = np.random.default_rng(3)
    n = 1_000_000
    fails = rng.random(n) < a
    flags = classify_many(fails, pred, rng)

    flagged = int(flags.sum())
    hits = int((flags & fails).sum())
    emp_precision = hits / flagged
    emp_recall = hits / int(fails.sum())
    assert abs(emp_precision - p) < 3.0 * math.sqrt(p * (1.0 - p) / flagged)
    assert abs(emp_recall - r) < 3.0 * math.sqrt(r * (1.0 - r) / int(fails.sum()))


@pytest.mark.parametrize(
    "a, p, r",
    [(0.1, 0.6, 0.9), (0.3, 0.9, 0.5), (0.5, 0.5, 1.0), (0.2, 1.0, 0.7)],
)
def test_calibration_grid(a, p, r):
    pred = ConfusionPredictor.calibrated(PredictorProfile(p, r), a)
    rng = np.random.default_rng(hash((a, p, r)) % 2**32)
    n = 300_000
    fails = rng.random(n) < a
    flags = classify_many(fails, pred, rng)
    flagged = int(flags.sum())
    hits = int((flags & fails).sum())
    if flagged > 0:
        se_p = math.sqrt(p * (1.0 - p) / flagged) + 1e-12
        assert abs(hits / flagged - p) < 3.0 * se_p
    se_r = math.sqrt(r * (1.0 - r) / int(fails.sum())) + 1e-12
    assert abs(hits / int(fails.sum()) - r) < 3.0 * se_r


# ---------------------------------------------------------------------------
# score


def test_score_noiseless_passthrough():
    rng = np.random.default_rng(4)
    assert score(0.7, ScorePredictor(0.0, 0.5), rng) == 0.7


def test_score_clamps_to_unit_interval():
    pred = ScorePredictor(10.0, 0.5)
    rng = np.random.default_rng(5)
    values = [score(0.9, pred, rng) for _ in range(500)]
    assert max(values) <= 1.0
    assert min(values) >= 0.0
    assert 1.0 in values  # huge noise hits the upper clamp


def test_score_mean_clt_away_from_clamp():
    pred = ScorePredictor(0.1, 0.5)
    rng = np.random.default_rng(6)
    eps = rng.standard_normal(1_000_000)
    vals = np.clip(0.5 + 0.1 * eps, 0.0, 1.0)
    assert abs(vals.mean() - 0.5) < 3.0 * 0.1 / 1000.0
    # scalar path agrees with the vectorized expectation
    rng2 = np.random.default_rng(6)
    scalar = [score(0.5, pred, rng2) for _ in range(1000)]
    np.testing.assert_allclose(scalar, vals[:1000], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# operating_point


def _cohort(n: int, q_fail: float, rng: np.random.Generator) -> list[tuple[float, bool]]:
    qualities = rng.random(n)
    return [(float(q), bool(q < q_fail)) for q in qualities]


def test_operating_point_threshold_below_everything():
    cohort = _cohort(500, 0.4, np.random.default_rng(8))
    op = operating_point(ScorePredictor(0.0, 0.0), -1.0, cohort, np.random.default_rng(9))
    assert op == OperatingPoint(precision=None, recall=0.0, threshold=-1.0, flag_rate=0.0)


def test_operating_point_threshold_above_everything():
    cohort = _cohort(500, 0.4, np.random.default_rng(10))
    op = operating_point(ScorePredictor(0.0, 0.0), 2.0, cohort, np.random.default_rng(11))
    fail_frac = sum(f for _, f in cohort) / len(cohort)
    assert op.recall == 1.0
    assert op.flag_rate == 1.0
    assert op.precision == pytest.approx(fail_frac)


def test_operating_point_noiseless_separation():
    q_fail = 0.4
    cohort = _cohort(500, q_fail, np.random.default_rng(12))
    op = operating_point(ScorePredictor(0.0, 0.0), q_fail, cohort, np.random.default_rng(13))
    assert op.precision == 1.0
    assert op.recall == 1.0


def test_operating_point_no_failures_recall_absent():
    cohort = [(0.9, False), (0.8, False)]
    op = operating_point(ScorePredictor(0.0, 0.0), 0.85, cohort, np.random.default_rng(14))
    assert op.recall is None
    assert op.precision == 0.0  # one flagged, zero hits


def test_operating_point_empty_sample_rejected():
    with pytest.raises(ValueError):
        operating_point(ScorePredictor(0.0, 0.0), 0.5, [], np.random.default_rng(15))


def test_roc_monotone_in_threshold():
    cohort = _cohort(2000, 0.4, np.random.default_rng(16))
    pred = ScorePredictor(0.1, 0.0)
    recalls, flag_rates = [], []
    for tau in np.linspace(0.0, 1.0, 21):
        op = operating_point(pred, float(tau), cohort, np.random.default_rng(17))
        recalls.append(op.recall)
        flag_rates.append(op.flag_rate)
    assert all(a <= b for a, b in zip(recalls, recalls[1:]))
    assert all(a <= b for a, b in zip(flag_rates, flag_rates[1:]))
