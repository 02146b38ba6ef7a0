"""Tests for the closed-form re-scan cost model."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanloop import cli
from scanloop.cost_model import (
    CostRates,
    PredictorProfile,
    breakeven_precision,
    budgeted_cost_at,
    cost_ratio_at,
    cost_reduction_table,
    new_cost_at,
)
from scanloop.errors import DivergentLoop, UndefinedRatio

from oracles import cost_recursion_rhs, fixed_point_cost, original_cost_at, subject_cost

# The six published example columns: (alpha, cs/cc, precision, recall).
REFERENCE_COLUMNS = [
    (0.2, 0.1, 0.8, 0.8),
    (0.3, 0.1, 0.8, 0.8),
    (0.2, 0.2, 0.8, 0.8),
    (0.2, 0.1, 0.6, 0.6),
    (0.2, 0.1, 0.9, 0.7),
    (0.2, 0.1, 0.7, 0.9),
]


# ---------------------------------------------------------------------------
# type invariants


def test_predictor_profile_boundaries_allowed():
    PredictorProfile(precision=1.0, recall=0.0)
    PredictorProfile(precision=1e-9, recall=1.0)


def test_cost_rates_validation():
    CostRates(rescan_cost=0.0, correction_cost=1.0)


def test_cost_rates_quotient():
    assert CostRates(rescan_cost=0.1, correction_cost=1.0).quotient == pytest.approx(0.1)
    assert CostRates(rescan_cost=3.0, correction_cost=2.0).quotient == pytest.approx(1.5)


def test_cost_ratio_reduction_is_exact_complement(tmp_path, monkeypatch):
    """table1's reduction column is the complement of its ratio column, in doubles."""
    columns = {}

    def capture(path, header, values, manifest):
        columns.update(zip(header, values))

    monkeypatch.setattr(cli, "write_csv", capture)
    assert cli.main(["table1", "--out", str(tmp_path)]) == 0
    assert list(columns["cost_ratio"]) == cost_reduction_table(list(cli.REFERENCE_GRID))
    for ratio, reduction_pct in zip(columns["cost_ratio"], columns["reduction_pct"]):
        assert reduction_pct == 100.0 * (1.0 - ratio)


# ---------------------------------------------------------------------------
# original_cost_at


@pytest.mark.parametrize(
    "alpha, cc, expected",
    [(0.2, 1.0, 0.2), (0.0, 5.0, 0.0), (0.3, 10.0, 3.0)],
)
def test_original_cost_examples(alpha, cc, expected):
    rates = CostRates(rescan_cost=0.0, correction_cost=cc)
    assert original_cost_at(alpha, rates) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# new_cost_at


def test_new_cost_matches_fixed_point_oracle():
    got = new_cost_at(
        0.2,
        PredictorProfile(0.8, 0.8),
        CostRates(rescan_cost=0.1, correction_cost=1.0),
    )
    oracle = fixed_point_cost(0.2, 0.8, 0.8, 0.1, 1.0)
    assert got == pytest.approx(0.075, abs=1e-12)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_new_cost_perfect_predictor_is_geometric_series():
    got = new_cost_at(
        0.2,
        PredictorProfile(1.0, 1.0),
        CostRates(rescan_cost=0.1, correction_cost=1.0),
    )
    assert got == pytest.approx(0.025, abs=1e-15)


def test_new_cost_zero_recall_recovers_baseline():
    got = new_cost_at(
        0.3,
        PredictorProfile(0.7, 0.0),
        CostRates(rescan_cost=0.1, correction_cost=2.0),
    )
    assert got == pytest.approx(0.6, abs=1e-15)


def test_new_cost_divergent_when_precision_too_low():
    with pytest.raises(DivergentLoop):
        new_cost_at(
            0.9,
            PredictorProfile(0.5, 0.9),  # p=0.5 <= alpha*r=0.81
            CostRates(rescan_cost=0.1, correction_cost=1.0),
        )


def test_new_cost_divergent_at_exact_boundary():
    with pytest.raises(DivergentLoop):
        new_cost_at(
            0.5,
            PredictorProfile(0.5, 1.0),  # p == alpha*r exactly
            CostRates(rescan_cost=0.1, correction_cost=1.0),
        )


# ---------------------------------------------------------------------------
# cost_recursion_rhs


def test_recursion_rhs_fixed_point_example():
    alpha = 0.2
    profile = PredictorProfile(0.8, 0.8)
    rates = CostRates(rescan_cost=0.1, correction_cost=1.0)
    assert cost_recursion_rhs(0.075, alpha, profile, rates) == pytest.approx(0.075, abs=1e-15)


def test_recursion_rhs_from_zero():
    alpha = 0.2
    profile = PredictorProfile(0.8, 0.8)
    rates = CostRates(rescan_cost=0.1, correction_cost=1.0)
    assert cost_recursion_rhs(0.0, alpha, profile, rates) == pytest.approx(0.06, abs=1e-15)


def test_recursion_rhs_zero_alpha_kills_both_terms():
    alpha = 0.0
    profile = PredictorProfile(0.4, 0.9)
    rates = CostRates(rescan_cost=2.0, correction_cost=3.0)
    assert cost_recursion_rhs(7.3, alpha, profile, rates) == 0.0


# ---------------------------------------------------------------------------
# cost_ratio_at


def test_ratio_published_column_2():
    cr = cost_ratio_at(0.3, PredictorProfile(0.8, 0.8), 0.1)
    assert (1.0 - cr) == pytest.approx(0.5714285714285714, abs=5e-4)


def test_ratio_published_column_6():
    cr = cost_ratio_at(0.2, PredictorProfile(0.7, 0.9), 0.1)
    assert (1.0 - cr) == pytest.approx(0.6923076923076923, abs=5e-4)


def test_ratio_never_flagging_changes_nothing():
    for alpha in (0.1, 0.5, 0.9):
        for quotient in (0.0, 0.1, 2.0):
            cr = cost_ratio_at(alpha, PredictorProfile(0.6, 0.0), quotient)
            assert cr == 1.0
            assert 1.0 - cr == 0.0


def test_ratio_first_column_is_62_5_percent():
    cr = cost_ratio_at(0.2, PredictorProfile(0.8, 0.8), 0.1)
    assert (1.0 - cr) == pytest.approx(0.625, abs=1e-12)


def test_ratio_undefined_at_alpha_zero():
    with pytest.raises(UndefinedRatio):
        cost_ratio_at(0.0, PredictorProfile(0.8, 0.8), 0.1)


def test_ratio_divergent_loop():
    with pytest.raises(DivergentLoop):
        cost_ratio_at(0.9, PredictorProfile(0.5, 0.9), 0.1)


def test_ratio_agrees_with_new_cost_over_original_cost():
    alpha = 0.35
    profile = PredictorProfile(0.75, 0.65)
    rates = CostRates(rescan_cost=0.3, correction_cost=2.0)
    direct = cost_ratio_at(alpha, profile, rates.quotient)
    via_costs = new_cost_at(alpha, profile, rates) / original_cost_at(alpha, rates)
    assert direct == pytest.approx(via_costs, rel=1e-14)


# ---------------------------------------------------------------------------
# budgeted_cost_at: the loop the simulator runs


@pytest.mark.parametrize("budget, ratio", [(0, 1.0), (1, 0.5), (2, 0.4), (3, 0.38), (50, 0.375)])
def test_budgeted_point_mass_ratios(budget, ratio):
    cost = budgeted_cost_at(0.2, PredictorProfile(0.8, 0.8), 0.1, budget)
    assert cost / 0.2 == pytest.approx(ratio, rel=1e-14)


@given(
    a=st.floats(0.0, 0.999),
    p=st.floats(0.05, 1.0),
    r=st.floats(0.0, 1.0),
    q=st.floats(0.0, 2.0),
    budget=st.sampled_from([0, 1, 2, 7, 50, 400]),
)
@example(a=0.5, p=0.5, r=1.0, q=0.1, budget=50)  # f = 1 at alpha_max
@example(a=0.999, p=1.0, r=1.0, q=0.1, budget=400)  # f = alpha near 1
@example(a=0.9, p=0.3, r=0.0, q=0.1, budget=7)  # saturated, never flags a failure
@settings(max_examples=300, deadline=None)
def test_budgeted_cost_matches_scan_by_scan_sum(a, p, r, q, budget):
    got = budgeted_cost_at(a, PredictorProfile(p, r), q, budget)
    assert got == pytest.approx(float(subject_cost(a, p, r, q, budget)), rel=1e-11, abs=1e-300)


@pytest.mark.parametrize("a, p, r", [(0.2, 0.8, 0.8), (0.3, 0.6, 0.6), (0.5, 0.9, 0.7)])
def test_budgeted_cost_tends_to_the_unbounded_form(a, p, r):
    rates = CostRates(0.1, 1.0)
    unbounded = new_cost_at(a, PredictorProfile(p, r), rates)
    got = budgeted_cost_at(a, PredictorProfile(p, r), 0.1, 10_000)
    assert got == pytest.approx(unbounded, rel=1e-13)


def test_budgeted_cost_saturates_instead_of_diverging():
    # alpha = 0.5 > alpha_max = 0.3 at p = 0.3, r = 1: every scan is flagged,
    # so the subject pays every re-scan and a correction with probability 0.5.
    with pytest.raises(DivergentLoop):
        new_cost_at(0.5, PredictorProfile(0.3, 1.0), CostRates(0.1, 1.0))
    got = budgeted_cost_at(0.5, PredictorProfile(0.3, 1.0), 0.1, 10_000)
    assert got == pytest.approx(10_000 * 0.1 + 0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# breakeven_precision


@pytest.mark.parametrize(
    "alpha, quotient, bound, feasible",
    [(0.2, 0.1, 0.3, True), (0.5, 0.2, 0.7, True), (0.95, 0.1, 1.05, False)],
)
def test_breakeven_examples(alpha, quotient, bound, feasible):
    got = breakeven_precision(alpha, quotient)
    assert got == pytest.approx(bound)
    assert (got < 1.0) == feasible


def test_breakeven_boundary_bound_of_exactly_one_is_infeasible():
    got = breakeven_precision(0.9, 0.1)
    assert got == pytest.approx(1.0)
    assert not got < 1.0


def test_infeasible_bound_means_no_precision_helps():
    # Sweep p over (alpha*r, 1]: the ratio never dips below 1.
    alpha, quotient, recall = 0.95, 0.1, 1.0
    for p in [0.951, 0.96, 0.97, 0.98, 0.99, 0.999, 1.0]:
        cr = cost_ratio_at(alpha, PredictorProfile(p, recall), quotient)
        assert cr >= 1.0


# ---------------------------------------------------------------------------
# cost_reduction_table


def test_reference_columns_reductions():
    table = cost_reduction_table(REFERENCE_COLUMNS)
    got = [round(100.0 * (1.0 - ratio), 1) for ratio in table]
    assert got == [62.5, 57.1, 50.0, 37.5, 55.3, 69.2]


def test_single_row_50_percent():
    (cr,) = cost_reduction_table([(0.2, 0.2, 0.8, 0.8)])
    assert (1.0 - cr) == pytest.approx(0.5, abs=1e-12)


def test_empty_table():
    assert cost_reduction_table([]) == []


def test_table_error_carries_row_index():
    rows = [(0.2, 0.1, 0.8, 0.8), (0.0, 0.1, 0.8, 0.8)]
    with pytest.raises(UndefinedRatio, match="row 1"):
        cost_reduction_table(rows)


# ---------------------------------------------------------------------------
# properties

GRID_ALPHA = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9]
GRID_P = [0.2, 0.5, 0.8, 1.0]
GRID_R = [0.1, 0.5, 0.9, 1.0]
GRID_Q = [0.0, 0.05, 0.2, 1.0]


def test_fixed_point_property_on_grid():
    rates_grid = [(q, 1.0) for q in GRID_Q] + [(0.3, 7.0)]
    for a in GRID_ALPHA:
        for p in GRID_P:
            for r in GRID_R:
                if p <= a * r:
                    continue
                for cs, cc in rates_grid:
                    profile = PredictorProfile(p, r)
                    rates = CostRates(rescan_cost=cs, correction_cost=cc)
                    c = new_cost_at(a, profile, rates)
                    back = cost_recursion_rhs(c, a, profile, rates)
                    assert back == pytest.approx(c, rel=1e-12, abs=1e-15)


def test_breakeven_iff_on_grid():
    for a in GRID_ALPHA:
        for p in GRID_P:
            for r in GRID_R:
                if r == 0.0 or p <= a * r:
                    continue
                for q in GRID_Q:
                    ratio = cost_ratio_at(a, PredictorProfile(p, r), q)
                    boundary = a + q
                    if abs(p - boundary) <= 1e-12:
                        assert abs(ratio - 1.0) <= 1e-12
                    elif p > boundary:
                        assert ratio < 1.0
                    else:
                        assert ratio >= 1.0


@given(
    p=st.floats(0.3, 1.0),
    r=st.floats(0.05, 1.0),
    q=st.floats(0.0, 0.5),
    a_lo=st.floats(0.01, 0.2),
    step=st.floats(0.01, 0.05),
)
@example(p=1.0, r=1.0, q=5e-324, a_lo=0.01, step=0.01)
@settings(max_examples=200, deadline=None)
def test_ratio_strictly_increasing_in_alpha(p, r, q, a_lo, step):
    a_hi = a_lo + step
    if p <= a_hi * r:
        return
    if p * (1.0 - r) + r * q < sys.float_info.min:
        # Degenerate corner (perfect predictor, free re-scans): the ratio is
        # identically zero, so strict growth in alpha cannot hold there.  Next
        # to it (p = r = 1, q = 5e-324) the numerator is subnormal and both
        # ratios round to the same double.
        return
    lo = cost_ratio_at(a_lo, PredictorProfile(p, r), q)
    hi = cost_ratio_at(a_hi, PredictorProfile(p, r), q)
    assert hi > lo


@given(
    p=st.floats(0.5, 1.0),
    r=st.floats(0.05, 1.0),
    a=st.floats(0.01, 0.4),
    q_lo=st.floats(0.0, 0.5),
    bump=st.floats(0.01, 0.5),
)
@settings(max_examples=200, deadline=None)
def test_ratio_strictly_increasing_in_cost_quotient(p, r, a, q_lo, bump):
    if p <= a * r:
        return
    lo = cost_ratio_at(a, PredictorProfile(p, r), q_lo)
    hi = cost_ratio_at(a, PredictorProfile(p, r), q_lo + bump)
    assert hi > lo


@given(
    a=st.floats(0.0, 0.99),
    p=st.floats(0.05, 1.0),
    cs=st.floats(0.0, 3.0),
    cc=st.floats(0.1, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_zero_recall_is_identity(a, p, cs, cc):
    profile = PredictorProfile(p, 0.0)
    rates = CostRates(rescan_cost=cs, correction_cost=cc)
    assert new_cost_at(a, profile, rates) == pytest.approx(
        original_cost_at(a, rates), rel=1e-12, abs=1e-15
    )
    if a > 0.0:
        assert cost_ratio_at(a, profile, cs / cc) == 1.0


@given(a=st.floats(0.01, 0.95), cs=st.floats(0.0, 2.0), cc=st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_perfect_predictor_geometric_series(a, cs, cc):
    got = new_cost_at(a, PredictorProfile(1.0, 1.0), CostRates(cs, cc))
    assert got == pytest.approx(a * cs / (1.0 - a), rel=1e-12, abs=1e-15)


@given(
    a=st.floats(0.01, 0.6),
    p=st.floats(0.7, 1.0),
    r=st.floats(0.0, 1.0),
    cs=st.floats(0.0, 1.0),
    cc=st.floats(0.5, 2.0),
    lam=st.floats(0.01, 100.0),
)
# Recall one ulp below 1: the correction term is tiny and must not cancel.
@example(a=0.5, p=0.75, r=0.9999999999999999, cs=0.0, cc=1.5, lam=7.0)
@settings(max_examples=200, deadline=None)
def test_cost_scales_linearly_and_ratio_is_scale_free(a, p, r, cs, cc, lam):
    profile = PredictorProfile(p, r)
    base = new_cost_at(a, profile, CostRates(cs, cc))
    scaled = new_cost_at(a, profile, CostRates(cs * lam, cc * lam))
    assert scaled == pytest.approx(lam * base, rel=1e-12, abs=1e-15)
    r1 = cost_ratio_at(a, profile, cs / cc)
    r2 = cost_ratio_at(a, profile, (cs * lam) / (cc * lam))
    assert r2 == pytest.approx(r1, rel=1e-12)
