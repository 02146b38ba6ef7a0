"""Closed-form expected-cost model of a flag-and-rescan screening loop.

Each acquired scan is segmented automatically; with per-subject probability
``alpha`` the segmentation fails and must be corrected manually at cost
``correction_cost``.  A quality predictor with operating point
(``precision``, ``recall``) flags suspect scans; every flagged scan triggers
one re-acquisition at cost ``rescan_cost``, and the loop repeats on the new
scan.  Because each round flags with probability ``alpha * recall /
precision``, the loop is a geometric retry process and its expected cost has
a closed form for a single point value of ``alpha``: the paper's unbounded
one (``new_cost_at``), and that of the loop the simulator runs, with a
re-scan budget and a saturating predictor (``budgeted_cost_at``).
Population-level averages over ``alpha`` live in ``alpha_distributions``.

Rates, costs and ratios are plain floats.  ``config.parse_config`` checks
each once, where it enters the program: 0 < precision <= 1, 0 <= recall <= 1,
rescan_cost >= 0, correction_cost > 0 (the dearest subject's cost finite) and
alpha in [0, 1).  alpha = 1 is excluded: a subject who always fails re-scans
forever under a perfect predictor, so no formula below stays finite there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentLoop, UndefinedRatio

# The re-scan budget of a loop whose config does not set ``policy.max_rescans``.
_DEFAULT_MAX_RESCANS = 50


@dataclass(frozen=True, slots=True)
class PredictorProfile:
    """Operating point of the quality predictor.

    ``precision`` is the fraction of flagged scans that truly failed;
    ``recall`` is the fraction of truly failed scans that get flagged.
    """

    precision: float
    recall: float


@dataclass(frozen=True, slots=True)
class CostRates:
    """Per-event costs, in abstract cost units.

    ``rescan_cost`` is paid for each re-acquisition; ``correction_cost`` for
    each final scan whose segmentation truly failed.  The initial scan and
    final verification are excluded: the loop does not change them.
    """

    rescan_cost: float
    correction_cost: float

    @property
    def quotient(self) -> float:
        """rescan_cost / correction_cost, the dimensionless knob of the model."""
        return self.rescan_cost / self.correction_cost


def new_cost_at(alpha: float, profile: PredictorProfile, rates: CostRates) -> float:
    """Expected per-subject cost under the flag-and-rescan loop.

    Fixed point of the retry recursion: a scan passes unflagged but truly
    failed with probability ``alpha * (1 - recall)`` (pay a correction), or
    is flagged with probability ``alpha * recall / precision`` (pay a
    re-scan, then face the same expected cost again).  Finite only while
    precision > alpha * recall; past that point each round flags
    at least as much expected work as it retires and the expected cost
    diverges.

    Raises:
        DivergentLoop: if precision <= alpha * recall.
    """
    a, p, r = alpha, profile.precision, profile.recall
    c_s, c_c = rates.rescan_cost, rates.correction_cost
    denom = p - a * r
    if denom <= 0.0:
        raise DivergentLoop(f"no finite expected cost: precision {p} <= alpha*recall {a * r}")
    return (p * a * c_c * (1.0 - r) + a * r * c_s) / denom


def cost_ratio_at(alpha: float, profile: PredictorProfile, cost_quotient: float) -> float:
    """Looped cost divided by baseline cost for one subject.

    Depends on costs only through ``cost_quotient`` = rescan_cost /
    correction_cost.

    Raises:
        UndefinedRatio: at alpha = 0, where the baseline cost is zero.
        DivergentLoop: if precision <= alpha * recall.
    """
    a, p, r = alpha, profile.precision, profile.recall
    if a == 0.0:
        raise UndefinedRatio("cost ratio is 0/0 at alpha = 0")
    denom = p - a * r
    if denom <= 0.0:
        raise DivergentLoop(f"no finite expected cost: precision {p} <= alpha*recall {a * r}")
    return (p - p * r + r * cost_quotient) / denom


def false_positive_rate(
    alpha: float | np.ndarray, profile: PredictorProfile
) -> float | np.ndarray:
    """Rate q of flagging intact scans that solves precision = alpha·recall /
    (alpha·recall + (1 − alpha)·q).  Above alpha_max = p / (p + r − p·r) no
    q <= 1 does, and the predictor saturates: it flags every intact scan.

    ``alpha`` may also be a float64 array, for the rates elementwise: the same
    IEEE operations in the same order, so each equals the scalar rate's bits.
    """
    a, p, r = alpha, profile.precision, profile.recall
    q = a * r * (1.0 - p) / (p * (1.0 - a))
    return np.minimum(q, 1.0) if isinstance(q, np.ndarray) else min(q, 1.0)


def _geometric_sum(miss: float, n: int) -> float:
    """1 + f + ... + f^(n-1) for f = 1 - miss, exact also as f nears 1."""
    if miss == 0.0:
        return float(n)
    if miss >= 1.0:
        return float(n > 0)
    return -math.expm1(n * math.log1p(-miss)) / miss


def budgeted_cost_at(
    alpha: float, profile: PredictorProfile, cost_quotient: float, max_rescans: int
) -> float:
    """Expected per-subject cost, in correction costs, of the loop the simulator runs.

    Each scan is flagged with probability f = alpha·recall + (1 − alpha)·q,
    q the saturating ``false_positive_rate``, and buys a re-scan while fewer
    than K = ``max_rescans`` were made; the kept scan pays a correction if it
    truly failed.  Scan k is reached with probability f^k, so with S_n = 1 +
    f + ... + f^(n−1) the cost is c·f·S_K + alpha·(1 − recall)·S_(K+1) +
    alpha·recall·f^K, c = ``cost_quotient``: finite for every alpha in [0, 1),
    and ``new_cost_at`` / correction_cost in the limit K → ∞, where finite.
    """
    a, r = alpha, profile.recall
    q = false_positive_rate(alpha, profile)
    flag = a * r + (1.0 - a) * q
    miss = a * (1.0 - r) + (1.0 - a) * (1.0 - q)
    k = max_rescans
    rescans = flag * _geometric_sum(miss, k)
    corrections = a * (1.0 - r) * _geometric_sum(miss, k + 1) + a * r * flag**k
    # no expected re-scan costs nothing, also at an infinite cost quotient
    return cost_quotient * rescans + corrections if rescans else corrections


def breakeven_precision(alpha: float, cost_quotient: float) -> float:
    """Precision above which the loop costs less than the baseline.

    The bound is ``alpha + cost_quotient``; when it reaches 1 no realizable
    predictor reduces cost for this subject.
    """
    return alpha + cost_quotient


def cost_reduction_table(
    rows: list[tuple[float, float, float, float]],
) -> list[float]:
    """Evaluate ``cost_ratio_at`` for rows of (alpha, cost_quotient, precision, recall).

    Errors from individual rows are re-raised with the row index attached.
    """
    out: list[float] = []
    for i, (a, quotient, p, r) in enumerate(rows):
        try:
            out.append(cost_ratio_at(a, PredictorProfile(p, r), quotient))
        except (UndefinedRatio, DivergentLoop) as exc:
            raise type(exc)(f"row {i}: {exc}") from exc
    return out
