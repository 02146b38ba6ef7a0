"""Slow-but-simple reference implementations used to freeze expected values.

The reference models are deliberately independent of the package under
test: fixed-point iteration instead of the closed form, composite Simpson on
a uniform grid instead of adaptive quadrature, logarithmic antiderivatives
for piecewise-constant densities, and plain Monte Carlo with delta-method
standard errors.  Tests compare the fast implementations against these.

The helpers at the end take the package's own types and are called by tests
only: one-step cost recursion, vectorized flagging, empirical operating
points, total density mass, SubjectTable row views, quaternion algebra on
numpy arrays and scalars, and a row-at-a-time CSV writer.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from scanloop.acquisition_loop import SUBJECT_COLUMNS, SubjectRecord, SubjectTable
from scanloop.alpha_distributions import (
    FailureDistribution,
    PointMass,
    _integrate,
)
from scanloop.cost_model import CostRates, FailureRate, PredictorProfile
from scanloop.predictor_model import ConfusionPredictor, ScorePredictor
from scanloop.reports import format_cell, manifest_line


def fixed_point_cost(
    alpha: float,
    precision: float,
    recall: float,
    rescan_cost: float,
    correction_cost: float,
    tol: float = 1e-15,
    max_iter: int = 100_000,
) -> float:
    """Iterate the retry-cost recursion from 0 until the update stalls."""
    c = 0.0
    for _ in range(max_iter):
        nxt = alpha * (1.0 - recall) * correction_cost + (alpha * recall / precision) * (
            rescan_cost + c
        )
        if abs(nxt - c) <= tol * max(1.0, abs(nxt)):
            return nxt
        c = nxt
    raise RuntimeError(
        f"fixed-point iteration did not converge (alpha={alpha}, p={precision}, r={recall})"
    )


def composite_simpson(
    f_vec: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, panels: int
) -> float:
    """Composite Simpson rule on a uniform grid with `panels` (even) panels."""
    if panels % 2 != 0:
        raise ValueError("panels must be even")
    xs = np.linspace(lo, hi, panels + 1)
    ys = np.asarray(f_vec(xs), dtype=float)
    h = (hi - lo) / panels
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def simpson_population_ratio(
    density_vec: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    precision: float,
    recall: float,
    quotient: float,
    panels: int = 1_000_000,
) -> float:
    """Population cost ratio via brute-force Simpson on numerator and denominator.

    Where the density is zero the numerator integrand is taken as 0 even if
    the pointwise ratio is at its pole there (the product vanishes in the
    limit for every density this suite uses).
    """
    k = precision - precision * recall + recall * quotient

    def num(a: np.ndarray) -> np.ndarray:
        fa = density_vec(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = a * fa * k / (precision - a * recall)
        return np.where(fa == 0.0, 0.0, raw)

    def den(a: np.ndarray) -> np.ndarray:
        return a * density_vec(a)

    return composite_simpson(num, lo, hi, panels) / composite_simpson(den, lo, hi, panels)


def piecewise_constant_ratio(
    bins: list[tuple[float, float, float]], precision: float, recall: float, quotient: float
) -> float:
    """Exact population cost ratio for a piecewise-constant density.

    `bins` holds (lo, hi, density) pieces.  Uses the closed antiderivative
    of a / (p - r·a), namely -a/r - (p/r²)·ln(p - r·a).
    """
    p, r = precision, recall
    k = p - p * r + r * quotient

    def weighted_alpha_over_denom(a: float) -> float:
        if r == 0.0:
            return a * a / (2.0 * p)
        return -a / r - (p / r**2) * math.log(p - r * a)

    num = 0.0
    den = 0.0
    for lo, hi, dens in bins:
        num += dens * k * (weighted_alpha_over_denom(hi) - weighted_alpha_over_denom(lo))
        den += dens * (hi * hi - lo * lo) / 2.0
    return num / den


def mc_population_ratio(
    alphas: np.ndarray, precision: float, recall: float, quotient: float
) -> tuple[float, float]:
    """Monte Carlo estimate of the population cost ratio with delta-method SE.

    The ratio is E[alpha * h(alpha)] / E[alpha]; both expectations share the
    same draws, so the standard error uses the delta method for a ratio of
    correlated means.
    """
    h = (precision - precision * recall + recall * quotient) / (precision - alphas * recall)
    x = alphas * h
    y = alphas
    n = len(alphas)
    xbar, ybar = x.mean(), y.mean()
    ratio = xbar / ybar
    var = (
        x.var(ddof=1) - 2.0 * ratio * np.cov(x, y, ddof=1)[0, 1] + ratio**2 * y.var(ddof=1)
    ) / (n * ybar**2)
    return float(ratio), float(math.sqrt(max(var, 0.0)))


def original_cost_at(alpha: FailureRate, rates: CostRates) -> float:
    """Expected per-subject cost without the loop: every failure is corrected."""
    return alpha.alpha * rates.correction_cost


def cost_recursion_rhs(
    candidate: float,
    alpha: FailureRate,
    profile: PredictorProfile,
    rates: CostRates,
) -> float:
    """One step of the self-consistent cost recursion.

    A scan passes the gate unflagged but truly failed with probability
    ``alpha * (1 - recall)`` (pay a correction), or gets flagged with
    probability ``alpha * recall / precision`` (pay a re-scan, then face the
    same expected cost again).  ``new_cost_at`` is the fixed point of this
    map.
    """
    a, p, r = alpha.alpha, profile.precision, profile.recall
    return a * (1.0 - r) * rates.correction_cost + (a * r / p) * (
        rates.rescan_cost + candidate
    )


def total_mass(dist: FailureDistribution) -> float:
    """Integral of the density over its support (1.0 for a valid distribution)."""
    if isinstance(dist, PointMass):
        return 1.0
    lo, hi = dist.support
    return _integrate(dist.pdf, lo, hi, dist.breakpoints())


def classify_many(
    true_fails: np.ndarray, predictor: ConfusionPredictor, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized ``classify``: same stream consumption, one draw per scan."""
    u = rng.random(len(true_fails))
    cut = np.where(true_fails, predictor.profile.recall, predictor.false_positive_rate)
    return u < cut


@dataclass(frozen=True, slots=True)
class OperatingPoint:
    """Empirical (precision, recall) induced by one threshold over a sample.

    ``precision`` is None when nothing was flagged; ``recall`` is None when
    the sample contains no true failures.  Neither is ever reported as 0 in
    those cases.
    """

    precision: float | None
    recall: float | None
    threshold: float
    flag_rate: float


def operating_point(
    score_predictor: ScorePredictor,
    threshold: float,
    cohort_sample: list[tuple[float, bool]],
    rng: np.random.Generator,
) -> OperatingPoint:
    """Score every (true_quality, true_fail) item and tally flag statistics."""
    if not cohort_sample:
        raise ValueError("cohort_sample must be nonempty")
    qualities = np.array([q for q, _ in cohort_sample])
    fails = np.array([f for _, f in cohort_sample], dtype=bool)
    eps = rng.standard_normal(len(cohort_sample))
    scores = np.clip(qualities + score_predictor.noise_scale * eps, 0.0, 1.0)
    flags = scores < threshold

    n_flagged = int(flags.sum())
    n_fails = int(fails.sum())
    n_hits = int((flags & fails).sum())
    precision = n_hits / n_flagged if n_flagged > 0 else None
    recall = n_hits / n_fails if n_fails > 0 else None
    return OperatingPoint(
        precision=precision,
        recall=recall,
        threshold=threshold,
        flag_rate=n_flagged / len(cohort_sample),
    )


def table_row(table: SubjectTable, i: int) -> SubjectRecord:
    """Subject ``i`` of a table as the record that produced it; its trajectory
    is its slice of the quality column, which starts after the scans of the
    subjects before it."""
    a = float(table.alpha[i])
    trajectory = None
    if len(table.quality):
        start = int(table.scans[:i].sum())
        trajectory = tuple(table.quality[start : start + int(table.scans[i])].tolist())
    return SubjectRecord(
        subject_id=i,
        alpha=None if math.isnan(a) else a,
        quality_trajectory=trajectory,
        **{name: getattr(table, name)[i].item() for name, _ in SUBJECT_COLUMNS},
    )


def table_rows(table: SubjectTable) -> Iterator[SubjectRecord]:
    return (table_row(table, i) for i in range(len(table)))


def quat_multiply_numpy_scalars(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of scalar-first quaternions, unpacked as numpy float64 scalars."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_from_axis_angle_numpy(rotvec: np.ndarray) -> np.ndarray:
    """Unit quaternion of a nonzero rotation vector, from numpy array arithmetic."""
    angle = float(np.linalg.norm(rotvec))
    half = 0.5 * angle
    return np.concatenate(([math.cos(half)], math.sin(half) * (rotvec / angle)))


def render_csv_rows(header: Sequence[str], rows: Iterable[Sequence[object]], manifest: dict) -> str:
    """CSV text written a row at a time, one ``format_cell`` call per cell."""
    buffer = io.StringIO()
    buffer.write(manifest_line(manifest) + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(cell) for cell in row])
    return buffer.getvalue()
