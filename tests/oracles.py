"""Slow-but-simple reference implementations used to freeze expected values.

The reference models are deliberately independent of the package under
test: fixed-point iteration and a scan-by-scan sum instead of the closed
forms, composite Simpson on a uniform grid and SciPy's adaptive ``quad``
instead of fixed Gauss rules, logarithmic antiderivatives for
piecewise-constant densities, and plain Monte Carlo with delta-method
standard errors.  Tests compare the fast implementations against these.

The helpers at the end take the package's own types and are called by tests
only: one-step cost recursion, total density mass, vectorized sampling and
flagging, each subject's scalar draws by the stream rule and the per-subject
abstract loop on them, the kinematic loop one step function at a time, the
threshold sweep as one cohort run per threshold, empirical operating points,
SubjectTable rows and the scan-by-scan sums they must equal, the declared
norm on numpy arrays, quaternion algebra on numpy arrays and scalars, a
row-at-a-time CSV writer and the reader of report CSVs.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from scanloop.acquisition_loop import SUBJECT_COLUMNS, SubjectRecord, SubjectTable, run_cohort
from scanloop.alpha_distributions import (
    Beta,
    FailureDistribution,
    PointMass,
    Uniform,
    sample_alpha,
)
from scanloop.cost_model import CostRates, PredictorProfile, budgeted_cost_at
from scanloop.predictor_model import ConfusionPredictor, ScorePredictor, classify, score
from scanloop.probe_kinematics import (
    GuidanceNoise,
    LearnerPolicy,
    ProbePose,
    SubjectAnatomy,
    apply_move,
    guidance_offset,
    image_quality,
    perturb_pose,
)
from scanloop.reports import format_cell, manifest_line
from scanloop.streams import subject_stream


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


def subject_cost(
    alpha: float | np.ndarray,
    precision: float,
    recall: float,
    quotient: float,
    max_rescans: int,
) -> float | np.ndarray:
    """Expected cost of one subject of the budgeted loop, in correction costs,
    summed scan by scan; elementwise on an array of failure rates.

    Every scan is flagged with probability f = alpha·r + (1 − alpha)·q, where
    the false-positive rate q holds precision p (and is 1 where no q ≤ 1
    does), so scan k is reached with probability f^k.  A scan before the last
    one possible either is flagged (pay a re-scan) or passes truly failed (pay
    a correction); scan K = max_rescans is kept and pays a correction if it
    failed.
    """
    a = np.asarray(alpha, dtype=float)
    p, r = precision, recall
    with np.errstate(divide="ignore", invalid="ignore"):
        # fmin: at alpha = 1 (a quad end point) q is 0/0, and f = r whatever q is
        q = np.fmin(a * r * (1.0 - p) / (p * (1.0 - a)), 1.0)
    f = a * r + (1.0 - a) * q
    reach = np.power.outer(f, np.arange(max_rescans + 1))
    return reach[..., :-1].sum(axis=-1) * (quotient * f + a * (1.0 - r)) + reach[..., -1] * a


def simpson_population_ratio(
    density_vec: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    precision: float,
    recall: float,
    quotient: float,
    max_rescans: int,
    panels: int = 1_000_000,
) -> float:
    """Population cost ratio of the budgeted loop via brute-force Simpson on
    numerator and denominator."""

    def num(a: np.ndarray) -> np.ndarray:
        return subject_cost(a, precision, recall, quotient, max_rescans) * density_vec(a)

    def den(a: np.ndarray) -> np.ndarray:
        return a * density_vec(a)

    return composite_simpson(num, lo, hi, panels) / composite_simpson(den, lo, hi, panels)


def quad_population_ratio(
    dist: FailureDistribution, precision: float, recall: float, quotient: float, max_rescans: int
) -> float:
    """Population cost ratio of the budgeted loop by SciPy's adaptive ``quad``.

    Numerator and denominator are integrated piece by piece, the pieces split
    at the density's breakpoints and at alpha_max = p / (p + r − p·r), where
    the false-positive rate saturates.  On a Beta piece that ends at 0 or 1
    the density's power there, if below 2 (its second derivative unbounded),
    is ``quad``'s algebraic weight.
    """
    from scipy.integrate import quad
    from scipy.special import betaln

    if isinstance(dist, PointMass):
        return float(subject_cost(dist.alpha, precision, recall, quotient, max_rescans)) / (
            dist.alpha
        )
    p, r = precision, recall
    lo, hi = dist.support
    alpha_max = p / (p + r - p * r)
    cuts = sorted({lo, hi, *(c for c in (*dist.breakpoints(), alpha_max) if lo < c < hi)})
    num = den = 0.0
    for a, b in zip(cuts, cuts[1:]):
        opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 500}
        density = dist.pdf
        if isinstance(dist, Beta):
            left = dist.a - 1.0 if a == 0.0 and dist.a < 3.0 else 0.0
            right = dist.b - 1.0 if b == 1.0 and dist.b < 3.0 else 0.0
            opts.update(weight="alg", wvar=(left, right))

            def density(x, left=left, right=right):
                # in log space: 1 / B(a, b) alone overflows for a concentrated Beta
                powers = ((dist.a - 1.0 - left, x), (dist.b - 1.0 - right, 1.0 - x))
                if any(base == 0.0 and power > 0.0 for power, base in powers):
                    return 0.0
                logs = (power * math.log(base) for power, base in powers if power)
                return math.exp(math.fsum(logs) - betaln(dist.a, dist.b))

        num += quad(
            lambda x: float(subject_cost(x, p, r, quotient, max_rescans)) * density(x),
            a,
            b,
            **opts,
        )[0]
        den += quad(lambda x: x * density(x), a, b, **opts)[0]
    return num / den


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
    alphas: np.ndarray, precision: float, recall: float, quotient: float, max_rescans: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the budgeted loop's population cost ratio with
    delta-method SE.

    The ratio is E[cost(alpha)] / E[alpha], cost from ``subject_cost``; both
    expectations share the same draws, so the standard error uses the delta
    method for a ratio of correlated means.
    """
    x = np.concatenate(
        [
            subject_cost(block, precision, recall, quotient, max_rescans)
            for block in np.array_split(alphas, -(-len(alphas) // 8192))
        ]
    )
    y = alphas
    n = len(alphas)
    xbar, ybar = x.mean(), y.mean()
    ratio = xbar / ybar
    var = (
        x.var(ddof=1) - 2.0 * ratio * np.cov(x, y, ddof=1)[0, 1] + ratio**2 * y.var(ddof=1)
    ) / (n * ybar**2)
    return float(ratio), float(math.sqrt(max(var, 0.0)))


def original_cost_at(alpha: float, rates: CostRates) -> float:
    """Expected per-subject cost without the loop: every failure is corrected."""
    return alpha * rates.correction_cost


def cost_recursion_rhs(
    candidate: float,
    alpha: float,
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
    a, p, r = alpha, profile.precision, profile.recall
    return a * (1.0 - r) * rates.correction_cost + (a * r / p) * (
        rates.rescan_cost + candidate
    )


def total_mass(dist: FailureDistribution) -> float:
    """Integral of the density over its support (1.0 for a valid distribution)."""
    if isinstance(dist, PointMass):
        return 1.0
    from scipy.integrate import quad

    lo, hi = dist.support
    cuts = sorted({lo, hi, *dist.breakpoints()})
    return sum(quad(dist.pdf, a, b, epsabs=1e-13, limit=200)[0] for a, b in zip(cuts, cuts[1:]))


def sample_many(dist: FailureDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of ``dist`` as a vector, each family's scalar ``sample`` on
    arrays: the same formula, but ``n`` uniforms drawn at once."""
    if isinstance(dist, PointMass):
        return np.full(n, dist.alpha)
    if isinstance(dist, Uniform):
        return dist.lo + (dist.hi - dist.lo) * rng.random(n)
    return dist.inverse_cdf(rng.random(n))


def classify_many(
    true_fails: np.ndarray, predictor: ConfusionPredictor, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized ``classify``: same stream consumption, one draw per scan."""
    u = rng.random(len(true_fails))
    cut = np.where(true_fails, predictor.recall, predictor.false_positive_rate)
    return u < cut


def block_draws(seed: int, i: int) -> list[float]:
    """Subject i's 8 block draws by the stream rule, one scalar Philox per
    4-word block: the words of the blocks at counters (i, 0, 0, 1) and
    (i, 1, 0, 1) under the key (seed, 0), each as ``random()`` makes a double.
    numpy steps the counter before it computes a block, so each Philox
    starts one below.  The key is given as uint64 words: numpy reads a list
    such as [2**64 - 1, 0] through float64."""
    key, words = np.array([seed, 0], dtype=np.uint64), []
    for half in (0, 1):
        counter = (1 << 192) + (half << 64) + i - 1
        words += np.random.Philox(key=key, counter=counter).random_raw(4).tolist()
    return [(w >> 11) * 2.0**-53 for w in words]


def subject_draws(seed: int, i: int) -> Iterator[float]:
    """Subject i's scalar uniforms: its 8 block draws, then its
    ``subject_stream``'s ``random()`` draws from the first."""
    return itertools.chain(block_draws(seed, i), iter(subject_stream(seed, i).random, None))


def abstract_records(config, start: int, stop: int) -> list[SubjectRecord]:
    """Records of abstract subjects [start, stop), one subject and one draw
    at a time from ``subject_draws``: its failure rate by ``sample_alpha``,
    its predictor by ``calibrated``, then per scan a failure draw and
    ``classify``'s flag draw, until a scan passes or the budget is spent."""
    records = []
    for i in range(start, stop):
        # the one method sample_alpha and classify call on a Generator
        rng = SimpleNamespace(random=subject_draws(config.master_seed, i).__next__)
        alpha = sample_alpha(config.distribution, rng)
        predictor = ConfusionPredictor.calibrated(config.profile, alpha)
        fails, flags = [], []
        for _ in range(config.max_rescans + 1):
            fails.append(rng.random() < alpha)
            flags.append(classify(fails[-1], predictor, rng))
            if not flags[-1]:
                break
        records.append(SubjectRecord(alpha, fails, flags))
    return records


def kinematic_record(
    subject: SubjectAnatomy,
    start: ProbePose,
    max_rescans: int,
    score_pred: ScorePredictor,
    guidance: GuidanceNoise,
    learner: LearnerPolicy,
    rng: np.random.Generator,
) -> SubjectRecord:
    """One kinematic subject from the pose ``start``, one step function at a
    time: per scan ``image_quality`` and ``score`` and, before each re-scan,
    ``guidance_offset`` and ``apply_move``, all on ``rng``.  On the stream
    ``perturb_pose`` drew ``start`` from, this is the record
    ``run_subject_kinematic`` gives."""
    pose = start
    trajectory: list[float] = []
    scores: list[float] = []
    fails: list[bool] = []
    flags: list[bool] = []
    for scan in range(max_rescans + 1):
        if scan > 0:
            offset = guidance_offset(pose, guidance, rng)
            pose = apply_move(pose, offset, learner, rng)
        quality = image_quality(pose, subject)
        trajectory.append(quality)
        scores.append(score(quality, score_pred, rng))
        fails.append(quality < subject.failure_cutoff)
        flags.append(scores[-1] < score_pred.threshold)
        if not flags[-1]:
            break
    return SubjectRecord(None, fails, flags, trajectory, scores)


def kinematic_records(config, start: int, stop: int) -> list[SubjectRecord]:
    """Records of kinematic subjects [start, stop), each from a fresh
    ``subject_stream``: its start pose by ``perturb_pose``, then
    ``kinematic_record``."""
    records = []
    for i in range(start, stop):
        rng = subject_stream(config.master_seed, i)
        pose = perturb_pose(config.start_offset_t, config.start_offset_r, rng)
        records.append(
            kinematic_record(
                config.anatomy,
                pose,
                config.max_rescans,
                config.score_predictor,
                config.guidance,
                config.learner,
                rng,
            )
        )
    return records


def sweep_rows_per_threshold(config) -> list[list]:
    """The rows of ``sweep.csv`` (``cli.SWEEP_HEADER``) from one cohort run per
    threshold, each on a copy of the config with the predictor's threshold
    replaced; a plug-in ratio past the largest double is None.  A first scan
    counts as flagged iff its subject re-scanned, which holds while the
    re-scan budget is at least 1."""
    rows = []
    for tau in config.sweep_thresholds:
        predictor = dataclasses.replace(config.score_predictor, threshold=tau)
        report = run_cohort(dataclasses.replace(config, score_predictor=predictor))
        table, agg = report.table, report.aggregates
        flagged, fails = table.rescans >= 1, table.first_fail
        alpha_hat = float(fails.mean()) if len(table) else math.nan
        hits = int((flagged & fails).sum())
        precision = hits / int(flagged.sum()) if flagged.any() else None
        recall = hits / int(fails.sum()) if fails.any() else None
        plugin = None
        if precision and recall is not None and 0.0 < alpha_hat < 1.0:
            profile = PredictorProfile(precision, recall)
            quotient, budget = config.rates.quotient, config.max_rescans
            plugin = budgeted_cost_at(alpha_hat, profile, quotient, budget) / alpha_hat
            if not math.isfinite(plugin):  # past the largest double: an empty cell
                plugin = None
        rows.append(
            [tau, alpha_hat, precision, recall, plugin, agg.mean_cost, agg.empirical_cost_ratio]
        )
    # best_simulated and best_plugin: the first row of least mean cost and of
    # least plug-in ratio, among the rows that have one
    for column in (5, 4):
        marks = [0] * len(rows)
        present = [i for i, row in enumerate(rows) if row[column] is not None]
        if present:
            marks[min(present, key=lambda i: rows[i][column])] = 1
        for row, mark in zip(rows, marks):
            row.append(mark)
    return rows


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


class SubjectRow(NamedTuple):
    """One subject's row of a SubjectTable, as plain Python values."""

    subject_id: int
    alpha: float | None
    scans: int
    rescans: int
    first_fail: bool
    final_true_fail: bool
    cost: float
    flagged_scans: int
    failed_scans: int
    flagged_failed_scans: int
    quality_trajectory: tuple[float, ...] | None = None


def subject_row(subject_id: int, record: SubjectRecord, rates: CostRates) -> SubjectRow:
    """The row a record should become, summed scan by scan: every scan but
    the last bought a re-scan, and the last is kept and pays a correction
    when it truly failed."""
    fails, flags = record.fails, record.flags
    rescans = len(fails) - 1
    return SubjectRow(
        subject_id,
        record.alpha,
        len(fails),
        rescans,
        fails[0],
        fails[-1],
        rescans * rates.rescan_cost + (rates.correction_cost if fails[-1] else 0.0),
        sum(flags),
        sum(fails),
        sum(fail and flag for fail, flag in zip(fails, flags)),
        None if record.quality is None else tuple(record.quality),
    )


def table_row(table: SubjectTable, i: int) -> SubjectRow:
    """Subject ``i`` of a table; its trajectory is its slice of the quality
    column, which starts after the scans of the subjects before it."""
    a = float(table.alpha[i])
    trajectory = None
    if len(table.quality):
        start = int(table.scans[:i].sum())
        trajectory = tuple(table.quality[start : start + int(table.scans[i])].tolist())
    return SubjectRow(
        subject_id=i,
        alpha=None if math.isnan(a) else a,
        quality_trajectory=trajectory,
        **{name: getattr(table, name)[i].item() for name in SUBJECT_COLUMNS},
    )


def table_rows(table: SubjectTable) -> Iterator[SubjectRow]:
    return (table_row(table, i) for i in range(len(table)))


def declared_norm(v) -> np.ndarray:
    """Euclidean norm along the last axis from numpy's elementwise ufuncs:
    the square root of the squares summed left to right, each operation
    rounded once."""
    v = np.asarray(v, dtype=np.float64)
    s = v[..., 0] * v[..., 0]
    for i in range(1, v.shape[-1]):
        s = s + v[..., i] * v[..., i]
    return np.sqrt(s)


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
    """Unit quaternion of a nonzero rotation vector, from numpy array arithmetic
    (its angle the declared norm, which no BLAS kernel rounds)."""
    angle = float(declared_norm(rotvec))
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


def read_report_csv(path: str | Path) -> tuple[dict, list[str], list[list[str]]]:
    """Parse a report CSV back into (manifest, header, rows of cells)."""
    with open(path, encoding="utf-8", newline="") as handle:
        first = handle.readline()
        if not first.startswith("# manifest "):
            raise ValueError(f"{path} does not start with a manifest line")
        manifest = json.loads(first[len("# manifest ") :])
        reader = csv.reader(handle)
        header = next(reader)
        return manifest, header, [row for row in reader]


def kinematic_translation_sd(
    start_sd: float, gain: float, guidance_sd: float, motor_sd: float, scans: int
) -> list[float]:
    """Per-axis standard deviation s_k of the translation error at scans
    0 .. scans - 1 of a subject that re-scans every time.

    Measured from the optimum, the position is the error e_k itself: the
    guided move aims at -e_k with noise sigma_g and lands a gain g of the way
    with motor noise sigma_m, so e_{k+1} = (1 - g)e_k + g*sigma_g*n + sigma_m*n'
    is an AR(1) and s_{k+1}^2 = (1 - g)^2 s_k^2 + g^2 sigma_g^2 + sigma_m^2,
    from s_0 = start_sd.
    """
    var = start_sd**2
    out = []
    for _ in range(scans):
        out.append(math.sqrt(var))
        var = (1.0 - gain) ** 2 * var + (gain * guidance_sd) ** 2 + motor_sd**2
    return out


def kinematic_mean_quality(
    k: int,
    translation_sd: float,
    gain: float,
    start_sd_r: float,
    translation_scale: float,
    rotation_scale: float,
) -> float:
    """E[q_k] with both rotation noises 0: e_k ~ N(0, s_k^2 I_3) and the angle
    is (1 - g)^k start_sd_r Z, so by the Gaussian moment generating function
    E[q_k] = (1 + 2s_k^2/T^2)^(-3/2) (1 + 2(1 - g)^(2k) sigma_r^2/R^2)^(-1/2)."""
    t = 1.0 + 2.0 * (translation_sd / translation_scale) ** 2
    r = 1.0 + 2.0 * ((1.0 - gain) ** k * start_sd_r / rotation_scale) ** 2
    return t**-1.5 * r**-0.5


def kinematic_first_fail_probability(
    start_sd: float, translation_scale: float, failure_cutoff: float
) -> float:
    """P(q_0 < c) with no start rotation: |e_0|^2/s_0^2 is chi-squared with
    3 degrees of freedom and q_0 < c exactly when |e_0|^2 > -ln(c) T^2."""
    from scipy.stats import chi2

    return float(chi2.sf(-math.log(failure_cutoff) * (translation_scale / start_sd) ** 2, 3))
