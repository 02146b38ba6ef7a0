"""Flag-and-rescan loop simulation, per subject and per cohort.

Two modes share the same loop skeleton — scan, predict, re-scan while
flagged and budget remains, then keep the last scan and pay a correction
if it truly failed.  They differ only in how one scan's failure and flag
are drawn.  Each subject's record holds what its loop drew, scan by scan;
the subject table derives every tally and the cost from those outcomes:

* **abstract** re-draws failure independently on every scan with the
  subject's own probability and flags through a calibrated coin-flip
  predictor.  This matches the closed-form cost model's assumptions
  exactly, so cohort averages must converge to it — the package's main
  cross-check.

* **kinematic** derives failure from probe pose: each re-scan moves the
  probe along a noisy guidance offset, so successive scans are no longer
  independent.  This deliberately relaxes the independence assumption to
  show where the closed form does and does not bend.

Cohorts are cut into contiguous units of work, each inside one key block of
``streams``, and may fan out over worker processes; because every subject
consumes only its own stream, results are bit-identical for a fixed master
seed no matter the worker count.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .alpha_distributions import mean_alpha as _dist_mean_alpha
from .alpha_distributions import Beta, PointMass, expected_cost_ratio, sample_alpha
from .cost_model import CostRates, false_positive_rate
from .errors import QuadratureFailure, UndefinedRatio
from .predictor_model import ConfusionPredictor, ScorePredictor, score
from .probe_kinematics import (
    GuidanceNoise,
    LearnerPolicy,
    ProbePose,
    SubjectAnatomy,
    apply_move,
    guidance_offset,
    image_quality,
    perturb_pose,
)
from .streams import BLOCK, block_uniforms, subject_stream, uniforms_past_block

if TYPE_CHECKING:
    from .config import ExperimentConfig


class SubjectRecord(NamedTuple):
    """What one subject's loop drew, scan by scan: whether each scan truly
    failed and whether it was flagged, and in kinematic mode its image quality
    and score (None in abstract mode).  ``SubjectTable.from_records`` flattens
    these into the table, which derives the subject's tallies and cost."""

    alpha: float | None
    fails: list[bool]
    flags: list[bool]
    quality: list[float] | None = None
    scores: list[float] | None = None

    @property
    def scans(self) -> int:
        return len(self.fails)


def run_subject_abstract(
    alpha: float,
    max_rescans: int,
    predictor: ConfusionPredictor,
    draws: Iterator[float],
) -> SubjectRecord:
    """One subject under the independence assumption.

    Each scan fails with probability alpha independently of history; each
    flagged scan buys a re-scan while fewer than ``max_rescans`` have been
    made.  Two uniforms from ``draws`` per scan, always: the failure, then
    the flag, compared as ``predictor_model.classify`` compares them.
    """
    recall, false_positive_rate = predictor
    fails: list[bool] = []
    flags: list[bool] = []
    for _ in range(max_rescans + 1):
        true_fail = next(draws) < alpha
        flagged = next(draws) < (recall if true_fail else false_positive_rate)
        fails.append(true_fail)
        flags.append(flagged)
        if not flagged:
            break
    return SubjectRecord(alpha, fails, flags)


def run_subject_kinematic(
    subject: SubjectAnatomy,
    start: ProbePose,
    max_rescans: int,
    score_pred: ScorePredictor,
    guidance: GuidanceNoise,
    learner: LearnerPolicy,
    rng: np.random.Generator,
) -> SubjectRecord:
    """One subject with pose-driven quality and guided re-scans.

    Quality comes from the probe pose; a scan truly fails when quality is
    below the subject's cutoff.  Flagging compares the noisy score against
    the predictor's threshold; each re-scan applies a guidance offset before
    the next scan, so scans are dependent by design.
    """
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


# The per-subject columns of SubjectTable, in the order subjects.csv writes
# them after its lead columns (the row position, then alpha or qualities).
SUBJECT_COLUMNS = (
    "scans",
    "rescans",
    "first_fail",
    "final_true_fail",
    "cost",
    "flagged_scans",
    "failed_scans",
    "flagged_failed_scans",
)
# the columns SubjectTable derives on first use, all together
_DERIVED = frozenset(("starts", *SUBJECT_COLUMNS[1:]))


class SubjectTable:
    """Column-oriented store of what subjects' loops drew, for large cohorts.

    Stores per subject ``alpha`` (NaN in kinematic mode) and ``scans``, and
    per scan, one subject after another, ``failed`` and ``flagged`` and, empty
    in abstract mode, ``quality`` and ``score``, with the cost ``rates``.  The
    first read of ``starts`` (where each subject's scans start) or of a
    ``SUBJECT_COLUMNS`` name after ``scans`` derives all of them together, so
    a unit of work that is only joined or pickled never derives them.
    Tallies count every scan, the last included.  ``first_fail``, whether the
    first scan truly failed, prices the subject with no loop under the same
    draws.  Every scan but the last bought a re-scan; the last is kept and
    pays a correction when it truly failed.
    """

    def __init__(self, alpha, scans, failed, flagged, quality, score, rates: CostRates):
        n, total = len(alpha), int(scans.sum())
        if len(scans) != n:
            raise ValueError("column scans has mismatched length: one per subject")
        if not len(failed) == len(flagged) == total:
            raise ValueError("failed or flagged column has mismatched length: one per scan")
        if not {len(quality), len(score)} <= {0, total}:
            raise ValueError("quality or score column has mismatched length: one per scan, or none")
        self.alpha, self.scans, self.failed, self.flagged = alpha, scans, failed, flagged
        self.quality, self.score, self.rates = quality, score, rates

    def __getattr__(self, name: str) -> np.ndarray:
        # Called only for a name the instance lacks.  Pickling looks names up
        # here too, on a table whose columns are not yet restored, so any
        # name but a derived one is missing.
        if name not in _DERIVED:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        scans, failed, flagged = self.scans, self.failed, self.flagged
        self.starts = starts = np.cumsum(scans) - scans
        self.rescans = scans - 1
        self.first_fail = failed[starts]
        self.final_true_fail = failed[starts + self.rescans]
        correction = np.where(self.final_true_fail, self.rates.correction_cost, 0.0)
        self.cost = self.rescans * self.rates.rescan_cost + correction

        def tally(per_scan: np.ndarray) -> np.ndarray:
            # each subject's sum; np.add.reduceat may refuse an empty list of
            # offsets
            if not len(starts):
                return np.zeros(0, dtype=np.int64)
            return np.add.reduceat(per_scan, starts, dtype=np.int64)

        self.flagged_scans = tally(flagged)
        self.failed_scans = tally(failed)
        self.flagged_failed_scans = tally(failed & flagged)
        return vars(self)[name]

    @classmethod
    def from_records(cls, records: list[SubjectRecord], rates: CostRates) -> "SubjectTable":
        """The table of ``records``, in order."""
        alpha, fails, flags, quality, scores = zip(*records) if records else ((),) * 5
        scans = np.fromiter(map(len, fails), np.int64, len(records))
        total = int(scans.sum())
        return cls(
            np.array(alpha, dtype=np.float64),  # a None alpha (kinematic mode) is NaN
            scans,
            np.fromiter(itertools.chain.from_iterable(fails), np.bool_, total),
            np.fromiter(itertools.chain.from_iterable(flags), np.bool_, total),
            # an abstract record's quality and scores are None and add no entry
            np.fromiter(itertools.chain.from_iterable(filter(None, quality)), np.float64),
            np.fromiter(itertools.chain.from_iterable(filter(None, scores)), np.float64),
            rates,
        )

    @classmethod
    def concatenate(cls, parts: list["SubjectTable"]) -> "SubjectTable":
        """The subjects of ``parts``, in order, at the first part's rates."""
        drawn = ("alpha", "scans", "failed", "flagged", "quality", "score")
        columns = (np.concatenate([getattr(p, name) for p in parts]) for name in drawn)
        return cls(*columns, parts[0].rates)

    def truncated(self, flagged: np.ndarray) -> "SubjectTable":
        """Each subject's run cut after its first scan that ``flagged`` (one
        entry per scan) leaves unflagged, with ``flagged`` as its flags: the
        run of a loop that draws every scan the same way and flags by
        ``flagged``, where ``flagged`` flags no scan that this run did not."""
        index = np.arange(len(flagged))
        last = np.repeat(self.starts + self.rescans, self.scans)
        where = np.where(flagged, last, index)
        # np.minimum.reduceat refuses an empty list of offsets
        stop = np.minimum.reduceat(where, self.starts) if len(self) else self.starts
        keep = index <= np.repeat(stop, self.scans)
        quality, score = (c[keep] if c.size else c for c in (self.quality, self.score))
        failed, scans = self.failed[keep], stop - self.starts + 1
        return SubjectTable(self.alpha, scans, failed, flagged[keep], quality, score, self.rates)

    def __len__(self) -> int:
        return len(self.alpha)

    def quality_at(self, scan: int | None) -> np.ndarray:
        """Each subject's quality at scan index ``scan`` (the first scan is 0),
        or at its last scan when ``scan`` is None; a subject that stopped
        before ``scan`` keeps its last quality."""
        last = self.rescans
        return self.quality[self.starts + (last if scan is None else np.minimum(scan, last))]


@dataclass(frozen=True, slots=True)
class CohortAggregates:
    """Cohort summaries, all recomputable from the per-subject table; a cost
    or ratio beyond the range of doubles is None."""

    subjects: int
    total_scans: int
    total_rescans: int
    total_corrections: int
    total_cost: float | None
    mean_cost: float | None
    mean_rescans: float | None
    empirical_precision: float | None
    empirical_recall: float | None
    empirical_cost_ratio: float | None
    analytic_cost_ratio: float | None
    mean_initial_quality: float | None = None
    mean_final_quality: float | None = None


@dataclass(frozen=True, slots=True)
class SimulationReport:
    """Cohort results: the config that ran, whose mode, echo and manifest the
    report files carry, the per-subject table and its aggregates."""

    config: "ExperimentConfig"
    table: SubjectTable
    aggregates: CohortAggregates


def _finite(value: float) -> float | None:
    """``value``, or None where it left the range of doubles: JSON has no
    number for it."""
    return value if math.isfinite(value) else None


# numpy stays quiet when a sum or spread of extreme costs overflows: each
# figure that leaves the range of doubles is None
@np.errstate(over="ignore", invalid="ignore")
def _empirical_ratio(table: SubjectTable) -> float | None:
    """Paired estimator: looped cost over the cost the same draws would have
    incurred with no loop (correction on first-scan failure), both at the
    table's rates."""
    baseline = table.rates.correction_cost * float(table.first_fail.sum())
    if baseline == 0.0:
        return None
    return _finite(float(table.cost.sum()) / baseline)


@np.errstate(over="ignore", invalid="ignore")  # as _empirical_ratio
def _aggregate(table: SubjectTable, analytic_ratio: float | None) -> CohortAggregates:
    """The aggregates of ``table``, whose costs are at its own rates, beside
    the closed-form ``analytic_ratio`` (None where there is none)."""
    n = len(table)
    flagged = int(table.flagged_scans.sum())
    failed = int(table.failed_scans.sum())
    hits = int(table.flagged_failed_scans.sum())

    mean_initial = mean_final = None
    if table.quality.size:
        mean_initial = float(table.quality_at(0).mean())
        mean_final = float(table.quality_at(None).mean())

    return CohortAggregates(
        subjects=n,
        total_scans=int(table.scans.sum()),
        total_rescans=int(table.rescans.sum()),
        total_corrections=int(table.final_true_fail.sum()),
        total_cost=_finite(float(table.cost.sum())),
        mean_cost=_finite(float(table.cost.mean())) if n > 0 else None,
        mean_rescans=float(table.rescans.mean()) if n > 0 else None,
        empirical_precision=hits / flagged if flagged > 0 else None,
        empirical_recall=hits / failed if failed > 0 else None,
        empirical_cost_ratio=_empirical_ratio(table),
        analytic_cost_ratio=analytic_ratio,
        mean_initial_quality=mean_initial,
        mean_final_quality=mean_final,
    )


def _located(exc: Exception, where: str) -> Exception | None:
    """``exc`` as the same type with ``where`` leading its message; None when
    the type cannot be built from a message alone."""
    try:
        return type(exc)(f"{where}: {exc}")
    except Exception:
        return None


def _abstract_records(
    config: "ExperimentConfig", start: int, stop: int, records: list[SubjectRecord]
) -> None:
    """Append the records of abstract subjects [start, stop), which lie in one
    key block, to ``records``.

    A Beta subject draws its failure rate and its scans with its
    ``Generator``.  Otherwise the rates are the inverse CDF on the first
    column of the block's ``block_uniforms`` (a point mass draws none), their
    predictors are built once for the unit (their false-positive rates in one
    array expression), and each scan loop reads the rest of its row before its
    ``uniforms_past_block``.
    """
    seed, dist = config.master_seed, config.distribution
    profile, budget = config.profile, config.max_rescans
    if isinstance(dist, Beta):
        for i in range(start, stop):
            rng = subject_stream(seed, i)
            alpha = sample_alpha(dist, rng)
            predictor = ConfusionPredictor.calibrated(profile, alpha)
            records.append(run_subject_abstract(alpha, budget, predictor, iter(rng.random, None)))
        return
    uniforms = block_uniforms(seed, start, stop)
    if isinstance(dist, PointMass):
        alphas, rows = itertools.repeat(dist.alpha), uniforms.tolist()
        predictors = itertools.repeat(ConfusionPredictor.calibrated(profile, dist.alpha))
    else:
        alphas = dist.inverse_cdf(uniforms[:, 0])
        rates = false_positive_rate(alphas, profile).tolist()
        alphas, rows = alphas.tolist(), uniforms[:, 1:].tolist()
        predictors = map(ConfusionPredictor, itertools.repeat(profile.recall), rates)
    for alpha, predictor, row in zip(alphas, predictors, rows):
        draws = itertools.chain(row, uniforms_past_block(seed, start + len(records)))
        records.append(run_subject_abstract(alpha, budget, predictor, draws))


def _simulate_table(config: "ExperimentConfig", start: int, stop: int) -> SubjectTable:
    """The table of subjects [start, stop), which lie in one key block.  It
    holds only the drawn columns, which are all that joining it or sending it
    back from a worker process needs.

    An error raised for a subject is re-raised as the same type, its message
    led by ``subject <i>, seed <s>, config <d>``, d the first 12 hex digits
    of the config digest; the message alone crosses a process pool.  The
    subject is the first whose record is missing.
    """
    records: list[SubjectRecord] = []
    seed = config.master_seed
    try:
        if config.mode == "abstract":
            _abstract_records(config, start, stop, records)
        else:
            anatomy = config.anatomy
            for i in range(start, stop):
                rng = subject_stream(seed, i)
                start_pose = perturb_pose(config.start_offset_t, config.start_offset_r, rng)
                records.append(
                    run_subject_kinematic(
                        anatomy,
                        start_pose,
                        config.max_rescans,
                        config.score_predictor,
                        config.guidance,
                        config.learner,
                        rng,
                    )
                )
    except Exception as exc:
        i = start + len(records)
        located = _located(exc, f"subject {i}, seed {seed}, config {config.digest[:12]}")
        if located is None:
            raise
        raise located from exc
    return SubjectTable.from_records(records, config.rates)


def run_cohort(config: "ExperimentConfig") -> SimulationReport:
    """Simulate every subject of the configured cohort.

    Results are bit-identical for a fixed master seed regardless of
    ``config.workers``: subjects consume only their own streams and the units
    of work are joined in subject order.  At one worker a unit is 1 024
    subjects, so no more records than that are alive at once; each unit's
    table holds only its drawn columns, and the joined table derives the
    tallies once.  The abstract closed-form ratio is None where it cannot be
    had: a zero-mean population, whose baseline cost is 0, one whose integral
    the Gauss rules fail to resolve, or one whose ratio leaves the range of
    doubles.
    """
    n = config.n_subjects
    # The pool may start all its workers at once, so it gets no more than
    # there are CPUs.  A unit of work is a quarter of a key block at one
    # worker, and else about an eighth of a worker's share, rounded down to a
    # power of two so that it divides a key block.  A pool's units are not
    # capped at a quarter block too: each worker would rebuild the keys and
    # uniforms of every block it shares with another.
    workers = min(config.workers, os.cpu_count() or 1)
    share = max(1, -(-n // (8 * workers)))
    size = BLOCK // 4 if workers == 1 else min(BLOCK, 1 << (share.bit_length() - 1))
    starts = range(0, n, size) or range(1)
    stops = [min(start + size, n) for start in starts]
    configs = [config] * len(starts)

    pool_size = min(workers, len(starts))
    if pool_size < 2:
        tables = list(map(_simulate_table, configs, starts, stops))
    else:
        # Imported here, not with the module: runs on one worker never pay
        # for loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            tables = list(pool.map(_simulate_table, configs, starts, stops))
    table = SubjectTable.concatenate(tables)

    analytic = None
    if config.mode == "abstract":
        dist, profile = config.distribution, config.profile
        quotient, budget = config.rates.quotient, config.max_rescans
        try:
            analytic = _finite(expected_cost_ratio(dist, profile, quotient, budget))
        except (UndefinedRatio, QuadratureFailure):
            pass

    return SimulationReport(config, table, _aggregate(table, analytic))


@dataclass(frozen=True, slots=True)
class ComparisonSummary:
    """Analytic population costs next to their simulated estimates."""

    subjects: int
    analytic_original_cost: float
    analytic_new_cost: float | None
    analytic_cost_ratio: float
    empirical_mean_cost: float | None
    empirical_cost_se: float | None
    empirical_cost_ratio: float | None
    empirical_ratio_se: float | None
    z_mean_cost: float | None
    z_cost_ratio: float | None


@np.errstate(over="ignore", invalid="ignore")  # as _empirical_ratio
def empirical_vs_analytic(report: SimulationReport) -> ComparisonSummary:
    """Compare an abstract-mode report against the closed-form population costs
    of the failure-rate distribution and cost rates of the config it ran.

    The analytic and paired empirical cost ratios are the report's own
    aggregates.  Standard errors are sample-based; the cost-ratio one uses
    the delta method for the paired ratio estimator.  With a single subject
    no spread is estimable, so the errors and z-scores are reported as None;
    so is every figure that leaves the range of doubles, as the spread of
    extreme costs or the delta method's squares of a ratio or a mean
    baseline cost can (a correction cost extreme against the re-scan cost).

    Raises:
        ValueError: for an empty cohort, or a report without an analytic
            cost ratio: a kinematic report, whose scans violate the
            independence assumption the closed forms rely on, or a population
            whose mean failure rate is 0, or whose integral the Gauss rules
            fail to resolve.
    """
    n = len(report.table)
    if n == 0:
        raise ValueError("cannot compare an empty cohort")
    agg = report.aggregates
    analytic_ratio = agg.analytic_cost_ratio
    if analytic_ratio is None:
        raise ValueError("the report has no analytic cost ratio to compare against")

    rates = report.config.rates
    analytic_original = _dist_mean_alpha(report.config.distribution) * rates.correction_cost
    analytic_new = analytic_original * analytic_ratio
    ratio = agg.empirical_cost_ratio
    cost_se = ratio_se = z_cost = z_ratio = None

    if n > 1:
        cost = report.table.cost
        cost_se = _finite(float(cost.std(ddof=1) / math.sqrt(n)))
        if cost_se and agg.mean_cost is not None:
            z_cost = _finite((agg.mean_cost - analytic_new) / cost_se)
        if ratio is not None:
            baseline = rates.correction_cost * report.table.first_fail.astype(float)
            ybar = float(baseline.mean())
            spread = (
                float(cost.var(ddof=1))
                - 2.0 * ratio * float(np.cov(cost, baseline, ddof=1)[0, 1])
                + ratio * ratio * float(baseline.var(ddof=1))
            )
            # ybar squared may round to 0, and either square may overflow
            scale = n * (ybar * ybar)
            var = spread / scale if scale > 0.0 else math.inf
            if math.isfinite(var):
                ratio_se = math.sqrt(max(var, 0.0))
                if ratio_se > 0.0:
                    z_ratio = _finite((ratio - analytic_ratio) / ratio_se)

    return ComparisonSummary(
        subjects=n,
        analytic_original_cost=analytic_original,
        analytic_new_cost=_finite(analytic_new),
        analytic_cost_ratio=analytic_ratio,
        empirical_mean_cost=agg.mean_cost,
        empirical_cost_se=cost_se,
        empirical_cost_ratio=ratio,
        empirical_ratio_se=ratio_se,
        z_mean_cost=z_cost,
        z_cost_ratio=z_ratio,
    )
