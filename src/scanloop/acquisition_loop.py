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

Cohorts fan out over worker processes in contiguous index chunks; because
every subject consumes only its own stream (see ``streams``), results are
bit-identical for a fixed master seed no matter the worker count.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .alpha_distributions import mean_alpha as _dist_mean_alpha
from .alpha_distributions import expected_cost_ratio, sample_alpha
from .cost_model import CostRates
from .errors import QuadratureFailure, UndefinedRatio
from .predictor_model import ConfusionPredictor, ScorePredictor, classify, score
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
from .streams import subject_stream

if TYPE_CHECKING:
    from .alpha_distributions import FailureDistribution
    from .config import ExperimentConfig


class SubjectRecord(NamedTuple):
    """What one subject's loop drew, scan by scan: whether each scan truly
    failed and whether it was flagged, and in kinematic mode its image
    quality (None in abstract mode).  ``SubjectTable.from_records`` derives
    the subject's tallies and cost from these outcomes."""

    alpha: float | None
    fails: list[bool]
    flags: list[bool]
    quality: list[float] | None = None

    @property
    def scans(self) -> int:
        return len(self.fails)


def run_subject_abstract(
    alpha: float,
    max_rescans: int,
    predictor: ConfusionPredictor,
    rng: np.random.Generator,
) -> SubjectRecord:
    """One subject under the independence assumption.

    Each scan fails with probability alpha independently of history; each
    flagged scan buys a re-scan while fewer than ``max_rescans`` have been
    made.  Two stream draws per scan (failure, flag), always.
    """
    fails: list[bool] = []
    flags: list[bool] = []
    for _ in range(max_rescans + 1):
        true_fail = rng.random() < alpha
        flagged = classify(true_fail, predictor, rng)
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
    tau = score_pred.threshold
    pose = start
    trajectory: list[float] = []
    fails: list[bool] = []
    flags: list[bool] = []
    for scan in range(max_rescans + 1):
        if scan > 0:
            offset = guidance_offset(pose, guidance, rng)
            pose = apply_move(pose, offset, learner, rng)
        quality = image_quality(pose, subject)
        trajectory.append(quality)
        flagged = score(quality, score_pred, rng) < tau
        fails.append(quality < subject.failure_cutoff)
        flags.append(flagged)
        if not flagged:
            break
    return SubjectRecord(None, fails, flags, trajectory)


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


class SubjectTable:
    """Column-oriented store of subjects' outcomes for large cohorts.

    Holds ``alpha`` (NaN where not applicable, in kinematic mode), one numpy
    column per entry of ``SUBJECT_COLUMNS``, and ``quality``: every scan's
    image quality, one subject after another, empty in abstract mode.  A
    subject's qualities are its ``scans`` entries from offset
    ``cumsum(scans) - scans``, so million-subject cohorts stay cheap to hold,
    aggregate, and serialize.
    """

    def __init__(self, alpha: np.ndarray, quality: np.ndarray, **columns: np.ndarray) -> None:
        if sorted(columns) != sorted(SUBJECT_COLUMNS):
            raise ValueError(f"columns must be {list(SUBJECT_COLUMNS)}, got {list(columns)}")
        n = len(alpha)
        for name, values in columns.items():
            if len(values) != n:
                raise ValueError(f"column {name} has mismatched length")
            setattr(self, name, values)
        if len(quality) not in (0, int(self.scans.sum())):
            raise ValueError("quality column has mismatched length: one entry per scan, or none")
        self.alpha = alpha
        self.quality = quality

    @classmethod
    def from_records(cls, records: list[SubjectRecord], rates: CostRates) -> "SubjectTable":
        """The table of ``records``, in order.

        Tallies count every scan a subject underwent, the last one included.
        ``first_fail`` is whether the first scan truly failed: the cost the
        subject would have incurred with no loop at all, under the same
        draws.  Every scan but the last bought a re-scan; the last is kept
        and pays a correction when it truly failed (``final_true_fail``).
        """
        alpha, fails, flags, quality = zip(*records) if records else ((),) * 4
        n = len(records)
        scans = np.fromiter(map(len, fails), np.int64, n)
        total = int(scans.sum())
        failed = np.fromiter(itertools.chain.from_iterable(fails), np.bool_, total)
        flagged = np.fromiter(itertools.chain.from_iterable(flags), np.bool_, total)
        # each scan's subject, and each subject's last scan
        subject = np.repeat(np.arange(n), scans)
        last = np.cumsum(scans) - 1
        rescans = scans - 1
        final_true_fail = failed[last]
        return cls(
            # numpy stores a None alpha (kinematic mode) as NaN
            alpha=np.array(alpha, dtype=np.float64),
            # an abstract record's quality is None and adds no entry
            quality=np.fromiter(itertools.chain.from_iterable(filter(None, quality)), np.float64),
            scans=scans,
            rescans=rescans,
            first_fail=failed[last - rescans],
            final_true_fail=final_true_fail,
            cost=rescans * rates.rescan_cost
            + np.where(final_true_fail, rates.correction_cost, 0.0),
            flagged_scans=np.bincount(subject[flagged], minlength=n),
            failed_scans=np.bincount(subject[failed], minlength=n),
            flagged_failed_scans=np.bincount(subject[failed & flagged], minlength=n),
        )

    @classmethod
    def concatenate(cls, parts: list["SubjectTable"]) -> "SubjectTable":
        return cls(
            **{
                name: np.concatenate([getattr(p, name) for p in parts])
                for name in ("alpha", "quality", *SUBJECT_COLUMNS)
            },
        )

    def __len__(self) -> int:
        return len(self.alpha)

    def quality_at(self, scan: int | None) -> np.ndarray:
        """Each subject's quality at scan index ``scan`` (the first scan is 0),
        or at its last scan when ``scan`` is None; a subject that stopped
        before ``scan`` keeps its last quality."""
        last = self.scans - 1
        offsets = np.cumsum(self.scans) - self.scans
        return self.quality[offsets + (last if scan is None else np.minimum(scan, last))]


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
    """Cohort results: config echo, per-subject table, aggregates, manifest."""

    mode: str
    config: dict
    table: SubjectTable
    aggregates: CohortAggregates
    manifest: dict


def _finite(value: float) -> float | None:
    """``value``, or None where it left the range of doubles: JSON has no
    number for it."""
    return value if math.isfinite(value) else None


# numpy stays quiet when a sum or spread of extreme costs overflows: each
# figure that leaves the range of doubles is None
@np.errstate(over="ignore", invalid="ignore")
def _empirical_ratio(table: SubjectTable, rates: CostRates) -> float | None:
    """Paired estimator: looped cost over the cost the same draws would have
    incurred with no loop (correction on first-scan failure)."""
    baseline = rates.correction_cost * float(table.first_fail.sum())
    if baseline == 0.0:
        return None
    return _finite(float(table.cost.sum()) / baseline)


@np.errstate(over="ignore", invalid="ignore")  # as _empirical_ratio
def _aggregate(
    table: SubjectTable, rates: CostRates, analytic_ratio: float | None
) -> CohortAggregates:
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
        empirical_cost_ratio=_empirical_ratio(table, rates),
        analytic_cost_ratio=analytic_ratio,
        mean_initial_quality=mean_initial,
        mean_final_quality=mean_final,
    )


# Subjects whose records are turned into columns at a time: a chunk returns
# such blocks, so no chunk-long list of records is held.
_RECORDS_PER_TABLE = 4096


def _located(exc: Exception, where: str) -> Exception | None:
    """``exc`` as the same type with ``where`` leading its message; None when
    the type cannot be built from a message alone."""
    try:
        return type(exc)(f"{where}: {exc}")
    except Exception:
        return None


def _simulate_records(config: "ExperimentConfig", start: int, stop: int) -> list[SubjectRecord]:
    """Records of subjects [start, stop).

    An error raised for a subject is re-raised as the same type, its message
    led by ``subject <i>, seed <s>, config <d>``, d the first 12 hex digits
    of the config digest; the message alone crosses a process pool.
    """
    records: list[SubjectRecord] = []
    seed = config.master_seed
    i = start
    try:
        if config.mode == "abstract":
            for i in range(start, stop):
                rng = subject_stream(seed, i)
                alpha = sample_alpha(config.distribution, rng)
                predictor = ConfusionPredictor.calibrated(config.profile, alpha)
                records.append(run_subject_abstract(alpha, config.max_rescans, predictor, rng))
        else:
            anatomy = config.anatomy
            for i in range(start, stop):
                # The plain generator: kinematic draws are not scalar uniforms.
                rng = subject_stream(seed, i).generator
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
        located = _located(exc, f"subject {i}, seed {seed}, config {config.digest[:12]}")
        if located is None:
            raise
        raise located from exc
    return records


def _simulate_chunk(config: "ExperimentConfig", start: int, stop: int) -> list[SubjectTable]:
    """Simulate subjects [start, stop) and return their columns, one table per
    block of subjects (one empty table when there are none)."""
    return [
        SubjectTable.from_records(
            _simulate_records(config, lo, min(lo + _RECORDS_PER_TABLE, stop)), config.rates
        )
        for lo in range(start, stop, _RECORDS_PER_TABLE)
    ] or [SubjectTable.from_records([], config.rates)]


def run_cohort(config: "ExperimentConfig") -> SimulationReport:
    """Simulate every subject of the configured cohort.

    Results are bit-identical for a fixed master seed regardless of
    ``config.workers``: subjects consume only their own streams and chunks
    are reassembled in subject order.  The abstract closed-form ratio is None
    where it cannot be had: a zero-mean population, whose baseline cost is 0,
    one whose integral the Gauss rules fail to resolve, or one whose ratio
    leaves the range of doubles.
    """
    n = config.n_subjects
    workers = config.workers
    chunk = max(1, -(-n // (workers * 8))) if workers > 1 else max(1, n)
    bounds = [(s, min(s + chunk, n)) for s in range(0, n, chunk)] or [(0, 0)]

    if workers == 1 or n <= chunk:
        chunks = [_simulate_chunk(config, s, e) for s, e in bounds]
    else:
        # Imported here, not with the module: runs on one worker never pay
        # for loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # The pool may start all its workers at once, so it gets no more
        # than there are chunks or CPUs.
        pool_size = min(workers, len(bounds), os.cpu_count() or 1)
        starts, stops = zip(*bounds)
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            chunks = list(pool.map(_simulate_chunk, [config] * len(bounds), starts, stops))
    table = SubjectTable.concatenate(list(itertools.chain.from_iterable(chunks)))

    analytic = None
    if config.mode == "abstract":
        dist, profile = config.distribution, config.profile
        quotient, budget = config.rates.quotient, config.max_rescans
        try:
            analytic = _finite(expected_cost_ratio(dist, profile, quotient, budget))
        except (UndefinedRatio, QuadratureFailure):
            pass

    aggregates = _aggregate(table, config.rates, analytic)
    return SimulationReport(
        mode=config.mode,
        config=config.echo,
        table=table,
        aggregates=aggregates,
        manifest=config.manifest_dict(),
    )


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
def empirical_vs_analytic(
    report: SimulationReport,
    dist: "FailureDistribution",
    rates: CostRates,
) -> ComparisonSummary:
    """Compare an abstract-mode report against the closed-form population costs.

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

    analytic_original = _dist_mean_alpha(dist) * rates.correction_cost
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
