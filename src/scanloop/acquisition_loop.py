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

Cohorts are cut into contiguous units of work, which may fan out over worker
processes; because every subject consumes only its own draws (``streams``),
results are bit-identical for a fixed master seed no matter the worker count.
A run may hand each unit on as it is drawn and keep only what its aggregates
read (``KeptColumns``).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from math import atan2, cos, exp, sin, sqrt
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

from .alpha_distributions import mean_alpha as _dist_mean_alpha
from .alpha_distributions import PointMass, expected_cost_ratio
from .cost_model import CostRates, false_positive_rate
from .errors import QuadratureFailure, UndefinedDraw, UndefinedRatio
from .predictor_model import ConfusionPredictor
from .streams import block_uniforms, subject_streams, uniforms_past_blocks

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


def run_subject_kinematic(config: "ExperimentConfig", rng: np.random.Generator) -> SubjectRecord:
    """One kinematic subject of ``config`` on its stream ``rng``: a start pose
    around the optimum, then pose-driven quality and guided re-scans.

    A scan truly fails when its quality is below the subject's cutoff and is
    flagged when its noisy score is below the predictor's threshold; each
    re-scan applies a guidance offset before the next scan, so scans are
    dependent by design.

    This is ``probe_kinematics.perturb_pose`` for the start pose, then per
    scan ``image_quality`` and ``predictor_model.score`` and, before each
    re-scan, ``guidance_offset`` and ``apply_move``, written out on floats:
    the same IEEE operations in the same order, so the same bits.  The
    stream gives the same normals in the same order too, in fewer calls:
    ``standard_normal(n)`` yields what successive smaller calls would.  One
    call of 23 covers the start pose (7), the first score (1) and the first
    re-scan, and one of 15 each later re-scan: the guidance offset (7), the
    move (7) and the score (1).
    """
    anatomy, predictor = config.anatomy, config.score_predictor
    guidance, learner = config.guidance, config.learner
    t_scale, r_scale = config.start_offset_t, config.start_offset_r
    scale_t, scale_r = anatomy.translation_scale, anatomy.rotation_scale
    cutoff = anatomy.failure_cutoff
    noise, threshold = predictor.noise_scale, predictor.threshold
    guide_t, guide_r = guidance.guidance_noise_t, guidance.guidance_noise_r
    gain, motor_t, motor_r = learner.gain, learner.motor_noise_t, learner.motor_noise_r

    n0, n1, n2, ax, ay, az, an, eps, *normals = rng.standard_normal(23).tolist()
    # perturb_pose: a Gaussian position and a random small rotation
    px, py, pz = t_scale * n0, t_scale * n1, t_scale * n2
    angle = r_scale * an
    norm = sqrt(ax * ax + ay * ay + az * az)
    if norm < 1e-300:  # degenerate draw; any fixed axis works
        ax, ay, az, norm = 1.0, 0.0, 0.0, 1.0
    k = angle / norm
    x, y, z = k * ax, k * ay, k * az
    angle = sqrt(x * x + y * y + z * z)
    if angle == 0.0:
        qw, qx, qy, qz = 1.0, 0.0, 0.0, 0.0
    else:
        half = 0.5 * angle
        s = sin(half)
        qw, qx, qy, qz = cos(half), s * (x / angle), s * (y / angle), s * (z / angle)
    norm = sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    qw, qx, qy, qz = qw / norm, qx / norm, qy / norm, qz / norm

    trajectory: list[float] = []
    scores: list[float] = []
    fails: list[bool] = []
    flags: list[bool] = []
    for scan in range(config.max_rescans + 1):
        if scan:
            if scan > 1:
                normals = rng.standard_normal(15).tolist()
            n0, n1, n2, ax, ay, az, an, m0, m1, m2, bx, by, bz, bn, eps = normals

            # guidance_offset: the conjugate orientation composed with a
            # random rotation of scale guide_r, as a canonical rotation vector
            angle = guide_r * an
            norm = sqrt(ax * ax + ay * ay + az * az)
            if norm < 1e-300:
                ax, ay, az, norm = 1.0, 0.0, 0.0, 1.0
            k = angle / norm
            x, y, z = k * ax, k * ay, k * az
            angle = sqrt(x * x + y * y + z * z)
            if angle == 0.0:
                rw, rx, ry, rz = 1.0, 0.0, 0.0, 0.0
            else:
                half = 0.5 * angle
                s = sin(half)
                rw, rx, ry, rz = cos(half), s * (x / angle), s * (y / angle), s * (z / angle)
            cx, cy, cz = -qx, -qy, -qz
            w = qw * rw - cx * rx - cy * ry - cz * rz
            x = qw * rx + cx * rw + cy * rz - cz * ry
            y = qw * ry - cx * rz + cy * rw + cz * rx
            z = qw * rz + cx * ry - cy * rx + cz * rw
            norm = sqrt(w * w + x * x + y * y + z * z)
            w, x, y, z = w / norm, x / norm, y / norm, z / norm
            if w < 0.0:  # q and -q are the same rotation; keep the short way around
                w, x, y, z = -w, -x, -y, -z
            vec_norm = sqrt(x * x + y * y + z * z)
            if vec_norm < 1e-300:
                ox, oy, oz = 0.0, 0.0, 0.0
            else:
                k = 2.0 * atan2(vec_norm, w) / vec_norm
                ox, oy, oz = k * x, k * y, k * z
            tx, ty, tz = -px + guide_t * n0, -py + guide_t * n1, -pz + guide_t * n2

            # apply_move: the gain-scaled step, then a random motor rotation
            x, y, z = gain * ox, gain * oy, gain * oz
            angle = sqrt(x * x + y * y + z * z)
            if angle == 0.0:
                sw, sx, sy, sz = 1.0, 0.0, 0.0, 0.0
            else:
                half = 0.5 * angle
                s = sin(half)
                sw, sx, sy, sz = cos(half), s * (x / angle), s * (y / angle), s * (z / angle)
            angle = motor_r * bn
            norm = sqrt(bx * bx + by * by + bz * bz)
            if norm < 1e-300:
                bx, by, bz, norm = 1.0, 0.0, 0.0, 1.0
            k = angle / norm
            x, y, z = k * bx, k * by, k * bz
            angle = sqrt(x * x + y * y + z * z)
            if angle == 0.0:
                rw, rx, ry, rz = 1.0, 0.0, 0.0, 0.0
            else:
                half = 0.5 * angle
                s = sin(half)
                rw, rx, ry, rz = cos(half), s * (x / angle), s * (y / angle), s * (z / angle)
            w = qw * sw - qx * sx - qy * sy - qz * sz
            x = qw * sx + qx * sw + qy * sz - qz * sy
            y = qw * sy - qx * sz + qy * sw + qz * sx
            z = qw * sz + qx * sy - qy * sx + qz * sw
            qw = w * rw - x * rx - y * ry - z * rz
            qx = w * rx + x * rw + y * rz - z * ry
            qy = w * ry - x * rz + y * rw + z * rx
            qz = w * rz + x * ry - y * rx + z * rw
            norm = sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
            qw, qx, qy, qz = qw / norm, qx / norm, qy / norm, qz / norm
            px = px + gain * tx + motor_t * m0
            py = py + gain * ty + motor_t * m1
            pz = pz + gain * tz + motor_t * m2

        # image_quality, then score
        d_t = sqrt(px * px + py * py + pz * pz)
        d_r = 2.0 * atan2(sqrt(qx * qx + qy * qy + qz * qz), abs(qw))
        quality = exp(-((d_t / scale_t) ** 2) - (d_r / scale_r) ** 2)
        noisy = min(max(quality + noise * eps, 0.0), 1.0)
        trajectory.append(quality)
        scores.append(noisy)
        fails.append(quality < cutoff)
        flagged = noisy < threshold
        flags.append(flagged)
        if not flagged:
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


# A unit of work as a run hands it on: its first subject's index and its table.
Unit = tuple[int, SubjectTable]


class KeptColumns:
    """What a cohort run keeps of its subjects for its aggregates, one unit
    of subjects at a time (``add``), so the units themselves can be dropped.

    Per subject it keeps ``cost`` and ``first_fail`` and, for a kinematic
    run, ``scans`` and the per-scan ``quality`` (both empty otherwise); for
    the cohort, the integer sums ``total_scans``, ``total_corrections`` and
    those of the three per-subject scan tallies, at the cost ``rates``.  The
    per-subject arrays span the whole cohort, so the float aggregates reduce
    them exactly as they would the joined table's columns, however the
    cohort was split.
    """

    def __init__(self, n: int, rates: CostRates, kinematic: bool):
        self.rates, self.kinematic = rates, kinematic
        self.cost = np.empty(n)
        self.first_fail = np.empty(n, dtype=bool)
        self.scans = np.empty(n if kinematic else 0, dtype=np.int64)
        self.quality = np.zeros(0)
        self._quality: list[np.ndarray] = []
        self.total_scans = self.total_corrections = 0
        self.flagged_scans = self.failed_scans = self.flagged_failed_scans = 0

    @classmethod
    def of(cls, table: SubjectTable, kinematic: bool) -> "KeptColumns":
        """What a run keeps of the whole ``table``."""
        kept = cls(len(table), table.rates, kinematic)
        kept.add(0, table)
        kept.finish()
        return kept

    def add(self, start: int, unit: SubjectTable) -> None:
        """Keep what the aggregates read of ``unit``, the subjects from index
        ``start`` on."""
        where = slice(start, start + len(unit))
        self.cost[where] = unit.cost
        self.first_fail[where] = unit.first_fail
        failed, flagged = unit.failed, unit.flagged
        self.total_scans += len(failed)
        self.total_corrections += int(np.count_nonzero(unit.final_true_fail))
        self.flagged_scans += int(np.count_nonzero(flagged))
        self.failed_scans += int(np.count_nonzero(failed))
        self.flagged_failed_scans += int(np.count_nonzero(failed & flagged))
        if self.kinematic:
            self.scans[where] = unit.scans
            self._quality.append(unit.quality)

    def finish(self) -> None:
        """Join the kept qualities and find where each subject's scans start,
        once every unit has been added."""
        if self._quality:
            self.quality = np.concatenate(self._quality)
            self._quality = []
        self.starts = np.cumsum(self.scans) - self.scans
        self.rescans = self.scans - 1

    def __len__(self) -> int:
        return len(self.cost)

    # reads quality, starts and rescans, which a kinematic run keeps
    quality_at = SubjectTable.quality_at


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
    report files carry, the per-subject table (None when the run handed its
    units to a sink), the columns kept for the aggregates, and the
    aggregates."""

    config: "ExperimentConfig"
    table: SubjectTable | None
    kept: KeptColumns
    aggregates: CohortAggregates


def _finite(value: float) -> float | None:
    """``value``, or None where it left the range of doubles: JSON has no
    number for it."""
    return value if math.isfinite(value) else None


# numpy stays quiet when a sum or spread of extreme costs overflows: each
# figure that leaves the range of doubles is None
@np.errstate(over="ignore", invalid="ignore")
def _empirical_ratio(kept: KeptColumns) -> float | None:
    """Paired estimator: looped cost over the cost the same draws would have
    incurred with no loop (correction on first-scan failure), both at the
    kept columns' rates."""
    baseline = kept.rates.correction_cost * float(kept.first_fail.sum())
    if baseline == 0.0:
        return None
    return _finite(float(kept.cost.sum()) / baseline)


@np.errstate(over="ignore", invalid="ignore")  # as _empirical_ratio
def _aggregate(kept: KeptColumns, analytic_ratio: float | None) -> CohortAggregates:
    """The aggregates of the ``kept`` columns, whose costs are at their own
    rates, beside the closed-form ``analytic_ratio`` (None where there is
    none).  Counts and the mean re-scans come from the integer tallies; every
    other figure reduces a whole-cohort array."""
    n = len(kept)
    rescans = kept.total_scans - n
    flagged, failed, hits = kept.flagged_scans, kept.failed_scans, kept.flagged_failed_scans

    mean_initial = mean_final = None
    if kept.quality.size:
        mean_initial = float(kept.quality_at(0).mean())
        mean_final = float(kept.quality_at(None).mean())

    return CohortAggregates(
        subjects=n,
        total_scans=kept.total_scans,
        total_rescans=rescans,
        total_corrections=kept.total_corrections,
        total_cost=_finite(float(kept.cost.sum())),
        mean_cost=_finite(float(kept.cost.mean())) if n > 0 else None,
        # an integer sum below 2**53, so the quotient numpy's mean would give
        mean_rescans=rescans / n if n > 0 else None,
        empirical_precision=hits / flagged if flagged > 0 else None,
        empirical_recall=hits / failed if failed > 0 else None,
        empirical_cost_ratio=_empirical_ratio(kept),
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
    """Append the records of abstract subjects [start, stop) to ``records``.

    The failure rates are the inverse CDF on the first column of the unit's
    ``block_uniforms`` (a point mass draws none), their predictors are built
    once for the unit (false-positive rates in one array expression), and each
    scan loop reads the rest of its row, then its ``uniforms_past_blocks``, all
    from one generator built for the first subject that draws past its row.  A
    NaN rate raises ``UndefinedDraw`` once the subjects before it are appended.
    """
    seed, dist = config.master_seed, config.distribution
    profile, budget = config.profile, config.max_rescans
    uniforms, past_block = block_uniforms(seed, start, stop), uniforms_past_blocks(seed)
    if isinstance(dist, PointMass):
        alphas, rows = itertools.repeat(dist.alpha), uniforms.tolist()
        predictors = itertools.repeat(ConfusionPredictor.calibrated(profile, dist.alpha))
    else:
        alphas = dist.inverse_cdf(uniforms[:, 0])
        alphas = alphas[: np.flatnonzero(np.isnan(alphas)).min(initial=len(alphas))]
        rates = false_positive_rate(alphas, profile).tolist()
        alphas, rows = alphas.tolist(), uniforms[:, 1:].tolist()
        predictors = map(ConfusionPredictor, itertools.repeat(profile.recall), rates)
    for alpha, predictor, row in zip(alphas, predictors, rows):
        draws = itertools.chain(row, past_block(start + len(records)))
        records.append(run_subject_abstract(alpha, budget, predictor, draws))
    if len(records) < stop - start:
        raise UndefinedDraw(f"{dist}: betaincinv gives a NaN failure rate")


def _simulate_table(config: "ExperimentConfig", start: int, stop: int) -> SubjectTable:
    """The table of subjects [start, stop).  It holds only the drawn
    columns, which are all that joining it or sending it back from a worker
    process needs.  Kinematic subjects draw from ``subject_streams``.

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
            for rng in subject_streams(seed, start, stop):
                records.append(run_subject_kinematic(config, rng))
    except Exception as exc:
        i = start + len(records)
        located = _located(exc, f"subject {i}, seed {seed}, config {config.digest[:12]}")
        if located is None:
            raise
        raise located from exc
    return SubjectTable.from_records(records, config.rates)


def run_cohort(
    config: "ExperimentConfig", sink: Callable[[Iterator[Unit]], None] | None = None
) -> SimulationReport:
    """Simulate every subject of the configured cohort.

    Results are bit-identical for a fixed master seed regardless of
    ``config.workers``: subjects consume only their own streams and the units
    of work come in subject order.  At one worker a unit is 1 024 subjects.

    With a ``sink``, ``sink(units)`` gets the iterator of ``(start, unit)``
    pairs, each unit the ``SubjectTable`` of the subjects from index
    ``start`` on, drawn as the sink asks for it.  Each unit is kept
    (``KeptColumns.add``) as it passes and then left to the sink, so no more
    than a unit's table need be alive at once, and ``report.table`` is None;
    units the sink does not ask for are drawn after it returns.  Without a
    sink the units are joined into ``report.table``.  Either way the
    aggregates come from the kept columns, with the same bits.

    The abstract closed-form ratio is None where it cannot be had: a
    zero-mean population, whose baseline cost is 0, one whose integral the
    Gauss rules fail to resolve, or one whose ratio leaves the range of
    doubles.
    """
    n = config.n_subjects
    # The pool may start all its workers at once, so it gets no more than
    # there are CPUs.  A unit of work is 1 024 subjects at one worker, and
    # else an eighth of a worker's share, so that the workers finish together,
    # but at most 4 096 subjects, which bounds the table a unit holds.
    workers = min(config.workers, os.cpu_count() or 1)
    size = 1024 if workers == 1 else min(4096, max(1, -(-n // (8 * workers))))
    starts = range(0, n, size) or range(1)
    stops = [min(start + size, n) for start in starts]
    configs = [config] * len(starts)

    pool_size = min(workers, len(starts))
    if pool_size < 2:
        return _report(config, zip(starts, map(_simulate_table, configs, starts, stops)), sink)
    # Imported here, not with the module: runs on one worker never pay for
    # loading multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        units = zip(starts, pool.map(_simulate_table, configs, starts, stops))
        return _report(config, units, sink)


def _report(
    config: "ExperimentConfig",
    units: Iterator[Unit],
    sink: Callable[[Iterator[Unit]], None] | None,
) -> SimulationReport:
    """The report of ``units``, the whole cohort's in subject order, handed
    to ``sink`` when there is one (see ``run_cohort``)."""
    kinematic = config.mode == "kinematic"
    if sink is None:
        table = SubjectTable.concatenate([unit for _, unit in units])
        kept = KeptColumns.of(table, kinematic)
    else:
        table, kept = None, KeptColumns(config.n_subjects, config.rates, kinematic)

        def kept_units() -> Iterator[Unit]:
            for start, unit in units:
                kept.add(start, unit)
                yield start, unit

        stream = kept_units()
        sink(stream)
        for _ in stream:
            pass
        kept.finish()

    analytic = None
    if config.mode == "abstract":
        dist, profile = config.distribution, config.profile
        quotient, budget = config.rates.quotient, config.max_rescans
        try:
            analytic = _finite(expected_cost_ratio(dist, profile, quotient, budget))
        except (UndefinedRatio, QuadratureFailure):
            pass

    return SimulationReport(config, table, kept, _aggregate(kept, analytic))


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
    kept = report.kept
    n = len(kept)
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
        cost = kept.cost
        cost_se = _finite(float(cost.std(ddof=1) / math.sqrt(n)))
        if cost_se and agg.mean_cost is not None:
            z_cost = _finite((agg.mean_cost - analytic_new) / cost_se)
        if ratio is not None:
            baseline = rates.correction_cost * kept.first_fail.astype(float)
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
