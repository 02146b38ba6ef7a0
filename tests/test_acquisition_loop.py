"""Per-subject loop behavior, cohort simulation, and analytic cross-checks."""

import dataclasses
import functools
import hashlib
import itertools
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    SubjectRow,
    abstract_records,
    kinematic_record,
    kinematic_records,
    subject_draws,
    subject_row,
    table_row,
    table_rows,
)
from scanloop import acquisition_loop
from scanloop.acquisition_loop import (
    SUBJECT_COLUMNS,
    ComparisonSummary,
    SubjectRecord,
    SubjectTable,
    _simulate_table,
    empirical_vs_analytic,
    run_cohort,
    run_subject_abstract,
    run_subject_kinematic,
)
from scanloop.config import parse_config
from scanloop.cost_model import (
    CostRates,
    PredictorProfile,
    false_positive_rate,
    new_cost_at,
)
from scanloop.predictor_model import ConfusionPredictor, ScorePredictor
from scanloop.probe_kinematics import (
    GuidanceNoise,
    LearnerPolicy,
    ProbePose,
    SubjectAnatomy,
    image_quality,
    perturb_pose,
)
from scanloop.streams import block_uniforms, subject_stream

RATES = CostRates(rescan_cost=0.1, correction_cost=1.0)
PROFILE = PredictorProfile(precision=0.8, recall=0.8)


def _row(record):
    """The row ``from_records`` derives from one record."""
    return table_row(SubjectTable.from_records([record], RATES), 0)


def _abstract_config(
    n, seed=0, workers=1, alpha=0.2, precision=0.8, recall=0.8, max_rescans=50
):
    return parse_config(
        f"""
        [cohort]
        mode = abstract
        subjects = {n}
        seed = {seed}
        workers = {workers}

        [distribution]
        family = point_mass
        alpha = {alpha}

        [predictor]
        kind = confusion
        precision = {precision}
        recall = {recall}

        [costs]
        rescan = 0.1
        correction = 1.0

        [policy]
        max_rescans = {max_rescans}
        """
    )


# The [kinematics] section of _kinematic_config, key by key.
KINEMATICS = dict(
    translation_scale=10.0,
    rotation_scale=0.5,
    failure_cutoff=0.5,
    start_offset_t=8.0,
    start_offset_r=0.3,
    gain=0.8,
    guidance_noise_t=0.5,
    guidance_noise_r=0.02,
    motor_noise_t=0.2,
    motor_noise_r=0.01,
)


def _kinematic_config(
    n, seed=0, workers=1, threshold=0.7, noise_scale=0.05, max_rescans=10, **kinematics
):
    """A kinematic config; ``kinematics`` replaces keys of ``KINEMATICS``."""
    lines = [f"{key} = {value}" for key, value in {**KINEMATICS, **kinematics}.items()]
    section = "\n        ".join(lines)
    return parse_config(
        f"""
        [cohort]
        mode = kinematic
        subjects = {n}
        seed = {seed}
        workers = {workers}

        [predictor]
        kind = score
        noise_scale = {noise_scale}

        [costs]
        rescan = 0.1
        correction = 1.0

        [policy]
        max_rescans = {max_rescans}
        threshold = {threshold}

        [kinematics]
        {section}
        """
    )


# _kinematic_config's noise settings for an exact learner and scorer
NOISELESS = dict(
    noise_scale=0.0,
    gain=1.0,
    guidance_noise_t=0.0,
    guidance_noise_r=0.0,
    motor_noise_t=0.0,
    motor_noise_r=0.0,
)


class TestRunSubjectAbstract:
    def test_never_failing_subject_costs_nothing(self):
        max_rescans = 50
        alpha = 0.0
        predictor = ConfusionPredictor.calibrated(PROFILE, alpha)
        for i in range(50):
            rec = _row(run_subject_abstract(alpha, max_rescans, predictor, subject_draws(1, i)))
            assert rec.scans == 1
            assert rec.rescans == 0
            assert rec.cost == 0.0
            assert not rec.first_fail and not rec.final_true_fail

    def test_nearly_certain_failure_exhausts_budget(self):
        # With alpha close to 1 and a perfect predictor, almost every subject
        # fails and is flagged on all scans, runs out the 3-rescan budget, and
        # pays a correction on the fourth and last scan.
        max_rescans = 3
        alpha = 0.999
        predictor = ConfusionPredictor.calibrated(PredictorProfile(1.0, 1.0), alpha)
        exhausted = 0
        for i in range(200):
            rec = _row(run_subject_abstract(alpha, max_rescans, predictor, subject_draws(2, i)))
            assert rec.rescans <= 3
            if rec.scans == 4 and rec.final_true_fail:
                assert rec.cost == pytest.approx(3 * 0.1 + 1.0)
                exhausted += 1
        # each run hits the pattern with probability 0.999^4 ~ 0.996
        assert exhausted >= 190

    def test_accounting_identity_and_budget(self):
        max_rescans = 5
        alpha = 0.4
        predictor = ConfusionPredictor.calibrated(PROFILE, alpha)
        for i in range(300):
            rec = _row(run_subject_abstract(alpha, max_rescans, predictor, subject_draws(3, i)))
            assert rec.scans == rec.rescans + 1
            assert rec.rescans <= max_rescans
            expected = rec.rescans * RATES.rescan_cost + (
                RATES.correction_cost if rec.final_true_fail else 0.0
            )
            assert rec.cost == pytest.approx(expected)

    def test_zero_budget_always_single_scan(self):
        max_rescans = 0
        alpha = 0.5
        predictor = ConfusionPredictor.calibrated(PROFILE, alpha)
        for i in range(100):
            rec = _row(run_subject_abstract(alpha, max_rescans, predictor, subject_draws(4, i)))
            assert rec.scans == 1
            assert rec.first_fail == rec.final_true_fail

    def test_mean_cost_matches_closed_form(self):
        max_rescans = 50
        alpha = 0.2
        predictor = ConfusionPredictor.calibrated(PROFILE, alpha)
        records = [
            run_subject_abstract(alpha, max_rescans, predictor, subject_draws(5, i))
            for i in range(20_000)
        ]
        costs = SubjectTable.from_records(records, RATES).cost
        expected = new_cost_at(alpha, PROFILE, RATES)
        se = costs.std(ddof=1) / math.sqrt(len(costs))
        assert abs(costs.mean() - expected) < 3.0 * se


class TestRunSubjectKinematic:
    ANATOMY = SubjectAnatomy(
        translation_scale=10.0,
        rotation_scale=0.5,
        failure_cutoff=0.5,
    )
    QUIET = GuidanceNoise(guidance_noise_t=0.0, guidance_noise_r=0.0)

    def test_start_at_target_accepts_immediately(self):
        # zero start offsets put the kernel's start pose on the optimum
        config = _kinematic_config(
            1, max_rescans=5, start_offset_t=0.0, start_offset_r=0.0, **NOISELESS
        )
        rec = run_subject_kinematic(config, subject_stream(7, 0))
        assert rec.scans == 1
        assert rec.quality == [1.0]
        assert _row(rec).cost == 0.0
        assert not _row(rec).final_true_fail

    def test_single_noiseless_correction_reaches_quality_one(self):
        start = ProbePose(position=(4.0, 0.0, 0.0), orientation=(1.0, 0.0, 0.0, 0.0))
        q0 = image_quality(start, self.ANATOMY)
        assert q0 < 0.9
        rec = kinematic_record(
            self.ANATOMY,
            start,
            5,
            ScorePredictor(noise_scale=0.0, threshold=0.9),
            self.QUIET,
            LearnerPolicy(gain=1.0, motor_noise_t=0.0, motor_noise_r=0.0),
            subject_stream(8, 0),
        )
        assert rec.scans == 2
        assert rec.quality == [pytest.approx(q0, rel=1e-15), 1.0]
        assert _row(rec).cost == pytest.approx(RATES.rescan_cost)
        assert not _row(rec).final_true_fail

    def test_partial_gain_traces_geometric_quality_curve(self):
        # gain 0.5 halves the offset each move; with threshold 1.0 every scan
        # is flagged, so the trajectory walks the predicted contraction curve
        # until the budget runs out.
        start = ProbePose(position=(16.0, 0.0, 0.0), orientation=(1.0, 0.0, 0.0, 0.0))
        rec = kinematic_record(
            self.ANATOMY,
            start,
            5,
            ScorePredictor(noise_scale=0.0, threshold=1.0),
            self.QUIET,
            LearnerPolicy(gain=0.5, motor_noise_t=0.0, motor_noise_r=0.0),
            subject_stream(9, 0),
        )
        assert rec.scans == 6
        assert len(rec.quality) == 6
        for k, quality in enumerate(rec.quality):
            expected = math.exp(-((16.0 * 0.5**k / 10.0) ** 2))
            assert quality == pytest.approx(expected, rel=1e-12)
        assert not _row(rec).final_true_fail  # residual offset 0.5 gives quality ~0.9975
        assert _row(rec).cost == pytest.approx(5 * RATES.rescan_cost)

    def test_flag_tallies_consistent_under_noise(self):
        learner = LearnerPolicy(gain=0.8, motor_noise_t=0.3, motor_noise_r=0.02)
        noise = GuidanceNoise(guidance_noise_t=0.5, guidance_noise_r=0.03)
        for i in range(100):
            rng = subject_stream(10, i)
            start = ProbePose(position=(8.0, 1.0, -2.0), orientation=(1.0, 0.0, 0.0, 0.0))
            rec = kinematic_record(
                self.ANATOMY,
                start,
                8,
                ScorePredictor(noise_scale=0.1, threshold=0.7),
                noise,
                learner,
                rng,
            )
            row = _row(rec)
            assert row.scans == len(rec.quality) == len(rec.scores)
            assert rec.flags == [score < 0.7 for score in rec.scores]
            assert row.flagged_failed_scans <= min(row.flagged_scans, row.failed_scans)
            assert row.first_fail == (rec.quality[0] < 0.5)
            assert row.final_true_fail == (rec.quality[-1] < 0.5)


SHIPPED_KINEMATIC = Path(__file__).resolve().parent.parent / "configs" / "kinematic_guided.ini"
# Configs that reach the kernel's rare branches: a rotation angle of 0 and
# exact convergence, long runs that draw more normals at each re-scan after
# the first (a score flags unless it is clipped to 1), no re-scan at all,
# a start at the optimum, an orientation that stays the identity (a rotation
# vector of norm 0), and rotations past pi (a quaternion with w < 0).
KERNEL_EDGE_CASES = {
    "exact_convergence": dict(NOISELESS, threshold=1.0),
    "long_runs": dict(threshold=1.0, max_rescans=30),
    "no_rescans": dict(max_rescans=0),
    "start_at_optimum": dict(start_offset_t=0.0, start_offset_r=0.0),
    "identity_orientation": dict(
        threshold=1.0, start_offset_r=0.0, guidance_noise_r=0.0, motor_noise_r=0.0
    ),
    "wide_rotations": dict(start_offset_r=3.0, guidance_noise_r=1.0, motor_noise_r=1.0),
}


def _kernel_config(case, seed, n):
    if case == "shipped":
        text = SHIPPED_KINEMATIC.read_text(encoding="utf-8")
        config = parse_config(text, seed_override=seed)
        return dataclasses.replace(config, n_subjects=n)
    return _kinematic_config(n, seed=seed, **KERNEL_EDGE_CASES[case])


class TestKinematicKernelAgainstOracle:
    # run_subject_kinematic writes perturb_pose, image_quality, score,
    # guidance_offset and apply_move out on floats and draws its normals in
    # two calls; on the same stream it must give the record of the step
    # functions, in every column's bits.
    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("case", ["shipped", *KERNEL_EDGE_CASES])
    def test_columns_equal_the_oracle(self, case, seed):
        n = 600
        config = _kernel_config(case, seed, n)
        records = [run_subject_kinematic(config, subject_stream(seed, i)) for i in range(n)]
        got = SubjectTable.from_records(records, config.rates)
        want = SubjectTable.from_records(kinematic_records(config, 0, n), config.rates)
        for name in ("alpha", "scans", "failed", "flagged", "quality", "score", *SUBJECT_COLUMNS):
            column, expected = getattr(got, name), getattr(want, name)
            assert column.dtype == expected.dtype, name
            assert column.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize(
        "normals",
        [
            (0.0,) * 6 + (1.0, -1.0),
            (0.0, -0.0, 0.0, 1.5, -0.0, 0.0, -0.7, -2.0),
            (1e-200, -1e-200, 1e-200, 0.5, 2.0, -3.0, 1e-200, -1.0),
        ],
        ids=["zeros", "signed_zeros", "tiny"],
    )
    def test_degenerate_normals_equal_the_oracle(self, normals):
        # Normals no Gaussian stream gives in practice: rotation axes of norm
        # below 1e-300, which both replace by a fixed axis, and zero angles.
        # Eight a period, so the first score's normal is the last of them and
        # each later re-scan's lands one earlier.
        config = _kinematic_config(1, threshold=1.0, max_rescans=6)

        class Scripted:
            """A stand-in stream that hands out ``normals`` in turn, cycling."""

            def __init__(self):
                self.next = itertools.cycle(normals).__next__

            def standard_normal(self, size=None):
                if size is None:
                    return self.next()
                return np.array([self.next() for _ in range(size)])

        rng = Scripted()
        start = perturb_pose(config.start_offset_t, config.start_offset_r, rng)
        args = config.max_rescans, config.score_predictor, config.guidance, config.learner
        want = kinematic_record(config.anatomy, start, *args, rng)
        got = run_subject_kinematic(config, Scripted())
        assert got.scans == want.scans > 1
        for column in ("fails", "flags", "quality", "scores"):
            got_bits, want_bits = (np.array(getattr(r, column)).tobytes() for r in (got, want))
            assert got_bits == want_bits, column

    def test_edge_cases_reach_their_branches(self):
        # what each edge case is there for shows in its columns
        tables = {
            case: _simulate_table(_kernel_config(case, 1, 600), 0, 600)
            for case in KERNEL_EDGE_CASES
        }
        exact = tables["exact_convergence"]
        assert (exact.scans == 2).all() and (exact.quality_at(None) == 1.0).all()
        assert (tables["long_runs"].scans > 2).sum() > 300
        assert (tables["no_rescans"].scans == 1).all()
        assert (tables["start_at_optimum"].quality_at(0) == 1.0).all()
        assert (tables["identity_orientation"].scans > 2).any()


class TestSubjectTable:
    def _records(self, n, kinematic=False):
        records = []
        if kinematic:
            anatomy = TestRunSubjectKinematic.ANATOMY
            for i in range(n):
                rng = subject_stream(20, i)
                start = ProbePose(position=(6.0, 0.0, 0.0), orientation=(1.0, 0.0, 0.0, 0.0))
                records.append(
                    kinematic_record(
                        anatomy,
                        start,
                        4,
                        ScorePredictor(noise_scale=0.1, threshold=0.8),
                        GuidanceNoise(guidance_noise_t=0.5, guidance_noise_r=0.02),
                        LearnerPolicy(gain=0.7, motor_noise_t=0.2, motor_noise_r=0.01),
                        rng,
                    )
                )
        else:
            alpha = 0.3
            predictor = ConfusionPredictor.calibrated(PROFILE, alpha)
            max_rescans = 6
            for i in range(n):
                records.append(
                    run_subject_abstract(alpha, max_rescans, predictor, subject_draws(21, i))
                )
        return records

    @pytest.mark.parametrize("kinematic", [False, True], ids=["abstract", "kinematic"])
    def test_rows_equal_the_scan_by_scan_sums(self, kinematic):
        records = self._records(40, kinematic)
        table = SubjectTable.from_records(records, RATES)
        assert len(table) == 40
        assert (len(table.quality) == table.scans.sum() > len(table)) == kinematic
        assert list(table_rows(table)) == [
            subject_row(i, record, RATES) for i, record in enumerate(records)
        ]

    def test_mismatched_columns_rejected(self):
        good = SubjectTable.from_records(self._records(5), RATES)
        drawn = dict(
            alpha=good.alpha,
            scans=good.scans,
            failed=good.failed,
            flagged=good.flagged,
            quality=good.quality,
            score=good.score,
            rates=RATES,
        )
        SubjectTable(**drawn)
        # one entry per subject, and one failure and one flag per scan
        for name, column in (
            ("scans", good.scans[:3]),
            ("scans", np.append(good.scans, 1)),
            ("failed", good.failed[:-1]),
            ("failed", np.append(good.failed, True)),
            ("flagged", good.flagged[:-1]),
            ("flagged", np.append(good.flagged, False)),
        ):
            with pytest.raises(ValueError, match=f"{name}.*mismatched"):
                SubjectTable(**{**drawn, name: column})

    @pytest.mark.parametrize(
        "make", [_abstract_config, _kinematic_config], ids=["abstract", "kinematic"]
    )
    def test_unit_holds_its_drawn_columns_until_one_derived_is_read(self, make):
        # a unit crosses the process pool as what its loops drew, and the
        # copy derives the same columns
        table = _simulate_table(make(512, seed=5), 0, 512)
        drawn = {"alpha", "scans", "failed", "flagged", "quality", "score", "rates"}
        assert set(vars(table)) == drawn
        copy = pickle.loads(pickle.dumps(table))
        assert set(vars(table)) == set(vars(copy)) == drawn
        for name in ("starts", *_ALL_COLUMNS):
            column, expected = getattr(copy, name), getattr(table, name)
            assert column.dtype == expected.dtype, name
            assert column.tobytes() == expected.tobytes(), name
        with pytest.raises(AttributeError, match="has no attribute 'tallies'"):
            table.tallies


# the columns a table stores, then those it derives
_ALL_COLUMNS = ("alpha", "scans", "failed", "flagged", "quality", "score", *SUBJECT_COLUMNS)


class TestTruncated:
    @pytest.mark.parametrize("n", [0, 700])
    @pytest.mark.parametrize("noise_scale", [0.0, 0.1])
    @pytest.mark.parametrize("max_rescans", [0, 1, 3, 10])
    def test_cut_run_is_the_run_at_the_lower_threshold(self, max_rescans, noise_scale, n):
        # a kinematic subject draws the same way whatever its threshold, so its
        # run at tau' is its run at 0.9 cut at its first scan not below tau'
        def table_at(tau):
            config = _kinematic_config(
                n, seed=67, threshold=tau, noise_scale=noise_scale, max_rescans=max_rescans
            )
            return run_cohort(config).table

        table = table_at(0.9)
        for tau in np.linspace(0.0, 0.9, 10).tolist():
            got, want = table.truncated(table.score < tau), table_at(tau)
            for name in _ALL_COLUMNS:
                column, expected = getattr(got, name), getattr(want, name)
                assert column.dtype == expected.dtype, (tau, name)
                assert column.tobytes() == expected.tobytes(), (tau, name)

    def test_all_flagged_keeps_every_scan(self):
        table = SubjectTable.from_records(
            [SubjectRecord(0.2, [True, False, True], [True, True, True])], RATES
        )
        got = table.truncated(np.ones(3, dtype=np.bool_))
        assert got.scans.tolist() == [3] and got.cost.tolist() == [2 * 0.1 + 1.0]
        got = table.truncated(np.array([True, False, True]))
        assert got.scans.tolist() == [2] and got.cost.tolist() == [0.1]
        assert got.flagged.tolist() == [True, False] and len(got.quality) == 0


@st.composite
def _outcomes(draw, max_rescans=st.integers(0, 6), subjects=st.integers(0, 12)):
    """(budget, records) as a loop with that re-scan budget could draw them:
    every scan but the last was flagged, and the last was not, unless the
    budget ran out with it still flagged.  All records are of one mode."""
    budget = draw(max_rescans)
    kinematic = draw(st.booleans())
    records = []
    for _ in range(draw(subjects)):
        scans = draw(st.integers(1, budget + 1))
        fails = draw(st.lists(st.booleans(), min_size=scans, max_size=scans))
        flags = [True] * (scans - 1) + [scans == budget + 1 and draw(st.booleans())]
        if kinematic:
            quality, scores = (
                draw(st.lists(st.floats(0.0, 1.0), min_size=scans, max_size=scans))
                for _ in range(2)
            )
            records.append(SubjectRecord(None, fails, flags, quality, scores))
        else:
            records.append(SubjectRecord(draw(st.floats(0.0, 1.0)), fails, flags))
    return budget, records


_RATES = st.builds(CostRates, st.floats(0.0, 10.0), st.floats(0.01, 10.0))

# dtypes of the derived columns, as subjects.csv formats them
_DTYPES = {
    "scans": np.int64,
    "rescans": np.int64,
    "first_fail": np.bool_,
    "final_true_fail": np.bool_,
    "cost": np.float64,
    "flagged_scans": np.int64,
    "failed_scans": np.int64,
    "flagged_failed_scans": np.int64,
}


def _assert_rows_are_the_scan_by_scan_sums(records, rates):
    table = SubjectTable.from_records(records, rates)
    assert {name: getattr(table, name).dtype for name in SUBJECT_COLUMNS} == _DTYPES
    assert table.alpha.dtype == table.quality.dtype == table.score.dtype == np.float64
    assert table.score.tolist() == [s for record in records for s in record.scores or ()]
    assert list(table_rows(table)) == [
        subject_row(i, record, rates) for i, record in enumerate(records)
    ]
    return table


class TestFromRecords:
    @given(outcomes=_outcomes(), rates=_RATES)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scan_by_scan_sums(self, outcomes, rates):
        _, records = outcomes
        _assert_rows_are_the_scan_by_scan_sums(records, rates)

    @given(outcomes=_outcomes(max_rescans=st.just(0)), rates=_RATES)
    @settings(max_examples=50, deadline=None)
    def test_zero_budget(self, outcomes, rates):
        _, records = outcomes
        table = _assert_rows_are_the_scan_by_scan_sums(records, rates)
        assert np.all(table.scans == 1) and np.all(table.first_fail == table.final_true_fail)

    def test_budget_used_up_with_the_last_scan_flagged(self):
        # budget 2: three flagged scans, the last kept although flagged
        records = [
            SubjectRecord(0.5, [True, False, True], [True, True, True]),
            SubjectRecord(0.5, [False, True, False], [True, True, True]),
        ]
        table = _assert_rows_are_the_scan_by_scan_sums(records, RATES)
        assert table.flagged_scans.tolist() == [3, 3]
        assert table.final_true_fail.tolist() == [True, False]
        assert table.cost.tolist() == [2 * 0.1 + 1.0, 2 * 0.1]

    def test_one_scan_subjects(self):
        records = [
            SubjectRecord(0.2, [True], [False]),
            SubjectRecord(0.2, [False], [False]),
            SubjectRecord(0.2, [True], [True]),
        ]
        table = _assert_rows_are_the_scan_by_scan_sums(records, RATES)
        assert table.rescans.tolist() == [0, 0, 0]
        assert table.cost.tolist() == [1.0, 0.0, 1.0]
        assert table.flagged_failed_scans.tolist() == [0, 0, 1]

    def test_no_records(self):
        table = _assert_rows_are_the_scan_by_scan_sums([], RATES)
        assert len(table) == len(table.quality) == 0

    @given(outcomes=_outcomes(subjects=st.integers(0, 30)), rates=_RATES, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_concatenated_blocks_equal_one_table(self, outcomes, rates, data):
        # run_cohort builds a table per block of subjects and concatenates
        # them; each block derives its columns from its own scan offsets.
        _, records = outcomes
        cuts = data.draw(st.lists(st.integers(0, len(records)), max_size=5))
        bounds = [0, *sorted(cuts), len(records)]
        blocks = [
            SubjectTable.from_records(records[a:b], rates) for a, b in zip(bounds, bounds[1:])
        ]
        got = SubjectTable.concatenate(blocks)
        want = SubjectTable.from_records(records, rates)
        for name in _ALL_COLUMNS:
            column, expected = getattr(got, name), getattr(want, name)
            assert column.dtype == expected.dtype, name
            assert column.tobytes() == expected.tobytes(), name


class TestQualityColumn:
    # Three subjects of 1, 3 and 2 scans: their qualities (and scores, here
    # the qualities halved) start at offsets 0, 1 and 4 of the flat columns.
    TRAJECTORIES = ((0.1,), (0.2, 0.3, 0.4), (0.5, 0.6))

    def _table(self):
        return SubjectTable.from_records(
            [
                SubjectRecord(
                    None,
                    [False] * len(t),
                    [True] * (len(t) - 1) + [False],
                    list(t),
                    [q / 2 for q in t],
                )
                for t in self.TRAJECTORIES
            ],
            RATES,
        )

    def test_flat_column_follows_subject_order(self):
        table = self._table()
        assert table.scans.tolist() == [1, 3, 2]
        assert table.quality.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        assert table.score.tolist() == [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]

    def test_first_last_and_carried_forward(self):
        table = self._table()
        assert table.quality_at(0).tolist() == [0.1, 0.2, 0.5]
        assert table.quality_at(None).tolist() == [0.1, 0.4, 0.6]
        # a subject that stopped before scan k keeps its last quality
        assert table.quality_at(1).tolist() == [0.1, 0.3, 0.6]
        assert table.quality_at(2).tolist() == [0.1, 0.4, 0.6]
        assert table.quality_at(7).tolist() == [0.1, 0.4, 0.6]

    def test_concatenate_appends_quality(self):
        table = self._table()
        both = SubjectTable.concatenate([table, table])
        assert both.quality.tolist() == 2 * table.quality.tolist()
        assert both.score.tolist() == 2 * table.score.tolist()
        assert both.quality_at(None).tolist() == [0.1, 0.4, 0.6] * 2

    def test_abstract_records_leave_it_empty(self):
        table = SubjectTable.from_records([SubjectRecord(0.2, [True, False], [True, False])], RATES)
        assert table.quality.dtype == np.float64 and len(table.quality) == 0
        assert table.score.dtype == np.float64 and len(table.score) == 0

    def test_length_must_match_scans(self):
        table = self._table()
        drawn = (table.alpha, table.scans, table.failed, table.flagged)
        empty = np.empty(0)
        # one entry per scan, or none
        SubjectTable(*drawn, empty, empty, RATES)
        for quality, score in (
            (table.quality[:5], table.score),
            (table.quality, table.score[:5]),
            (np.append(table.quality, 0.5), table.score),
            (table.quality, np.append(table.score, 0.5)),
        ):
            with pytest.raises(ValueError, match="quality or score"):
                SubjectTable(*drawn, quality, score, RATES)


@functools.cache
def _table_of_all_records(mode, n):
    """One ``from_records`` call over the whole cohort of ``_blockwise_config``."""
    config = _blockwise_config(mode, n, 1)
    oracle = abstract_records if mode == "abstract" else kinematic_records
    return SubjectTable.from_records(oracle(config, 0, n), config.rates)


def _blockwise_config(mode, n, workers):
    make = _abstract_config if mode == "abstract" else _kinematic_config
    return make(n, seed=5, workers=workers)


class TestBlockwiseTable:
    # Units of work turn records into columns at most 4096 subjects at a
    # time; the sizes straddle that bound and a pool's unit bounds.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["abstract", "kinematic"])
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
    def test_equals_one_table_of_all_records(self, n, mode, workers):
        got = run_cohort(_blockwise_config(mode, n, workers)).table
        want = _table_of_all_records(mode, n)
        assert len(got) == len(want) == n
        for name in ("alpha", *SUBJECT_COLUMNS):
            column, expected = getattr(got, name), getattr(want, name)
            assert column.dtype == expected.dtype, name
            assert column.tobytes() == expected.tobytes(), name
        for name in ("quality", "score"):
            column, expected = getattr(got, name), getattr(want, name)
            assert column.dtype == expected.dtype == np.float64, name
            assert column.tobytes() == expected.tobytes(), name
            assert (len(column) == 0) == (mode == "abstract" or n == 0), name


# One population per family; the uniform one puts a quarter of its subjects
# above alpha_max = 0.833 (p = r = 0.8), where the predictor saturates.
FAMILIES = {
    "point_mass": "family = point_mass\nalpha = 0.3",
    "uniform_saturating": "family = uniform\nlo = 0.5\nhi = 0.95",
    "beta": "family = beta\na = 2\nb = 8",
    "truncated_normal": "family = truncated_normal\nmu = 0.2\nsigma = 0.1\nlo = 0.0\nhi = 0.6",
    "histogram": "family = histogram\ncsv = bins.csv",
}
# Enough subjects that a table, and a pool chunk at workers 2 and 3, crosses
# subject 4096, where the largest unit ends.
ORACLE_SUBJECTS = 4400


@pytest.fixture(scope="module")
def bins(tmp_path_factory):
    """Directory holding the histogram population's ``bins.csv``."""
    base = tmp_path_factory.mktemp("bins")
    (base / "bins.csv").write_text("bin_upper_edge,mass\n0.1,5\n0.2,12\n0.3,8\n0.5,2\n")
    return base


def _population_text(body, max_rescans, workers=1):
    return f"""
[cohort]
mode = abstract
subjects = {ORACLE_SUBJECTS}
seed = 31
workers = {workers}

[distribution]
{body}

[predictor]
kind = confusion
precision = 0.8
recall = 0.8

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = {max_rescans}
"""


@functools.cache
def _family_config(bins, family, max_rescans, workers=1):
    return parse_config(_population_text(FAMILIES[family], max_rescans, workers), base_dir=bins)


def _digests(table):
    return {
        name: (getattr(table, name).dtype.str, hashlib.sha256(getattr(table, name)).hexdigest())
        for name in ("alpha", "quality", *SUBJECT_COLUMNS)
    }


@functools.cache
def _oracle_digests(bins, family, max_rescans, start=0, stop=ORACLE_SUBJECTS):
    config = _family_config(bins, family, max_rescans)
    return _digests(SubjectTable.from_records(abstract_records(config, start, stop), config.rates))


class TestAbstractEngineAgainstOracle:
    # The engine draws the failure rates a unit at a time and feeds each scan
    # loop from its block_uniforms row; the oracle reads every subject's
    # draws one at a time from scalar Philox blocks, then its Generator.
    # Every column must have the same bytes.
    @pytest.mark.parametrize("max_rescans", [0, 1, 3, 50])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_cohort_columns_equal_the_oracle(self, bins, family, max_rescans):
        got = run_cohort(_family_config(bins, family, max_rescans)).table
        assert _digests(got) == _oracle_digests(bins, family, max_rescans)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_range_across_a_block_edge(self, bins, family):
        # Two units, one each side of subject 4096, joined.
        config = _family_config(bins, family, 50)
        parts = [_simulate_table(config, 4000, 4096), _simulate_table(config, 4096, 4200)]
        assert _digests(SubjectTable.concatenate(parts)) == _oracle_digests(
            bins, family, 50, 4000, 4200
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("max_rescans", [3, 50])
    def test_a_unit_builds_at_most_one_generator(self, bins, monkeypatch, family, max_rescans):
        # Subjects whose scan loops draw past their block row, two uniforms a
        # scan, share one generator, built for the first of them; a unit in
        # which none does builds none.  The row holds 8 uniforms, or 7 after
        # the failure rate's.
        config = _family_config(bins, family, max_rescans)
        built = []
        real = np.random.Generator
        monkeypatch.setattr(np.random, "Generator", lambda bits: built.append(bits) or real(bits))
        table = _simulate_table(config, 0, 1024)
        row = 8 if family == "point_mass" else 7
        past_block = np.count_nonzero(2 * table.scans > row)
        assert past_block > 1 or (family, max_rescans) == ("point_mass", 3)
        assert len(built) == (past_block > 0)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_pooled_columns_equal_the_oracle(self, bins, family, workers):
        got = run_cohort(_family_config(bins, family, 3, workers)).table
        assert _digests(got) == _oracle_digests(bins, family, 3)

    def test_saturating_population_saturates(self, bins):
        table = run_cohort(_family_config(bins, "uniform_saturating", 50)).table
        saturated = table.alpha > 0.8 / (0.8 + 0.8 - 0.64)
        assert 0.2 < saturated.mean() < 0.3
        # every intact scan of a saturated subject is flagged
        intact = table.scans - table.failed_scans
        flagged_intact = table.flagged_scans - table.flagged_failed_scans
        assert np.array_equal(intact[saturated], flagged_intact[saturated])


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestUnitOperatingPoints:
    # A unit's false-positive rates come from one array expression over its
    # failure rates; each must carry the bits of the scalar rate.
    POPULATIONS = {
        # lo = 0 at the mode: the lowest uniforms give alpha = 0 exactly
        "truncated_normal_at_zero": (
            "family = truncated_normal\nmu = 0.0\nsigma = 0.1\nlo = 0.0\nhi = 0.6"
        ),
        "uniform_saturating": FAMILIES["uniform_saturating"],
        "histogram_5_bins": "family = histogram\ncsv = bins5.csv",
        "beta": FAMILIES["beta"],
    }

    @pytest.fixture
    def config(self, tmp_path, request):
        (tmp_path / "bins5.csv").write_text(
            "bin_upper_edge,mass\n0.1,5\n0.2,12\n0.3,8\n0.5,2\n0.9,3\n"
        )
        text = _population_text(self.POPULATIONS[request.param], 50)
        return parse_config(text, base_dir=tmp_path)

    @pytest.mark.parametrize("config", list(POPULATIONS), indirect=True)
    def test_array_rates_equal_the_scalar_rates(self, config):
        # the block's uniforms, and the lowest and highest ones there are
        ends = [0.0, 5e-324, np.nextafter(1.0, 0.0)]
        u = np.concatenate((ends, block_uniforms(31, 0, 4096)[:, 0]))
        alphas = config.distribution.inverse_cdf(u)
        rates = false_positive_rate(alphas, config.profile)
        scalar = [false_positive_rate(a, config.profile) for a in alphas.tolist()]
        assert rates.dtype == np.float64
        assert _bits(rates) == _bits(scalar)

    @pytest.mark.parametrize("config", list(POPULATIONS), indirect=True)
    def test_engine_predictors_are_the_calibrated_ones(self, config, monkeypatch):
        seen = []
        run = acquisition_loop.run_subject_abstract

        def spy(alpha, max_rescans, predictor, draws):
            seen.append((alpha, predictor))
            return run(alpha, max_rescans, predictor, draws)

        monkeypatch.setattr(acquisition_loop, "run_subject_abstract", spy)
        _simulate_table(config, 4000, 4096)
        assert len(seen) == 96
        for alpha, predictor in seen:
            assert type(predictor) is ConfusionPredictor
            expected = ConfusionPredictor.calibrated(config.profile, alpha)
            assert _bits(predictor) == _bits(expected)

    @pytest.mark.parametrize("n, units", [(1, 1), (4096, 4), (5000, 5)])
    def test_point_mass_calibrates_once_per_unit(self, monkeypatch, n, units):
        calls = []
        calibrated = vars(ConfusionPredictor)["calibrated"].__func__

        def counting(cls, profile, base_rate):
            calls.append(base_rate)
            return calibrated(cls, profile, base_rate)

        monkeypatch.setattr(ConfusionPredictor, "calibrated", classmethod(counting))
        table = run_cohort(_abstract_config(n, seed=3, alpha=0.3)).table
        assert calls == [0.3] * units
        assert len(table) == n


class TestRunCohort:
    def test_empty_cohort(self):
        report = run_cohort(_abstract_config(0))
        assert len(report.table) == 0
        agg = report.aggregates
        assert agg.subjects == 0
        assert agg.mean_cost is None
        assert agg.empirical_cost_ratio is None
        assert agg.analytic_cost_ratio == pytest.approx(0.375)
        assert report.config.manifest["master_seed"] == 0
        assert len(report.config.manifest["config_digest"]) == 64

    def test_point_mass_cohort_matches_analytic_ratio(self):
        report = run_cohort(_abstract_config(50_000, seed=13))
        agg = report.aggregates
        assert agg.analytic_cost_ratio == pytest.approx(0.375)
        summary = empirical_vs_analytic(report)
        assert summary.empirical_cost_ratio == pytest.approx(
            agg.empirical_cost_ratio
        )
        assert abs(summary.z_cost_ratio) < 3.0
        assert abs(summary.z_mean_cost) < 3.0

    @pytest.mark.parametrize("taken", [0, 1])
    def test_units_a_sink_leaves_are_drawn_after_it_returns(self, taken):
        # 2 500 subjects make 3 units at one worker; a sink that stops early
        # still gets the aggregates of the whole cohort.
        config = _abstract_config(2500, seed=17)
        seen = []

        def sink(units):
            seen.extend(start for start, _ in itertools.islice(units, taken))

        report = run_cohort(config, sink)
        assert report.table is None and seen == [0][:taken]
        assert report.aggregates == run_cohort(config).aggregates

    def test_worker_count_does_not_change_results(self):
        tables = [run_cohort(_abstract_config(1200, seed=17, workers=w)).table for w in (1, 3)]
        for col in (
            "alpha",
            "cost",
            "scans",
            "rescans",
            "first_fail",
            "final_true_fail",
            "flagged_scans",
            "failed_scans",
            "flagged_failed_scans",
        ):
            assert np.array_equal(getattr(tables[0], col), getattr(tables[1], col)), col

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """Stands an in-process pool in for the process pool; the list it
        returns gets the (pool size, units) of every pool made."""
        import concurrent.futures

        pools = []

        class SerialPool:
            """Stands in for the process pool: records its size and units,
            maps in-process."""

            def __init__(self, max_workers):
                self.units = []
                pools.append((max_workers, self.units))

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, configs, starts, stops):
                self.units += zip(starts, stops)
                return map(fn, configs, starts, stops)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return pools

    def test_pool_never_larger_than_chunks_or_cpus(self, monkeypatch, serial_pool):
        import scanloop.acquisition_loop as loop

        reference = run_cohort(_abstract_config(100, seed=53)).table
        # an unknown CPU count runs on one worker, with no pool
        for cpus, n, expected in ((4, 3, [3]), (4, 100, [4]), (None, 100, [])):
            monkeypatch.setattr(loop.os, "cpu_count", lambda: cpus)
            serial_pool.clear()
            table = run_cohort(_abstract_config(n, seed=53, workers=10_000)).table
            assert [size for size, _ in serial_pool] == expected
            assert np.array_equal(table.cost, reference.cost[:n])

    def test_units_sized_from_the_pool_tile_the_cohort(self, monkeypatch, serial_pool):
        # workers = 10**6 on 2 CPUs is a pool of 2, its units sized from it:
        # an eighth of a worker's share, 1250.
        import scanloop.acquisition_loop as loop

        monkeypatch.setattr(loop.os, "cpu_count", lambda: 2)
        table = run_cohort(_abstract_config(20_000, seed=59, workers=10**6)).table
        ((size, units),) = serial_pool
        assert size == 2
        assert [stop for _, stop in units] == [start for start, _ in units[1:]] + [20_000]
        # 8 units a worker, all full
        assert {stop - start for start, stop in units} == {1250}
        assert len(units) == 16 and units[-1] == (15 * 1250, 20_000)
        want = run_cohort(_abstract_config(20_000, seed=59)).table
        for name in _ALL_COLUMNS:
            assert getattr(table, name).tobytes() == getattr(want, name).tobytes(), name

    def test_first_subjects_pinned(self):
        # Exact rows of the first subjects at a fixed seed, so a change to the
        # loops, the table's tallies or the streams shows up as a diff.
        # Abstract: budget 3 (subject 13 ends at it intact, subject 21 still
        # failing), flags on intact scans (subjects 4, 13, 17 to 19 and 21);
        # kinematic: a four-scan subject.
        abstract = run_cohort(
            _abstract_config(22, seed=42, alpha=0.5, precision=0.7, recall=0.9, max_rescans=3)
        ).table
        assert list(table_rows(abstract)) == [
            SubjectRow(0, 0.5, 1, 0, False, False, 0.0, 0, 0, 0),
            SubjectRow(1, 0.5, 3, 2, True, False, 0.2, 2, 2, 2),
            SubjectRow(2, 0.5, 1, 0, False, False, 0.0, 0, 0, 0),
            SubjectRow(3, 0.5, 1, 0, False, False, 0.0, 0, 0, 0),
            SubjectRow(4, 0.5, 2, 1, False, False, 0.1, 1, 0, 0),
            SubjectRow(5, 0.5, 2, 1, True, False, 0.1, 1, 1, 1),
            SubjectRow(6, 0.5, 1, 0, False, False, 0.0, 0, 0, 0),
            SubjectRow(7, 0.5, 1, 0, True, True, 1.0, 0, 1, 0),
            SubjectRow(8, 0.5, 1, 0, False, False, 0.0, 0, 0, 0),
            SubjectRow(9, 0.5, 1, 0, False, False, 0.0, 0, 0, 0),
            SubjectRow(10, 0.5, 1, 0, False, False, 0.0, 0, 0, 0),
            SubjectRow(11, 0.5, 1, 0, True, True, 1.0, 0, 1, 0),
            SubjectRow(12, 0.5, 4, 3, True, False, 0.30000000000000004, 3, 3, 3),
            SubjectRow(13, 0.5, 4, 3, False, False, 0.30000000000000004, 4, 2, 2),
            SubjectRow(14, 0.5, 2, 1, True, False, 0.1, 1, 1, 1),
            SubjectRow(15, 0.5, 2, 1, True, False, 0.1, 1, 1, 1),
            SubjectRow(16, 0.5, 1, 0, False, False, 0.0, 0, 0, 0),
            SubjectRow(17, 0.5, 3, 2, True, False, 0.2, 2, 1, 1),
            SubjectRow(18, 0.5, 3, 2, False, False, 0.2, 2, 1, 1),
            SubjectRow(19, 0.5, 2, 1, False, False, 0.1, 1, 0, 0),
            SubjectRow(20, 0.5, 1, 0, False, False, 0.0, 0, 0, 0),
            SubjectRow(21, 0.5, 4, 3, True, True, 1.3, 4, 3, 3),
        ]
        kinematic = run_cohort(_kinematic_config(4, seed=42, threshold=0.95, noise_scale=0.1))
        assert list(table_rows(kinematic.table)) == [
            SubjectRow(
                0, None, 3, 2, False, False, 0.2, 2, 0, 0,
                (0.5598937980864115, 0.9904611648074202, 0.9893701602382191),
            ),
            SubjectRow(
                1, None, 2, 1, True, False, 0.1, 1, 1, 1,
                (0.33358374750749026, 0.9465204680350449),
            ),
            SubjectRow(
                2, None, 2, 1, False, False, 0.1, 1, 0, 0,
                (0.5929848274613939, 0.9785460131932856),
            ),
            SubjectRow(
                3, None, 4, 3, True, False, 0.30000000000000004, 3, 1, 1,
                (0.13263043457751605, 0.9165100510797437, 0.9981233364222925, 0.9912953925450447),
            ),
        ]

    @pytest.mark.parametrize(
        "mu, sigma, lo, hi, alphas",
        [
            # central: the quantile's middle branch, and its near tail (subject 13)
            (0.2, 0.1, 0.0, 0.6, (
                0.24249208407999315, 0.0972465644143056, 0.24294054663692477,
                0.24392759518218968, 0.2540721001883746, 0.1006042821239379,
                0.2494923179458282, 0.14990234514664827, 0.26629731745035257,
                0.27773916002056487, 0.3236270511869205, 0.17893631401383858,
                0.07701673779081886, 0.3538664442503642,
            )),
            # mirrored, lo 12.5 sigma above mu: the far lower tail, beyond exp(-25)
            (0.05, 0.02, 0.3, 0.7, (
                0.30169452577663325, 0.3002256188239498, 0.301702234264331,
                0.30171928010762233, 0.3019008800994956, 0.3002407484961477,
                0.3018174428620258, 0.3005486536992036, 0.30213549427410685,
                0.302371014081185, 0.30347595764985114, 0.30081887700766186,
                0.30014754822364004, 0.30434931520668973,
            )),
        ],
    )
    def test_truncated_normal_alphas_pinned(self, mu, sigma, lo, hi, alphas):
        # Exact failure rates of the first subjects at a fixed seed, so a
        # change to any bit of the normal CDF or its inverse shows up.
        text = f"""
[cohort]
mode = abstract
subjects = {len(alphas)}
seed = 42

[distribution]
family = truncated_normal
mu = {mu}
sigma = {sigma}
lo = {lo}
hi = {hi}

[predictor]
kind = confusion
precision = 0.8
recall = 0.8

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = 50
"""
        assert tuple(run_cohort(parse_config(text)).table.alpha.tolist()) == alphas

    def test_kinematic_worker_count_does_not_change_results(self):
        reports = [run_cohort(_kinematic_config(300, seed=19, workers=w)) for w in (1, 3)]
        assert np.array_equal(reports[0].table.cost, reports[1].table.cost)
        assert reports[0].table.quality.tobytes() == reports[1].table.quality.tobytes()
        assert reports[0].table.score.tobytes() == reports[1].table.score.tobytes()

    def test_kinematic_cohort_improves_quality(self):
        agg = run_cohort(_kinematic_config(300, seed=23)).aggregates
        assert agg.mean_final_quality > agg.mean_initial_quality
        assert agg.mean_initial_quality < 0.5
        assert agg.mean_final_quality > 0.8

    def test_mean_qualities_equal_the_loop_over_rows(self):
        report = run_cohort(_kinematic_config(300, seed=23))
        paths = [row.quality_trajectory for row in table_rows(report.table)]
        assert report.aggregates.mean_initial_quality == float(np.mean([p[0] for p in paths]))
        assert report.aggregates.mean_final_quality == float(np.mean([p[-1] for p in paths]))

    def test_rescans_monotone_in_threshold(self):
        # Shared per-subject streams and fixed draw counts couple the runs:
        # raising the flag threshold can only extend each subject's loop.
        low = run_cohort(_kinematic_config(250, seed=29, threshold=0.6)).table
        high = run_cohort(_kinematic_config(250, seed=29, threshold=0.85)).table
        assert np.all(low.rescans <= high.rescans)
        assert low.rescans.sum() < high.rescans.sum()

    def test_aggregates_recomputable_from_table(self):
        report = run_cohort(_abstract_config(2_000, seed=31, alpha=0.3))
        table, agg = report.table, report.aggregates
        assert agg.total_scans == table.scans.sum()
        assert agg.total_rescans == table.rescans.sum()
        assert agg.total_corrections == table.final_true_fail.sum()
        assert agg.total_cost == pytest.approx(table.cost.sum())
        flagged = table.flagged_scans.sum()
        hits = table.flagged_failed_scans.sum()
        assert agg.empirical_precision == pytest.approx(hits / flagged)
        assert agg.empirical_recall == pytest.approx(hits / table.failed_scans.sum())


class TestEmpiricalVsAnalytic:
    def test_point_mass_point_three_reference(self):
        config = _abstract_config(20_000, seed=37, alpha=0.3)
        report = run_cohort(config)
        summary = empirical_vs_analytic(report)
        assert isinstance(summary, ComparisonSummary)
        assert summary.analytic_cost_ratio == pytest.approx(0.24 / 0.56)
        assert summary.analytic_original_cost == pytest.approx(0.3)
        assert summary.analytic_new_cost == pytest.approx(0.3 * 0.24 / 0.56)
        assert abs(summary.z_cost_ratio) < 3.0
        assert abs(summary.z_mean_cost) < 3.0

    def test_single_subject_reports_no_spread(self):
        report = run_cohort(_abstract_config(1, seed=41, alpha=0.3))
        summary = empirical_vs_analytic(report)
        assert summary.subjects == 1
        assert summary.empirical_cost_se is None
        assert summary.empirical_ratio_se is None
        assert summary.z_mean_cost is None
        assert summary.z_cost_ratio is None

    def test_never_flagging_predictor_gives_ratio_exactly_one(self):
        # recall 0 never flags anything, so the loop is the baseline flow and
        # the paired estimator must return exactly 1 (not merely close).
        config = _abstract_config(5_000, seed=43, recall=0.0)
        report = run_cohort(config)
        summary = empirical_vs_analytic(report)
        assert summary.empirical_cost_ratio == 1.0
        assert summary.analytic_cost_ratio == 1.0
        assert report.aggregates.empirical_cost_ratio == 1.0

    def test_report_without_analytic_ratio_rejected(self):
        # alpha = 0: the baseline cost is 0, so there is no ratio to compare
        report = run_cohort(_abstract_config(50, seed=59, alpha=0.0))
        assert report.aggregates.analytic_cost_ratio is None
        with pytest.raises(ValueError, match="analytic"):
            empirical_vs_analytic(report)

    @pytest.mark.parametrize("budget, ratio", [(0, 1.0), (1, 0.5), (2, 0.4), (3, 0.38)])
    def test_small_budgets_agree_with_the_closed_form(self, budget, ratio):
        # alpha = 0.2, p = r = 0.8: f = 0.2 per scan, and the budgeted closed
        # form gives 1, 0.5, 0.4, 0.38 where the unbounded one gives 0.375.
        report = run_cohort(_abstract_config(20_000, seed=61, max_rescans=budget))
        summary = empirical_vs_analytic(report)
        assert summary.analytic_cost_ratio == pytest.approx(ratio, rel=1e-14)
        if budget == 0:
            assert summary.empirical_cost_ratio == 1.0
        else:
            assert abs(summary.z_cost_ratio) <= 3.0

    def test_saturated_subjects_agree_with_the_closed_form(self):
        # alpha = 0.5 above alpha_max = 0.32 at p = 0.3, r = 0.9: q = 1, and each
        # scan is flagged with probability 0.95.
        report = run_cohort(
            _abstract_config(20_000, seed=67, alpha=0.5, precision=0.3, recall=0.9, max_rescans=5)
        )
        summary = empirical_vs_analytic(report)
        assert report.table.flagged_scans.sum() > 0.9 * report.table.scans.sum()
        assert abs(summary.z_cost_ratio) <= 3.0

    def test_kinematic_report_rejected(self):
        report = run_cohort(_kinematic_config(5, seed=47))
        with pytest.raises(ValueError, match="no analytic cost ratio"):
            empirical_vs_analytic(report)

    def test_empty_cohort_rejected(self):
        report = run_cohort(_abstract_config(0))
        with pytest.raises(ValueError, match="empty"):
            empirical_vs_analytic(report)
