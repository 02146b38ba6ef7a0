"""Acceptance suite: one test per numbered criterion, at the stated tolerances.

Each test finishes by printing a single ``criterion N: PASS`` line (visible
with ``pytest -s`` or in captured output) summarizing the measured values.

Criterion 9 is a statement rather than a test: the original clinical
outcomes — real learner training trajectories and real ultrasound image
quality — cannot be reproduced at desk scale.  Criteria 2–8 stand in with
property-based checks of the model, simulator, and tooling, and criterion 1
is the only direct numeric reproduction available.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import (
    classify_many,
    cost_recursion_rhs,
    kinematic_first_fail_probability,
    kinematic_mean_quality,
    kinematic_translation_sd,
    mc_population_ratio,
    read_report_csv,
    sample_many,
)
from scanloop.acquisition_loop import empirical_vs_analytic, run_cohort
from scanloop.alpha_distributions import (
    Beta,
    EmpiricalHistogram,
    Uniform,
    expected_cost_ratio,
)
from scanloop.cli import main as cli_main
from scanloop.config import parse_config
from scanloop.cost_model import (
    CostRates,
    PredictorProfile,
    cost_ratio_at,
    new_cost_at,
)
from scanloop.predictor_model import ConfusionPredictor, false_positive_rate
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

PUBLISHED_PCT = (64.0, 57.0, 50.0, 37.0, 55.0, 69.0)

GRID_ALPHA = np.linspace(0.05, 0.95, 10)
GRID_P = np.linspace(0.1, 1.0, 10)
GRID_R = np.linspace(0.0, 1.0, 10)
# irregular quotients keep every grid point clear of the exact break-even
# boundary p == alpha + quotient, where the float comparison is ill-posed
GRID_Q = (0.013, 0.071, 0.137, 0.311, 0.523)

SIM_CONFIG = """
[cohort]
mode = abstract
subjects = {subjects}
seed = 42
workers = {workers}

[distribution]
family = {family}

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


def _sim_config(subjects: int, workers: int, family_block: str) -> str:
    return SIM_CONFIG.format(subjects=subjects, workers=workers, family=family_block)


def test_criterion_01_reference_table_reproduction(tmp_path):
    start = time.perf_counter()
    assert cli_main(["table1", "--out", str(tmp_path)]) == 0
    _, header, rows = read_report_csv(tmp_path / "table1.csv")
    elapsed = time.perf_counter() - start

    computed = [float(dict(zip(header, row))["reduction_pct"]) for row in rows]
    deltas = [float(dict(zip(header, row))["delta_pct"]) for row in rows]
    for pct, published in zip(computed[1:], PUBLISHED_PCT[1:]):
        assert abs(pct - published) <= 1.0
    assert round(computed[0], 1) == 62.5
    assert deltas[0] == pytest.approx(-1.5, abs=1e-9)
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS — reductions {[round(c, 1) for c in computed]}%, "
        f"row-1 delta {deltas[0]:+.1f} pts, {elapsed:.2f}s"
    )


def test_criterion_02_fixed_point_grid():
    start = time.perf_counter()
    rates_by_q = {q: CostRates(rescan_cost=q, correction_cost=1.0) for q in GRID_Q}
    checked = 0
    worst = 0.0
    for alpha in GRID_ALPHA:
        for p in GRID_P:
            for r in GRID_R:
                if p <= alpha * r:
                    continue
                profile = PredictorProfile(p, r)
                for q in GRID_Q:
                    rates = rates_by_q[q]
                    cost = new_cost_at(alpha, profile, rates)
                    rhs = cost_recursion_rhs(cost, alpha, profile, rates)
                    rel = abs(rhs - cost) / abs(cost)
                    worst = max(worst, rel)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(
        f"criterion 2: PASS — {checked} grid points, worst fixed-point residual "
        f"{worst:.2e} (tol 1e-12), {elapsed:.2f}s"
    )


def test_criterion_03_breakeven_equivalence():
    checked = 0
    counterexamples = 0
    for alpha in GRID_ALPHA:
        for p in GRID_P:
            for r in GRID_R:
                if r == 0.0 or p <= alpha * r:
                    continue
                profile = PredictorProfile(p, r)
                for q in GRID_Q:
                    ratio = cost_ratio_at(alpha, profile, q)
                    if (ratio < 1.0) != (p > alpha + q):
                        counterexamples += 1
                    checked += 1
    assert counterexamples == 0
    print(
        f"criterion 3: PASS — (ratio < 1) ⟺ (precision > failure rate + cost quotient) "
        f"on {checked} grid points, 0 counterexamples"
    )


def test_criterion_04_million_subject_cohort_matches_closed_form():
    config = parse_config(
        _sim_config(1_000_000, 1, "point_mass\nalpha = 0.2")
    )
    start = time.perf_counter()
    report = run_cohort(config)
    elapsed = time.perf_counter() - start

    summary = empirical_vs_analytic(report)
    assert summary.analytic_cost_ratio == pytest.approx(0.375, abs=1e-12)
    deviation = abs(summary.empirical_cost_ratio - 0.375)
    assert deviation <= 3.0 * summary.empirical_ratio_se
    assert elapsed < 60.0
    print(
        f"criterion 4: PASS — empirical ratio {summary.empirical_cost_ratio:.5f} vs 0.375, "
        f"|z| = {abs(summary.z_cost_ratio):.2f} (≤ 3), N=10⁶ in {elapsed:.1f}s single-threaded"
    )


def test_criterion_05_quadrature_vs_sampling():
    profile = PredictorProfile(0.8, 0.8)
    quotient = 0.1
    budget = 50
    cases = [
        ("Beta(2,8)", Beta(2.0, 8.0)),
        ("Uniform(0.1,0.3)", Uniform(0.1, 0.3)),
        (
            "5-bin histogram",
            EmpiricalHistogram.from_weights(
                edges=(0.1, 0.2, 0.3, 0.4, 0.5), weights=(5.0, 12.0, 8.0, 3.0, 2.0)
            ),
        ),
    ]
    details = []
    for label, dist in cases:
        quadrature = expected_cost_ratio(dist, profile, quotient, budget)
        alphas = sample_many(dist, np.random.default_rng(2024), 1_000_000)
        mc, se = mc_population_ratio(alphas, profile.precision, profile.recall, quotient, budget)
        assert abs(quadrature - mc) <= 3.0 * se, label
        details.append(f"{label}: |Δ|/SE = {abs(quadrature - mc) / se:.2f}")
    print(f"criterion 5: PASS — quadrature within 3 SE of 10⁶-sample MC ({'; '.join(details)})")


def test_criterion_06_predictor_calibration():
    alpha = 0.2
    profile = PredictorProfile(0.8, 0.8)
    derived_fpr = false_positive_rate(alpha, profile)
    assert derived_fpr == pytest.approx(0.05, abs=1e-15)

    n = 1_000_000
    rng = np.random.default_rng(99)
    true_fails = rng.random(n) < alpha
    predictor = ConfusionPredictor.calibrated(profile, alpha)
    flags = classify_many(true_fails, predictor, rng)

    hits = int((flags & true_fails).sum())
    precision_hat = hits / int(flags.sum())
    recall_hat = hits / int(true_fails.sum())
    se_precision = math.sqrt(0.8 * 0.2 / int(flags.sum()))
    se_recall = math.sqrt(0.8 * 0.2 / int(true_fails.sum()))
    assert abs(precision_hat - 0.8) <= 3.0 * se_precision
    assert abs(recall_hat - 0.8) <= 3.0 * se_recall
    print(
        f"criterion 6: PASS — precision {precision_hat:.4f}, recall {recall_hat:.4f} "
        f"within 3 binomial SE of 0.8 over 10⁶ scans; derived false-positive rate "
        f"{derived_fpr:.6f} == 0.05"
    )


def test_criterion_07_kinematic_convergence():
    anatomy = SubjectAnatomy(
        translation_scale=10.0,
        rotation_scale=0.5,
        failure_cutoff=0.5,
    )
    quiet = GuidanceNoise(0.0, 0.0)
    exact_learner = LearnerPolicy(gain=1.0, motor_noise_t=0.0, motor_noise_r=0.0)
    rng = np.random.default_rng(7)
    converged = 0
    for _ in range(100):
        start = perturb_pose(8.0, 0.3, rng)
        offset = guidance_offset(start, quiet, rng)
        landed = apply_move(start, offset, exact_learner, rng)
        converged += image_quality(landed, anatomy) == 1.0
    assert converged == 100

    half_learner = LearnerPolicy(gain=0.5, motor_noise_t=0.0, motor_noise_r=0.0)
    pose = ProbePose(position=(16.0, 0.0, 0.0), orientation=(1.0, 0.0, 0.0, 0.0))
    worst = 0.0
    for k in range(1, 7):
        offset = guidance_offset(pose, quiet, rng)
        pose = apply_move(pose, offset, half_learner, rng)
        expected = math.exp(-((16.0 * 0.5**k / 10.0) ** 2))
        rel = abs(image_quality(pose, anatomy) - expected) / expected
        worst = max(worst, rel)
    assert worst <= 1e-9
    print(
        f"criterion 7: PASS — 100/100 one-move runs hit quality exactly 1.0; "
        f"half-gain contraction curve within {worst:.2e} (tol 1e-9)"
    )


KINEMATIC_AR1_CONFIG = """
[cohort]
mode = kinematic
subjects = 20000
seed = 42
workers = 2

[predictor]
kind = score
noise_scale = 0.0

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = 10
threshold = 1.0

[kinematics]
translation_scale = 10.0
rotation_scale = 0.5
failure_cutoff = 0.5
start_offset_t = 8.0
start_offset_r = {start_offset_r}
guidance_noise_t = 1.0
guidance_noise_r = 0.0
gain = 0.8
motor_noise_t = 0.5
motor_noise_r = 0.0
"""


@pytest.mark.parametrize("start_offset_r", [0.0, 0.3])
def test_kinematic_quality_curve_matches_ar1_closed_form(start_offset_r):
    # threshold 1 with a noiseless score flags every scan, so every subject
    # runs all 11 scans and scan k sees the AR(1) error of k guided moves.
    config = parse_config(KINEMATIC_AR1_CONFIG.format(start_offset_r=start_offset_r))
    table = run_cohort(config).table
    n = len(table)
    assert (table.scans == 11).all()
    sds = kinematic_translation_sd(8.0, 0.8, 1.0, 0.5, 11)
    worst = 0.0
    for k, sd in enumerate(sds):
        quality = table.quality_at(k)
        expected = kinematic_mean_quality(k, sd, 0.8, start_offset_r, 10.0, 0.5)
        z = (quality.mean() - expected) / (quality.std(ddof=1) / math.sqrt(n))
        assert abs(z) < 3.0, f"scan {k}: mean quality {quality.mean()} vs {expected}"
        worst = max(worst, abs(z))
    if start_offset_r == 0.0:
        p = kinematic_first_fail_probability(8.0, 10.0, 0.5)
        z_fail = (table.first_fail.mean() - p) / math.sqrt(p * (1.0 - p) / n)
        assert abs(z_fail) < 3.0
        worst = max(worst, abs(z_fail))
    print(
        f"AR(1) oracle: PASS — mean quality at all 11 scans of {n} subjects"
        f" (start_offset_r {start_offset_r}) within 3 SE, largest |z| {worst:.2f}"
    )


def test_criterion_08_byte_identical_simulation_outputs(tmp_path):
    outputs = {}
    for label, workers in (("run1_w1", 1), ("run2_w1", 1), ("run3_w4", 4), ("run4_w8", 8)):
        config_path = tmp_path / f"{label}.ini"
        config_path.write_text(_sim_config(20_000, workers, "beta\na = 2\nb = 8"))
        out = tmp_path / label
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "scanloop",
                "simulate",
                "--config",
                str(config_path),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs[label] = (
            (out / "subjects.csv").read_bytes(),
            (out / "report.json").read_bytes(),
        )
    reference = outputs["run1_w1"]
    for label, payload in outputs.items():
        assert payload == reference, f"{label} differs from run1_w1"
    report = json.loads(reference[1])
    assert report["aggregates"]["subjects"] == 20_000
    print(
        "criterion 8: PASS — subjects.csv and report.json byte-identical across a "
        "repeated run and worker counts {1, 4, 8} (N=20,000, seed 42)"
    )
