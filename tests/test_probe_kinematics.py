"""Tests for 6-DOF pose errors, pose-driven quality, guided moves, and the scalar pose math."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import declared_norm, quat_from_axis_angle_numpy, quat_multiply_numpy_scalars
from scanloop.probe_kinematics import (
    GuidanceNoise,
    LearnerPolicy,
    PoseOffset,
    ProbePose,
    SubjectAnatomy,
    _norm,
    _quat_from_axis_angle,
    _quat_multiply,
    apply_move,
    guidance_offset,
    image_quality,
    perturb_pose,
    pose_error,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _pose(x=0.0, y=0.0, z=0.0, axis=None, angle=0.0) -> ProbePose:
    if axis is None or angle == 0.0:
        q = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        ax = np.asarray(axis, dtype=float)
        ax = ax / np.linalg.norm(ax)
        q = np.concatenate(([math.cos(angle / 2.0)], math.sin(angle / 2.0) * ax))
    return ProbePose((float(x), float(y), float(z)), tuple(q.tolist()))


def _random_pose(rng: np.random.Generator) -> ProbePose:
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return ProbePose(tuple((rng.standard_normal(3) * 50.0).tolist()), tuple(q.tolist()))


SUBJECT = SubjectAnatomy(translation_scale=10.0, rotation_scale=0.5, failure_cutoff=0.5)


# ---------------------------------------------------------------------------
# pose_error


def test_pose_error_identical_poses():
    assert pose_error(_pose()) == (0.0, 0.0)


def test_pose_error_pure_translation():
    d_t, d_r = pose_error(_pose(10, 0, 0))
    assert d_t == pytest.approx(10.0)
    assert d_r == 0.0


def test_pose_error_quarter_turn():
    d_t, d_r = pose_error(_pose(axis=[0, 0, 1], angle=math.pi / 2))
    assert d_t == 0.0
    assert d_r == pytest.approx(math.pi / 2, abs=1e-12)


def test_pose_error_handles_quaternion_double_cover():
    # q and -q encode the same rotation; -identity is the optimum's, not 2*pi away.
    origin = (0.0, 0.0, 0.0)
    assert pose_error(ProbePose(origin, (-1.0, 0.0, 0.0, 0.0)))[1] == 0.0
    d_r = pose_error(ProbePose(origin, (0.5, 0.5, 0.5, 0.5)))[1]
    assert d_r == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)
    assert pose_error(ProbePose(origin, (-0.5, -0.5, -0.5, -0.5)))[1] == d_r


def test_rotation_distance_within_zero_and_pi():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        assert 0.0 <= pose_error(_random_pose(rng))[1] <= math.pi + 1e-12


# ---------------------------------------------------------------------------
# image_quality


def test_quality_max_at_target():
    assert image_quality(_pose(), SUBJECT) == 1.0


def test_quality_one_translation_scale_out():
    q = image_quality(_pose(x=10.0), SUBJECT)
    assert q == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_quality_both_scales_out():
    pose = _pose(x=10.0, axis=[0, 1, 0], angle=0.5)
    q = image_quality(pose, SUBJECT)
    assert q == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_quality_bounds_and_uniqueness_of_max():
    rng = np.random.default_rng(7)
    for _ in range(500):
        pose = _random_pose(rng)
        q = image_quality(pose, SUBJECT)
        assert 0.0 <= q <= 1.0
        if q == 1.0:
            d_t, d_r = pose_error(pose)
            # quality 1 only in a negligible neighborhood of zero error
            assert d_t < 1e-7 and d_r < 1e-7


def test_quality_monotone_in_each_error():
    qs = [image_quality(_pose(x=d), SUBJECT) for d in (0.0, 1.0, 2.0, 5.0, 20.0)]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    qs = [
        image_quality(_pose(axis=[1, 0, 0], angle=t), SUBJECT)
        for t in (0.0, 0.1, 0.3, 1.0, 3.0)
    ]
    assert all(a > b for a, b in zip(qs, qs[1:]))


# ---------------------------------------------------------------------------
# guidance_offset


def test_zero_noise_guidance_is_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        start = _random_pose(rng)
        off = guidance_offset(start, GuidanceNoise(), rng)
        landed = apply_move(start, off, LearnerPolicy(gain=1.0), rng)
        d_t, d_r = pose_error(landed)
        assert d_t < 1e-9 and d_r < 1e-9


def test_zero_noise_guidance_at_target_is_zero_offset():
    rng = np.random.default_rng(2)
    off = guidance_offset(_pose(), GuidanceNoise(), rng)
    np.testing.assert_allclose(off.translation, 0.0, atol=1e-12)
    np.testing.assert_allclose(off.rotation, 0.0, atol=1e-12)


def test_guidance_translation_noise_is_zero_mean():
    rng = np.random.default_rng(3)
    start = _pose(x=30.0, y=-4.0, z=2.5)
    true_offset = -np.asarray(start.position)
    n = 100_000
    noise = GuidanceNoise(guidance_noise_t=1.0)
    sums = np.zeros(3)
    for _ in range(n):
        sums += guidance_offset(start, noise, rng).translation
    bound = 3.0 / math.sqrt(n)
    np.testing.assert_allclose(sums / n, true_offset, atol=bound)


def test_guidance_offset_angle_always_canonical():
    rng = np.random.default_rng(4)
    noise = GuidanceNoise(guidance_noise_t=5.0, guidance_noise_r=2.0)
    for _ in range(300):
        start = _random_pose(rng)
        off = guidance_offset(start, noise, rng)
        assert float(np.linalg.norm(off.rotation)) <= math.pi + 1e-12


# ---------------------------------------------------------------------------
# apply_move


def test_half_gain_pure_translation():
    rng = np.random.default_rng(5)
    start = _pose()
    off = PoseOffset((10.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    moved = apply_move(start, off, LearnerPolicy(gain=0.5), rng)
    np.testing.assert_array_equal(moved.position, [5.0, 0.0, 0.0])
    np.testing.assert_allclose(moved.orientation, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_zero_offset_zero_noise_is_identity():
    rng = np.random.default_rng(6)
    start = _pose(1.0, 2.0, 3.0, axis=[1, 1, 0], angle=0.7)
    still = PoseOffset((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    moved = apply_move(start, still, LearnerPolicy(1.0), rng)
    np.testing.assert_allclose(moved.position, start.position, atol=0)
    np.testing.assert_allclose(moved.orientation, start.orientation, atol=1e-15)


def test_one_step_convergence_from_100_random_poses():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        start = _random_pose(rng)
        off = guidance_offset(start, GuidanceNoise(), rng)
        landed = apply_move(start, off, LearnerPolicy(gain=1.0), rng)
        assert image_quality(landed, SUBJECT) == 1.0


def test_contraction_shrinks_both_errors():
    rng = np.random.default_rng(8)
    for gain in (0.25, 0.5, 0.9, 1.0):
        pose = _pose(x=20.0, axis=[0, 0, 1], angle=1.2)
        for _ in range(4):
            d_t0, d_r0 = pose_error(pose)
            off = guidance_offset(pose, GuidanceNoise(), rng)
            pose = apply_move(pose, off, LearnerPolicy(gain=gain), rng)
            d_t1, d_r1 = pose_error(pose)
            assert d_t1 == pytest.approx((1.0 - gain) * d_t0, rel=1e-9, abs=1e-12)
            assert d_r1 == pytest.approx((1.0 - gain) * d_r0, rel=1e-9, abs=1e-12)


def test_half_gain_translation_contraction_is_exact():
    rng = np.random.default_rng(9)
    pose = _pose(x=16.0)
    expected = 16.0
    for _ in range(6):
        off = guidance_offset(pose, GuidanceNoise(), rng)
        pose = apply_move(pose, off, LearnerPolicy(gain=0.5), rng)
        expected *= 0.5
        assert pose_error(pose)[0] == expected


def test_orientation_stays_normalized_through_noisy_chains():
    rng = np.random.default_rng(10)
    noise = GuidanceNoise(guidance_noise_t=2.0, guidance_noise_r=0.5)
    policy = LearnerPolicy(gain=0.8, motor_noise_t=1.0, motor_noise_r=0.3)
    pose = _random_pose(rng)
    for _ in range(200):
        off = guidance_offset(pose, noise, rng)
        pose = apply_move(pose, off, policy, rng)
        assert abs(float(np.linalg.norm(pose.orientation)) - 1.0) < 1e-9


def test_noise_free_chain_decays_past_underflowing_squares():
    # Gain 0.8 shrinks both errors fivefold a step.  Past about 1e-162 the
    # squares in the norm underflow: the errors read 0, the rotation left in
    # the orientation (about 1e-163) is too small to steer, and the
    # translation keeps shrinking through the subnormals to 0.
    rng = np.random.default_rng(16)
    pose = _pose(x=20.0, y=-7.0, z=3.0, axis=[1, 2, 3], angle=1.2)
    translations = []
    for _ in range(3000):
        off = guidance_offset(pose, GuidanceNoise(), rng)
        pose = apply_move(pose, off, LearnerPolicy(gain=0.8), rng)
        assert 0.0 < image_quality(pose, SUBJECT) <= 1.0
        assert abs(float(np.linalg.norm(pose.orientation)) - 1.0) < 1e-12
        translations.append(abs(pose.position[0]))
    assert any(0.0 < x < 1e-300 for x in translations)
    assert pose.position == (0.0, 0.0, 0.0) and pose_error(pose) == (0.0, 0.0)
    assert 0.0 < max(map(abs, pose.orientation[1:])) < 1e-162


# ---------------------------------------------------------------------------
# perturb_pose and determinism


def test_perturb_pose_zero_scales_is_identity():
    rng = np.random.default_rng(11)
    got = perturb_pose(0.0, 0.0, rng)
    np.testing.assert_allclose(got.position, 0.0, atol=0)
    np.testing.assert_array_equal(got.orientation, [1.0, 0.0, 0.0, 0.0])


def test_perturbed_orientations_are_unit_norm():
    rng = np.random.default_rng(13)
    for r_scale in (0.0, 0.1, 1.0, math.pi):
        for _ in range(200):
            pose = perturb_pose(8.0, r_scale, rng)
            assert abs(float(np.linalg.norm(pose.orientation)) - 1.0) < 1e-12


def test_perturb_pose_centers_on_optimum():
    rng = np.random.default_rng(12)
    n = 50_000
    acc = np.zeros(3)
    for _ in range(n):
        acc += perturb_pose(2.0, 0.1, rng).position
    np.testing.assert_allclose(acc / n, 0.0, atol=3.0 * 2.0 / math.sqrt(n))


def test_kinematic_operations_deterministic_per_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        pose = perturb_pose(5.0, 0.4, rng)
        off = guidance_offset(pose, GuidanceNoise(0.5, 0.1), rng)
        pose = apply_move(pose, off, LearnerPolicy(0.7, 0.2, 0.05), rng)
        return list(pose.position) + list(pose.orientation)

    assert run(77) == run(77)
    assert run(77) != run(78)


def test_fixed_draw_counts_keep_streams_aligned():
    # Zero-noise and nonzero-noise calls must consume identical stream amounts.
    def consumed(noise, policy):
        rng = np.random.default_rng(99)
        start = _pose(x=12.0)
        off = guidance_offset(start, noise, rng)
        apply_move(start, off, policy, rng)
        return rng.random()  # next draw reveals the stream position

    a = consumed(GuidanceNoise(), LearnerPolicy(1.0))
    b = consumed(GuidanceNoise(1.0, 0.2), LearnerPolicy(0.5, 0.3, 0.1))
    assert a == b


# ---------------------------------------------------------------------------
# scalar pose math


def test_norm_equals_numpy_elementwise_bit_for_bit():
    rng = np.random.default_rng(0)
    vectors = {3: [], 4: []}
    for size in (3, 4):
        for decade in range(-320, 151, 2):  # subnormal squares up to 1e300
            vectors[size].append(10.0**decade * rng.standard_normal((200, size)))
        decades = rng.integers(-320, 151, (20_000, size))  # every component at its own decade
        vectors[size].append(10.0**decades * rng.standard_normal((20_000, size)))
    for decade in range(-300, 0, 2):  # a unit quaternion's w next to a tiny vector part
        v = 10.0**decade * rng.standard_normal((100, 3))
        for w in (1.0, math.nextafter(1.0, 0.0)):
            vectors[4].append(np.column_stack((np.full(len(v), w), v)))
    for size, blocks in vectors.items():
        block = np.concatenate(blocks)
        got = np.array([_norm(v) for v in block.tolist()])
        assert got.tobytes() == declared_norm(block).tobytes(), size
        if size == 4:
            got = np.array([_norm(v) for v in block[:, 1:].tolist()])
            assert got.tobytes() == declared_norm(block[:, 1:]).tobytes()


def test_norm_past_the_largest_double_and_of_non_finite_components():
    assert _norm((0.0, 1e200, 0.0)) == math.inf
    assert _norm((1e200, 1.0, 2.0)) == math.inf
    assert _norm((1.0, 2.0, math.inf, 0.0)) == math.inf
    assert math.isnan(_norm((1.0, math.nan, 2.0)))
    assert _norm((7e153, 7e153, 7e153)) == declared_norm((7e153, 7e153, 7e153))


def test_quat_multiply_equals_numpy_scalar_product():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        got = _quat_multiply(a.tolist(), b.tolist())
        assert list(got) == quat_multiply_numpy_scalars(a, b).tolist()


def test_quat_from_axis_angle_equals_numpy_array_arithmetic():
    rng = np.random.default_rng(2)
    for scale in (1e-9, 0.1, 1.0, 3.0):
        for _ in range(500):
            v = scale * rng.standard_normal(3)
            assert list(_quat_from_axis_angle(v.tolist())) == quat_from_axis_angle_numpy(v).tolist()


GUIDED_CONFIG = """
[cohort]
mode = kinematic
subjects = 300
seed = 42
workers = 1

[predictor]
kind = score
noise_scale = 0.05

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = 10
threshold = 0.9

[kinematics]
translation_scale = 10.0
rotation_scale = 0.5
failure_cutoff = 0.5
start_offset_t = 8.0
start_offset_r = 0.3
guidance_noise_t = 1.0
guidance_noise_r = 0.05
gain = 0.8
motor_noise_t = 0.5
motor_noise_r = 0.02
"""


# Runs ``guidance`` and writes every scan's quality at full precision beside
# its outputs: the CSVs' 12 significant digits hide a last-bit difference.
GUIDANCE_CHILD = """
import sys
from pathlib import Path

from scanloop.acquisition_loop import run_cohort
from scanloop.cli import main
from scanloop.config import parse_config

config, out = sys.argv[1], Path(sys.argv[2])
assert main(["guidance", "--config", config, "--out", str(out)]) == 0
quality = run_cohort(parse_config(Path(config).read_text())).table.quality
(out / "quality.f64").write_bytes(quality.tobytes())
"""


def test_guidance_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its dot kernel for the CPU at run time; Nehalem's has no
    # fused multiply-add, so a norm taken through numpy would round otherwise.
    config = tmp_path / "guided.ini"
    config.write_text(GUIDED_CONFIG)
    pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    outputs = {}
    for kernel in (None, "Nehalem"):
        env = dict(os.environ, PYTHONPATH=pythonpath)
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        out = tmp_path / str(kernel)
        result = subprocess.run(
            [sys.executable, "-c", GUIDANCE_CHILD, str(config), str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs[kernel] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sorted(outputs[None]) == ["quality.f64", "quality_curve.csv", "trajectories.csv"]
    assert outputs["Nehalem"] == outputs[None]
