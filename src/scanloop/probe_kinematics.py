"""Probe pose geometry: 6-DOF errors, pose-driven image quality, guidance.

A probe placement is a position (millimeters) plus an orientation (unit
quaternion, scalar first), measured from the subject's latent optimal
placement: the optimum is the origin with the identity orientation, so a
pose's position is its translation error and its orientation its rotation
error.  Guidance is exchanged as a 6-number offset — three translation
components and an axis-angle rotation vector — telling a learner how to
move toward the optimum.  Image quality decays as a separable squared
exponential in the translation and rotation distances from the optimum,
which keeps it in (0, 1], smooth, and anisotropic via per-subject scales.

Poses, offsets and quaternions are tuples of Python floats, and every
operation is scalar float arithmetic whose rounding is fixed by IEEE
binary64, so the results depend on the seed alone, not on the machine.
Poses and offsets are unchecked named tuples: the functions that build them
make each orientation unit-norm and each rotation angle canonical, and
``config.parse_config`` bounds every setting.

All random perturbations consume a fixed number of stream draws per call:
one block of seven Gaussians (three for a translation, three plus one for a
rotation), so replaying a stream through any sequence of these operations
is reproducible no matter which noise scales are zero.

These step functions are the reference for a kinematic subject's loop.  The
simulator's kernel, ``acquisition_loop.run_subject_kinematic(config, rng)``,
writes ``perturb_pose``, ``image_quality``, ``guidance_offset`` and
``apply_move`` out on floats with the same operations in the same order,
drawing a subject's normals in one call and then one per re-scan, and the
tests hold it to these functions' bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


def _norm(v: Sequence[float]) -> float:
    """Euclidean norm of a 3- or 4-vector, declared as the square root of the
    squares summed left to right: only IEEE ``*``, ``+`` and ``sqrt`` round it,
    so it equals numpy's elementwise ``np.sqrt(x*x + y*y + z*z)`` anywhere."""
    if len(v) == 3:
        x, y, z = v
        return math.sqrt(x * x + y * y + z * z)
    w, x, y, z = v
    return math.sqrt(w * w + x * x + y * y + z * z)


def _quat_normalize(q: Sequence[float]) -> tuple[float, float, float, float]:
    n = _norm(q)
    w, x, y, z = q
    return (w / n, x / n, y / n, z / n)


def _quat_multiply(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float, float, float]:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _quat_from_axis_angle(rotvec: Sequence[float]) -> tuple[float, float, float, float]:
    angle = _norm(rotvec)
    if angle == 0.0:
        return (1.0, 0.0, 0.0, 0.0)
    x, y, z = rotvec
    half = 0.5 * angle
    s = math.sin(half)
    return (math.cos(half), s * (x / angle), s * (y / angle), s * (z / angle))


def _axis_angle_from_quat(q: Sequence[float]) -> tuple[float, float, float]:
    """Canonical axis-angle vector with angle in [0, pi]."""
    w, x, y, z = q
    if w < 0.0:  # q and -q are the same rotation; keep the short way around
        w, x, y, z = -w, -x, -y, -z
    vec_norm = _norm((x, y, z))
    if vec_norm < 1e-300:
        return (0.0, 0.0, 0.0)
    k = 2.0 * math.atan2(vec_norm, w) / vec_norm
    return (k * x, k * y, k * z)


class ProbePose(NamedTuple):
    """Probe placement: position in mm, orientation as a unit quaternion (w, x, y, z)."""

    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float]


class PoseOffset(NamedTuple):
    """6-number move: translation in mm plus an axis-angle rotation vector
    whose norm, the rotation angle, lies in [0, pi]."""

    translation: tuple[float, float, float]
    rotation: tuple[float, float, float]


@dataclass(frozen=True, eq=False, slots=True)
class SubjectAnatomy:
    """Latent per-subject truth: quality scales and failure cutoff (poses are
    measured from the subject's optimal placement)."""

    translation_scale: float
    rotation_scale: float
    failure_cutoff: float


@dataclass(frozen=True, slots=True)
class LearnerPolicy:
    """How faithfully the learner executes guidance: gain plus motor noise."""

    gain: float
    motor_noise_t: float = 0.0
    motor_noise_r: float = 0.0


@dataclass(frozen=True, slots=True)
class GuidanceNoise:
    """Imperfection of the predicted 6-number offset."""

    guidance_noise_t: float = 0.0
    guidance_noise_r: float = 0.0


def pose_error(pose: ProbePose) -> tuple[float, float]:
    """(translation distance in mm, geodesic rotation distance in radians)
    from the optimum."""
    w, x, y, z = pose.orientation
    return _norm(pose.position), 2.0 * math.atan2(_norm((x, y, z)), abs(w))


def image_quality(pose: ProbePose, subject: SubjectAnatomy) -> float:
    """Quality in (0, 1]: 1 at the optimum, decaying with both error distances.

    The scan truly fails exactly when this drops below the subject's
    failure cutoff.
    """
    d_t, d_r = pose_error(pose)
    return math.exp(
        -((d_t / subject.translation_scale) ** 2) - (d_r / subject.rotation_scale) ** 2
    )


def _random_rotation_quat(
    scale: float, normals: Sequence[float]
) -> tuple[float, float, float, float]:
    """Small random rotation from four standard normals: the first three give
    a Gaussian axis direction and the last, times ``scale``, the angle.

    The normals are drawn even at scale 0 (where this returns the identity),
    so stream positions never depend on noise settings.
    """
    ax, ay, az, n = normals
    angle = scale * n
    norm = _norm((ax, ay, az))
    if norm < 1e-300:  # degenerate draw; any fixed axis works
        ax, ay, az, norm = 1.0, 0.0, 0.0, 1.0
    k = angle / norm
    return _quat_from_axis_angle((k * ax, k * ay, k * az))


def guidance_offset(
    pose: ProbePose, noise: GuidanceNoise, rng: np.random.Generator
) -> PoseOffset:
    """Predicted 6-number move from ``pose`` toward the optimum.

    With zero noise the offset is exact: applying it with gain 1 lands on the
    optimum.  Noise adds zero-mean Gaussians to the translation and composes
    a small random rotation onto the rotation part.
    """
    n0, n1, n2, *rotation = rng.standard_normal(7).tolist()
    s = noise.guidance_noise_t
    x, y, z = pose.position
    w, qx, qy, qz = pose.orientation
    q_noisy = _quat_multiply(
        (w, -qx, -qy, -qz), _random_rotation_quat(noise.guidance_noise_r, rotation)
    )
    return PoseOffset(
        (-x + s * n0, -y + s * n1, -z + s * n2),
        _axis_angle_from_quat(_quat_normalize(q_noisy)),
    )


def apply_move(
    current: ProbePose,
    offset: PoseOffset,
    policy: LearnerPolicy,
    rng: np.random.Generator,
) -> ProbePose:
    """Execute a guided move: gain-scaled offset plus the learner's motor noise."""
    n0, n1, n2, *rotation = rng.standard_normal(7).tolist()
    g, m = policy.gain, policy.motor_noise_t
    x, y, z = current.position
    tx, ty, tz = offset.translation
    rx, ry, rz = offset.rotation
    q_step = _quat_from_axis_angle((g * rx, g * ry, g * rz))
    q_motor = _random_rotation_quat(policy.motor_noise_r, rotation)
    orientation = _quat_multiply(_quat_multiply(current.orientation, q_step), q_motor)
    return ProbePose(
        (x + g * tx + m * n0, y + g * ty + m * n1, z + g * tz + m * n2),
        _quat_normalize(orientation),
    )


def perturb_pose(t_scale: float, r_scale: float, rng: np.random.Generator) -> ProbePose:
    """Random pose near the optimum: Gaussian translation, random small rotation.

    Used to draw each subject's start pose.
    """
    n0, n1, n2, *rotation = rng.standard_normal(7).tolist()
    return ProbePose(
        (t_scale * n0, t_scale * n1, t_scale * n2),
        _quat_normalize(_random_rotation_quat(r_scale, rotation)),
    )
