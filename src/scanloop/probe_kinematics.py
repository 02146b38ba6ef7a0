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

All random perturbations consume a fixed number of stream draws per call
(three Gaussians per translation, three plus one per rotation), so replaying
a stream through any sequence of these operations is reproducible no matter
which noise scales are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_UNIT_TOL = 1e-9


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D real vector, computed as ``np.linalg.norm`` does."""
    return math.sqrt(v.dot(v))


def _quat_normalize(q: np.ndarray) -> np.ndarray:
    return q / _norm(q)


def _quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a.tolist()
    w2, x2, y2, z2 = b.tolist()
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def _quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _quat_from_axis_angle(rotvec: np.ndarray) -> np.ndarray:
    angle = _norm(rotvec)
    if angle == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    x, y, z = rotvec.tolist()
    half = 0.5 * angle
    s = math.sin(half)
    return np.array([math.cos(half), s * (x / angle), s * (y / angle), s * (z / angle)])


def _axis_angle_from_quat(q: np.ndarray) -> np.ndarray:
    """Canonical axis-angle vector with angle in [0, pi]."""
    if q[0] < 0.0:  # q and -q are the same rotation; keep the short way around
        q = -q
    vec_norm = _norm(q[1:])
    angle = 2.0 * math.atan2(vec_norm, float(q[0]))
    if vec_norm < 1e-300:
        return np.zeros(3)
    return (angle / vec_norm) * q[1:]


@dataclass(frozen=True, eq=False, slots=True)
class ProbePose:
    """Probe placement: position in mm, orientation as a unit quaternion [w,x,y,z]."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float)
        ori = np.asarray(self.orientation, dtype=float)
        if pos.shape != (3,):
            raise ValueError(f"position must be a 3-vector, got shape {pos.shape}")
        if ori.shape != (4,):
            raise ValueError(f"orientation must be a 4-vector, got shape {ori.shape}")
        norm = _norm(ori)
        if abs(norm - 1.0) > _UNIT_TOL:
            raise ValueError(f"orientation must be unit-norm, got norm {norm}")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", ori)


@dataclass(frozen=True, eq=False, slots=True)
class PoseOffset:
    """6-number move: translation in mm plus an axis-angle rotation vector.

    The rotation vector's norm is the rotation angle and must lie in [0, pi]
    (every rotation has such a canonical form).
    """

    translation: np.ndarray
    rotation: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.translation, dtype=float)
        r = np.asarray(self.rotation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got shape {t.shape}")
        if r.shape != (3,):
            raise ValueError(f"rotation must be a 3-vector, got shape {r.shape}")
        angle = _norm(r)
        if angle > math.pi + 1e-12:
            raise ValueError(f"rotation angle must be in [0, pi], got {angle}")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", r)


@dataclass(frozen=True, eq=False, slots=True)
class SubjectAnatomy:
    """Latent per-subject truth: quality scales and failure cutoff (poses are
    measured from the subject's optimal placement)."""

    translation_scale: float
    rotation_scale: float
    failure_cutoff: float

    def __post_init__(self) -> None:
        if self.translation_scale <= 0.0:
            raise ValueError(f"translation_scale must be > 0, got {self.translation_scale}")
        if self.rotation_scale <= 0.0:
            raise ValueError(f"rotation_scale must be > 0, got {self.rotation_scale}")
        if not 0.0 < self.failure_cutoff < 1.0:
            raise ValueError(f"failure_cutoff must be in (0, 1), got {self.failure_cutoff}")


@dataclass(frozen=True, slots=True)
class LearnerPolicy:
    """How faithfully the learner executes guidance: gain plus motor noise."""

    gain: float
    motor_noise_t: float = 0.0
    motor_noise_r: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.gain <= 1.0:
            raise ValueError(f"gain must be in (0, 1], got {self.gain}")
        if self.motor_noise_t < 0.0 or self.motor_noise_r < 0.0:
            raise ValueError("motor noise scales must be >= 0")


@dataclass(frozen=True, slots=True)
class GuidanceNoise:
    """Imperfection of the predicted 6-number offset."""

    guidance_noise_t: float = 0.0
    guidance_noise_r: float = 0.0

    def __post_init__(self) -> None:
        if self.guidance_noise_t < 0.0 or self.guidance_noise_r < 0.0:
            raise ValueError("guidance noise scales must be >= 0")


def pose_error(pose: ProbePose) -> tuple[float, float]:
    """(translation distance in mm, geodesic rotation distance in radians)
    from the optimum."""
    q = pose.orientation
    return _norm(pose.position), 2.0 * math.atan2(_norm(q[1:]), abs(float(q[0])))


def image_quality(pose: ProbePose, subject: SubjectAnatomy) -> float:
    """Quality in (0, 1]: 1 at the optimum, decaying with both error distances.

    The scan truly fails exactly when this drops below the subject's
    failure cutoff.
    """
    d_t, d_r = pose_error(pose)
    return math.exp(
        -((d_t / subject.translation_scale) ** 2) - (d_r / subject.rotation_scale) ** 2
    )


def _random_rotation_quat(scale: float, rng: np.random.Generator) -> np.ndarray:
    """Small random rotation: Gaussian axis direction, Gaussian angle of width `scale`.

    Always consumes four Gaussian draws, even at scale 0 (where it returns
    the identity), so stream positions never depend on noise settings.
    """
    axis = rng.standard_normal(3)
    angle = scale * float(rng.standard_normal())
    norm = _norm(axis)
    if norm < 1e-300:  # degenerate draw; any fixed axis works
        axis = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    return _quat_from_axis_angle((angle / norm) * axis)


def guidance_offset(
    pose: ProbePose, noise: GuidanceNoise, rng: np.random.Generator
) -> PoseOffset:
    """Predicted 6-number move from ``pose`` toward the optimum.

    With zero noise the offset is exact: applying it with gain 1 lands on the
    optimum.  Noise adds zero-mean Gaussians to the translation and composes
    a small random rotation onto the rotation part.
    """
    translation = -pose.position + noise.guidance_noise_t * rng.standard_normal(3)
    q_noisy = _quat_multiply(
        _quat_conjugate(pose.orientation), _random_rotation_quat(noise.guidance_noise_r, rng)
    )
    return PoseOffset(translation, _axis_angle_from_quat(_quat_normalize(q_noisy)))


def apply_move(
    current: ProbePose,
    offset: PoseOffset,
    policy: LearnerPolicy,
    rng: np.random.Generator,
) -> ProbePose:
    """Execute a guided move: gain-scaled offset plus the learner's motor noise."""
    position = (
        current.position
        + policy.gain * offset.translation
        + policy.motor_noise_t * rng.standard_normal(3)
    )
    q_step = _quat_from_axis_angle(policy.gain * offset.rotation)
    q_motor = _random_rotation_quat(policy.motor_noise_r, rng)
    orientation = _quat_multiply(_quat_multiply(current.orientation, q_step), q_motor)
    return ProbePose(position, _quat_normalize(orientation))


def perturb_pose(t_scale: float, r_scale: float, rng: np.random.Generator) -> ProbePose:
    """Random pose near the optimum: Gaussian translation, random small rotation.

    Used to draw each subject's start pose.
    """
    position = t_scale * rng.standard_normal(3)
    return ProbePose(position, _quat_normalize(_random_rotation_quat(r_scale, rng)))
