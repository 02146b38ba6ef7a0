"""Quality predictors realized by their operating characteristics.

Two abstractions of a scan-quality classifier, without any learned model:

* ``ConfusionPredictor`` flips calibrated coins.  It is built from a target
  (precision, recall) operating point plus the failure base rate it must
  hold at; the implied false-positive rate is derived so that the marginal
  precision of the simulated flags is exactly the configured one.  Ignoring
  false positives would under-count re-scans and break agreement with the
  closed-form cost model.  Where no rate holds the operating point, it
  saturates at 1, as the closed form does.

* ``ScorePredictor`` perturbs the true image quality with Gaussian noise and
  flags scans whose noisy score falls strictly below a threshold, inducing
  a (precision, recall) point per threshold — the knob a threshold sweep
  turns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cost_model import FailureRate, PredictorProfile, false_positive_rate


class _ConfusionPredictorFields(NamedTuple):
    profile: PredictorProfile
    base_rate: FailureRate
    false_positive_rate: float


class ConfusionPredictor(_ConfusionPredictorFields):
    """Coin-flip classifier calibrated to an operating point at a base rate.

    Built from the profile and the base rate; the false-positive rate is
    derived on construction (``cost_model.false_positive_rate``).  A named
    tuple, so that building one (once per abstract subject) is cheap;
    ``_make``, ``_replace`` and unpickling derive the rate again.
    """

    __slots__ = ()

    def __new__(cls, profile: PredictorProfile, base_rate: FailureRate) -> "ConfusionPredictor":
        return tuple.__new__(cls, (profile, base_rate, false_positive_rate(base_rate, profile)))

    @classmethod
    def _make(cls, iterable) -> "ConfusionPredictor":
        profile, base_rate, _ = iterable
        return cls(profile, base_rate)

    def __getnewargs__(self) -> tuple[PredictorProfile, FailureRate]:
        return self.profile, self.base_rate

    @classmethod
    def calibrated(
        cls, profile: PredictorProfile, base_rate: FailureRate
    ) -> "ConfusionPredictor":
        return cls(profile, base_rate)


def classify(true_fail: bool, predictor: ConfusionPredictor, rng: np.random.Generator) -> bool:
    """One flag decision; consumes exactly one uniform draw from the stream."""
    u = rng.random()
    if true_fail:
        return u < predictor.profile.recall
    return u < predictor.false_positive_rate


@dataclass(frozen=True, slots=True)
class ScorePredictor:
    """Noisy quality scorer; flag when score < threshold (ties pass)."""

    noise_scale: float
    threshold: float

    def __post_init__(self) -> None:
        if self.noise_scale < 0.0:
            raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")


def score(
    true_quality: float, predictor: ScorePredictor, rng: np.random.Generator
) -> float:
    """Noisy quality estimate in [0, 1]; consumes exactly one Gaussian draw.

    The draw happens even at noise_scale 0 so that stream positions do not
    depend on the noise setting.
    """
    eps = rng.standard_normal()
    return min(max(true_quality + predictor.noise_scale * eps, 0.0), 1.0)
