"""Quality predictors realized by their operating characteristics.

Two abstractions of a scan-quality classifier, without any learned model:

* ``ConfusionPredictor`` flips calibrated coins.  ``calibrated`` builds it
  from a target (precision, recall) operating point plus the failure base
  rate it must hold at; the implied false-positive rate is derived so that
  the marginal precision of the simulated flags is exactly the configured
  one.  Ignoring false positives would under-count re-scans and break
  agreement with the closed-form cost model.  Where no rate holds the
  operating point, it saturates at 1, as the closed form does.

* ``ScorePredictor`` perturbs the true image quality with Gaussian noise and
  flags scans whose noisy score falls strictly below a threshold, inducing
  a (precision, recall) point per threshold — the knob a threshold sweep
  turns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cost_model import PredictorProfile, false_positive_rate


class ConfusionPredictor(NamedTuple):
    """Coin-flip classifier: flags a failed scan with probability ``recall``
    and an intact one with ``false_positive_rate``.  Build it with
    ``calibrated``."""

    recall: float
    false_positive_rate: float

    @classmethod
    def calibrated(cls, profile: PredictorProfile, base_rate: float) -> "ConfusionPredictor":
        """The predictor holding ``profile`` at ``base_rate``: its recall, and the
        rate that makes marginal precision exact (``cost_model.false_positive_rate``)."""
        return cls(profile.recall, false_positive_rate(base_rate, profile))


def classify(true_fail: bool, predictor: ConfusionPredictor, rng: np.random.Generator) -> bool:
    """One flag decision; consumes exactly one uniform draw from the stream."""
    u = rng.random()
    if true_fail:
        return u < predictor.recall
    return u < predictor.false_positive_rate


@dataclass(frozen=True, slots=True)
class ScorePredictor:
    """Noisy quality scorer; flag when score < threshold (ties pass)."""

    noise_scale: float
    threshold: float


def score(
    true_quality: float, predictor: ScorePredictor, rng: np.random.Generator
) -> float:
    """Noisy quality estimate in [0, 1]; consumes exactly one Gaussian draw.

    The draw happens even at noise_scale 0 so that stream positions do not
    depend on the noise setting.
    """
    eps = rng.standard_normal()
    return min(max(true_quality + predictor.noise_scale * eps, 0.0), 1.0)
