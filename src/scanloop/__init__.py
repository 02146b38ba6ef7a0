"""Expected-cost modeling and Monte Carlo simulation of quality-gated re-scan loops.

A screening loop acquires one scan per subject, predicts whether its
automatic segmentation will need manual correction, and prompts a guided
re-scan whenever the prediction flags the scan.  This package provides:

- closed-form expected costs of that loop for a predictor with a known
  (precision, recall) operating point (``cost_model``),
- population-level cost ratios integrated over a distribution of per-subject
  failure rates (``alpha_distributions``),
- synthetic predictors realizing an operating point or a noisy quality score
  (``predictor_model``),
- 6-DOF probe pose error, pose-dependent image quality, and guided movement
  (``probe_kinematics``),
- per-subject and cohort simulation of the loop (``acquisition_loop``),
- a reproducible experiment CLI (``cli``).
"""

__version__ = "0.4.0"
