"""Experiment configuration: a flat sectioned key=value document.

The on-disk format is INI-style (``configparser``) with sections [cohort],
[distribution], [predictor], [costs], [policy], [kinematics], [output], and
[sweep].  Parsing validates every key (unknown keys and inapplicable
sections are errors), fills documented defaults, and produces both the
typed objects the simulator consumes and a canonical *echo* — a fully
defaulted section→key→value map of the values parsed, which reports embed
so no setting is ever silently implied.

The echo (minus execution details: worker count and output directory) is
hashed into a config digest; together with the master seed it pins down a
run's outputs exactly.  For histogram distributions the digest covers the
loaded bin contents, not the CSV's path, so moving the file cannot silently
change what a digest means.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .alpha_distributions import (
    Beta,
    EmpiricalHistogram,
    FailureDistribution,
    PointMass,
    TruncatedNormal,
    Uniform,
)
from .cost_model import _DEFAULT_MAX_RESCANS, CostRates, PredictorProfile
from .errors import ConfigError
from .predictor_model import ScorePredictor
from .probe_kinematics import GuidanceNoise, LearnerPolicy, SubjectAnatomy

_REQUIRED = object()

# Each mode's required sections, in the order a missing one is reported,
# and its optional ones.
_SECTIONS_BY_MODE = {
    "abstract": (("cohort", "predictor", "costs", "policy", "distribution"), ("output",)),
    "kinematic": (("cohort", "predictor", "costs", "policy", "kinematics"), ("output", "sweep")),
}

_SECTIONS = {s for required, optional in _SECTIONS_BY_MODE.values() for s in required + optional}

# The largest cohort: a run holds its whole subject table in memory.  At this
# size a point-mass `simulate` at one worker peaks at 1.3 GB of RSS.
_MAX_SUBJECTS = 10_000_000
# The largest sweep grid: the grid is built when the config is parsed, and
# each of its thresholds is a numpy pass over the cohort's table.
_MAX_TAU_STEPS = 10_000
# The largest re-scan budget: a kinematic scan takes about 80 us.
_MAX_RESCANS = 10_000
# The largest Beta shape.  On a grid of shapes up to it SciPy's betaincinv
# inverts a block of uniforms with no NaN, and the Gauss rules stay inside the
# range of doubles; far past it an inversion takes milliseconds a draw, gives
# NaN, or both.
_MAX_BETA_SHAPE = 1e6

_FAMILY_KEYS = {
    "point_mass": {"alpha"},
    "uniform": {"lo", "hi"},
    "beta": {"a", "b"},
    "truncated_normal": {"mu", "sigma", "lo", "hi"},
    "histogram": {"csv"},
}


def _manifest_timestamp() -> str | None:
    """Wall-clock timestamps would break byte-identical reruns, so the
    timestamp is only emitted when pinned via SOURCE_DATE_EPOCH, which must
    be integer seconds since 1970 that ``datetime`` can represent, written as
    plain ASCII digits with an optional leading ``-``: ``int`` alone would
    also take spaces, ``+``, ``_`` separators and non-ASCII digits."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        if not re.fullmatch("-?[0-9]+", epoch):
            raise ValueError(epoch)
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise ConfigError(
            f"SOURCE_DATE_EPOCH: must be integer seconds within datetime's range, got {epoch!r}"
        ) from None


def build_manifest(master_seed: int, config_digest: str) -> dict:
    """Reproducibility stamp embedded in every report file; ConfigError
    naming SOURCE_DATE_EPOCH when its timestamp is not integer seconds."""
    return {
        "master_seed": master_seed,
        "config_digest": config_digest,
        "version": __version__,
        "timestamp": _manifest_timestamp(),
    }


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Validated experiment settings plus their canonical echo, its digest and
    the manifest every report file of the run carries, each made once, when
    the document is parsed."""

    mode: str
    n_subjects: int
    master_seed: int
    workers: int
    rates: CostRates
    max_rescans: int
    distribution: FailureDistribution | None
    profile: PredictorProfile | None
    score_predictor: ScorePredictor | None
    anatomy: SubjectAnatomy | None
    start_offset_t: float
    start_offset_r: float
    guidance: GuidanceNoise | None
    learner: LearnerPolicy | None
    sweep_thresholds: tuple[float, ...] | None
    out_dir: str
    echo: dict
    digest: str
    manifest: dict


class _SectionReader:
    """Pulls typed, validated values out of one config section.

    ``echo`` records every value ``get`` returned, defaults included, under
    its key: the section's part of the config echo.
    """

    def __init__(self, parser: configparser.ConfigParser, section: str) -> None:
        self.section = section
        self.raw = dict(parser[section]) if parser.has_section(section) else {}
        self.echo: dict[str, Any] = {}

    def get(
        self,
        key: str,
        convert: Callable[[str], Any],
        default: Any = _REQUIRED,
        check: Callable[[Any], str | None] = lambda v: None,
    ) -> Any:
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"{self.section}.{key}: required key is missing")
            self.echo[key] = default
            return default
        text = self.raw[key]
        try:
            value = convert(text)
        except (ValueError, TypeError):
            kind = {int: "an integer", float: "a number"}.get(convert, "valid")
            raise ConfigError(f"{self.section}.{key}: {text!r} is not {kind}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{self.section}.{key}: must be a finite number, got {text!r}")
        self.echo[key] = _checked(f"{self.section}.{key}", value, check)
        return value

    def reject_unknown(self, allowed: set[str] | None = None) -> None:
        allowed = self.echo if allowed is None else allowed
        for key in self.raw:
            if key not in allowed:
                raise ConfigError(f"{self.section}.{key}: unknown key")

    def forbid(self, key: str, why: str) -> None:
        if key in self.raw:
            raise ConfigError(f"{self.section}.{key}: {why}")


def _checked(name: str, value: Any, check: Callable[[Any], str | None]) -> Any:
    complaint = check(value)
    if complaint is not None:
        raise ConfigError(f"{name}: {complaint}")
    return value


def _interval(lo, hi, lo_open=False, hi_open=False) -> Callable[[Any], str | None]:
    """The check that a value lies between ``lo`` and ``hi``, each end closed
    unless marked open.  Int ends print as integers, float ends with ``:g``
    unless that would round them."""

    def end(x) -> str:
        return f"{x:g}" if isinstance(x, float) and float(f"{x:g}") == x else repr(x)

    bounds = f"{'(' if lo_open else '['}{end(lo)}, {end(hi)}{')' if hi_open else ']'}"

    def check(v) -> str | None:
        inside = (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)
        return None if inside else f"must be in {bounds}, got {v}"

    return check


def _one_of(*choices: str) -> Callable[[str], str | None]:
    return lambda v: None if v in choices else f"must be one of {list(choices)}, got {v!r}"


_NONNEGATIVE = _interval(0.0, math.inf, hi_open=True)
_POSITIVE = _interval(0.0, math.inf, lo_open=True, hi_open=True)
_SEED = _interval(0, 2**64 - 1)

# Image quality is exp(-(d_t / translation_scale)^2 - (d_r / rotation_scale)^2).
# d_r is at most pi and d_t a sum of Gaussian steps of the translation standard
# deviations, so with the scales at least _MIN_QUALITY_SCALE and those
# deviations at most _MAX_TRANSLATION_SD the squared ratios stay hundreds of
# orders of magnitude below the float limit.  A rotation standard deviation
# lies in [0, pi]: a sampled angle of many turns means nothing, and one near
# the float limit overflows.
_MIN_QUALITY_SCALE = 1e-6
_MAX_TRANSLATION_SD = 1e6
_QUALITY_SCALE = _interval(_MIN_QUALITY_SCALE, math.inf, hi_open=True)
_TRANSLATION_SD = _interval(0.0, _MAX_TRANSLATION_SD)
_ROTATION_SD = _interval(0.0, math.pi)


def check_seed(seed: int) -> int:
    """``seed`` if it lies in ``cohort.seed``'s range, which ``--seed`` shares;
    ConfigError naming ``cohort.seed`` otherwise."""
    return _checked("cohort.seed", seed, _SEED)


def _load_histogram_csv(path: Path) -> EmpiricalHistogram:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["bin_upper_edge", "mass"]:
                raise ConfigError(
                    f"distribution.csv: {path} must start with header 'bin_upper_edge,mass'"
                )
            edges: list[float] = []
            weights: list[float] = []
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ConfigError(f"distribution.csv: malformed row {row!r} in {path}")
                try:
                    edge, weight = float(row[0]), float(row[1])
                except ValueError:
                    raise ConfigError(
                        f"distribution.csv: non-numeric row {row!r} in {path}"
                    ) from None
                if not (math.isfinite(edge) and math.isfinite(weight)):
                    raise ConfigError(f"distribution.csv: non-finite row {row!r} in {path}")
                edges.append(edge)
                weights.append(weight)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"distribution.csv: cannot read {path}: {exc}") from None
    try:
        return EmpiricalHistogram.from_weights(edges, weights)
    except ValueError as exc:
        raise ConfigError(f"distribution.csv: {exc}") from None


def _support(reader: _SectionReader) -> tuple[float, float]:
    """The distribution's ``lo`` and ``hi``, which must satisfy 0 <= lo < hi < 1."""
    lo = reader.get("lo", float)
    hi = reader.get("hi", float)
    if not 0.0 <= lo < hi < 1.0:
        key = "hi" if hi >= 1.0 else "lo"
        raise ConfigError(
            f"distribution.{key}: support must satisfy 0 <= lo < hi < 1, got [{lo}, {hi}]"
        )
    return lo, hi


def _parse_distribution(reader: _SectionReader, base_dir: Path) -> FailureDistribution:
    family = reader.get("family", str, check=_one_of(*sorted(_FAMILY_KEYS)))
    allowed = {"family"} | _FAMILY_KEYS[family]
    reader.reject_unknown(allowed)

    if family == "point_mass":
        return PointMass(reader.get("alpha", float, check=_interval(0.0, 1.0, hi_open=True)))
    if family == "uniform":
        return Uniform(*_support(reader))
    if family == "beta":
        a = reader.get("a", float, check=_interval(1.0, _MAX_BETA_SHAPE))
        b = reader.get("b", float, check=_interval(1.0, _MAX_BETA_SHAPE, lo_open=True))
        return Beta(a, b)
    if family == "truncated_normal":
        mu = reader.get("mu", float)
        sigma = reader.get("sigma", float, check=_POSITIVE)
        try:
            dist = TruncatedNormal(mu, sigma, *_support(reader))
        except ValueError as exc:
            raise ConfigError(f"distribution.mu: {exc}") from None
        if dist.mass < np.finfo(float).tiny:  # a subnormal mass has too few digits to divide by
            key = "lo" if dist.lo > mu else "hi"
            raise ConfigError(f"distribution.{key}: {dist.mass:.3g} of the normal lies on [lo, hi]")
        return dist
    # histogram: echo the loaded bins, not the file path, so the digest pins content
    hist = _load_histogram_csv(base_dir / reader.get("csv", str))
    del reader.echo["csv"]
    reader.echo.update(edges=list(hist.edges), masses=list(hist.masses))
    return hist


def parse_config(
    text: str,
    base_dir: str | Path = ".",
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ExperimentConfig:
    """Validate a config document and build the typed experiment settings.

    ``seed_override`` / ``out_override`` take precedence over the document's
    values (they back the CLI's --seed/--out flags).  Every constraint
    violation raises ConfigError naming the offending section.key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    cohort = _SectionReader(parser, "cohort")
    mode = cohort.get("mode", str, check=_one_of(*_SECTIONS_BY_MODE))
    required, optional = _SECTIONS_BY_MODE[mode]
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{section}: unknown section")
        if section not in required + optional:
            raise ConfigError(f"{section}: section not applicable in {mode} mode")
    for section in required:
        if not parser.has_section(section):
            raise ConfigError(f"{section}: required section is missing in {mode} mode")

    n_subjects = cohort.get("subjects", int, check=_interval(0, _MAX_SUBJECTS))
    seed = cohort.get("seed", int, default=0, check=_SEED)
    workers = cohort.get(
        "workers", int, default=os.cpu_count() or 1, check=_interval(1, math.inf, hi_open=True)
    )
    cohort.reject_unknown()
    if seed_override is not None:
        seed = check_seed(seed_override)

    costs = _SectionReader(parser, "costs")
    rescan_cost = costs.get("rescan", float, check=_NONNEGATIVE)
    correction_cost = costs.get("correction", float, check=_POSITIVE)
    costs.reject_unknown()
    rates = CostRates(rescan_cost=rescan_cost, correction_cost=correction_cost)

    policy_reader = _SectionReader(parser, "policy")
    max_rescans = policy_reader.get(
        "max_rescans", int, default=_DEFAULT_MAX_RESCANS, check=_interval(0, _MAX_RESCANS)
    )
    if not math.isfinite(max_rescans * rescan_cost + correction_cost):  # the dearest subject
        raise ConfigError(
            f"costs.rescan: {max_rescans} re-scans and a correction cost more than a double holds"
        )
    if mode == "abstract":
        policy_reader.forbid(
            "threshold", "not applicable in abstract mode (the predictor flags directly)"
        )
        threshold = None
    else:
        threshold = policy_reader.get("threshold", float)
    policy_reader.reject_unknown()

    predictor = _SectionReader(parser, "predictor")
    kind = predictor.get("kind", str, check=_one_of("confusion", "score"))
    distribution = None
    profile = None
    score_predictor = None
    anatomy = None
    start_offset_t = start_offset_r = 0.0
    guidance = None
    learner = None
    # The sections whose echo is exactly the values read from them.
    echoed = [costs, policy_reader, predictor]

    if mode == "abstract":
        if kind != "confusion":
            raise ConfigError("predictor.kind: abstract mode requires 'confusion'")
        precision = predictor.get("precision", float, check=_interval(0.0, 1.0, lo_open=True))
        recall = predictor.get("recall", float, check=_interval(0.0, 1.0))
        predictor.reject_unknown()
        profile = PredictorProfile(precision=precision, recall=recall)
        dist_reader = _SectionReader(parser, "distribution")
        distribution = _parse_distribution(dist_reader, Path(base_dir))
        echoed.append(dist_reader)
    else:
        if kind != "score":
            raise ConfigError("predictor.kind: kinematic mode requires 'score'")
        score_predictor = ScorePredictor(
            noise_scale=predictor.get("noise_scale", float, check=_NONNEGATIVE), threshold=threshold
        )
        predictor.reject_unknown()
        kin = _SectionReader(parser, "kinematics")
        anatomy = SubjectAnatomy(
            translation_scale=kin.get("translation_scale", float, check=_QUALITY_SCALE),
            rotation_scale=kin.get("rotation_scale", float, check=_QUALITY_SCALE),
            failure_cutoff=kin.get(
                "failure_cutoff", float, check=_interval(0.0, 1.0, lo_open=True, hi_open=True)
            ),
        )
        start_offset_t = kin.get("start_offset_t", float, check=_TRANSLATION_SD)
        start_offset_r = kin.get("start_offset_r", float, check=_ROTATION_SD)
        guidance = GuidanceNoise(
            guidance_noise_t=kin.get("guidance_noise_t", float, default=0.0, check=_TRANSLATION_SD),
            guidance_noise_r=kin.get("guidance_noise_r", float, default=0.0, check=_ROTATION_SD),
        )
        learner = LearnerPolicy(
            gain=kin.get("gain", float, default=1.0, check=_interval(0.0, 1.0, lo_open=True)),
            motor_noise_t=kin.get("motor_noise_t", float, default=0.0, check=_TRANSLATION_SD),
            motor_noise_r=kin.get("motor_noise_r", float, default=0.0, check=_ROTATION_SD),
        )
        kin.reject_unknown()
        echoed.append(kin)

    sweep_thresholds = None
    if parser.has_section("sweep"):
        sweep = _SectionReader(parser, "sweep")
        tau_start = sweep.get("tau_start", float)
        tau_stop = sweep.get("tau_stop", float)
        tau_steps = sweep.get("tau_steps", int, check=_interval(1, _MAX_TAU_STEPS))
        sweep.reject_unknown()
        if tau_start > tau_stop:
            raise ConfigError(
                f"sweep.tau_start: must be <= tau_stop, got {tau_start} > {tau_stop}"
            )
        if not math.isfinite(tau_stop - tau_start):  # np.linspace would make nan and inf
            raise ConfigError(
                f"sweep.tau_stop: tau_stop - tau_start must be finite, got {tau_stop} - {tau_start}"
            )
        sweep_thresholds = tuple(float(t) for t in np.linspace(tau_start, tau_stop, tau_steps))
        echoed.append(sweep)

    out_reader = _SectionReader(parser, "output")
    out_dir = out_reader.get("dir", str, default="runs")
    out_reader.reject_unknown()
    if out_override is not None:
        out_dir = out_override

    # The cohort echo holds the seed in effect and leaves out the worker
    # count; the output section is left out too.  Neither changes the results.
    echo = {"cohort": {"mode": mode, "subjects": n_subjects, "seed": seed}}
    echo.update((reader.section, reader.echo) for reader in echoed)
    digest = hashlib.sha256(
        json.dumps(echo, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    return ExperimentConfig(
        mode=mode,
        n_subjects=n_subjects,
        master_seed=seed,
        workers=workers,
        rates=rates,
        max_rescans=max_rescans,
        distribution=distribution,
        profile=profile,
        score_predictor=score_predictor,
        anatomy=anatomy,
        start_offset_t=start_offset_t,
        start_offset_r=start_offset_r,
        guidance=guidance,
        learner=learner,
        sweep_thresholds=sweep_thresholds,
        out_dir=out_dir,
        echo=echo,
        digest=digest,
        manifest=build_manifest(seed, digest),
    )
