"""Config parsing: validation messages, defaults, digests, and manifests."""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

import scanloop.config

from scanloop.alpha_distributions import (
    Beta,
    EmpiricalHistogram,
    PointMass,
    TruncatedNormal,
    Uniform,
)
from scanloop.config import parse_config
from scanloop.errors import ConfigError

ABSTRACT = """
[cohort]
mode = abstract
subjects = 100
seed = 5
workers = 2

[distribution]
family = uniform
lo = 0.1
hi = 0.3

[predictor]
kind = confusion
precision = 0.8
recall = 0.9

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = 20

[output]
dir = out/runs
"""

KINEMATIC = """
[cohort]
mode = kinematic
subjects = 10

[predictor]
kind = score
noise_scale = 0.05

[costs]
rescan = 0.2
correction = 2.0

[policy]
max_rescans = 5
threshold = 0.75

[kinematics]
translation_scale = 12.0
rotation_scale = 0.4
failure_cutoff = 0.6
start_offset_t = 9.0
start_offset_r = 0.2
"""


def _with(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new)


def _without(text: str, section: str) -> str:
    """``text`` without ``[section]`` and its keys."""
    before, after = text.split(f"[{section}]\n")
    _, sep, rest = after.partition("\n[")
    return before + sep.lstrip("\n") + rest


def _set(text: str, section: str, key: str, value: str) -> str:
    """``text`` with ``section.key`` set to ``value``, added if absent."""
    head = f"[{section}]\n"
    before, after = text.split(head)
    body, sep, rest = after.partition("\n[")
    body = "\n".join(line for line in body.split("\n") if not line.startswith(f"{key} ="))
    return f"{before}{head}{key} = {value}\n{body}{sep}{rest}"


UNIFORM = "family = uniform\nlo = 0.1\nhi = 0.3"
POINT_MASS = _with(ABSTRACT, UNIFORM, "family = point_mass\nalpha = 0.2")
BETA = _with(ABSTRACT, UNIFORM, "family = beta\na = 2\nb = 8")
TRUNCATED_NORMAL = _with(
    ABSTRACT, UNIFORM, "family = truncated_normal\nmu = 0.2\nsigma = 0.1\nlo = 0.0\nhi = 0.6"
)


# Refused values and the complaint after ``section.key: ``, one per kind of end.
MESSAGES = [
    (ABSTRACT, "cohort", "seed", "-1", "must be in [0, 18446744073709551615], got -1"),
    (ABSTRACT, "cohort", "workers", "0", "must be in [1, inf), got 0"),
    (ABSTRACT, "costs", "rescan", "-1", "must be in [0, inf), got -1.0"),
    (ABSTRACT, "predictor", "precision", "0", "must be in (0, 1], got 0.0"),
    (BETA, "distribution", "a", "1e20", "must be in [1, 1e+06], got 1e+20"),
    (BETA, "distribution", "b", "1", "must be in (1, 1e+06], got 1.0"),
    (KINEMATIC, "kinematics", "start_offset_r", "4", "must be in [0, 3.141592653589793], got 4.0"),
    (KINEMATIC, "kinematics", "translation_scale", "0", "must be in [1e-06, inf), got 0.0"),
    (KINEMATIC, "kinematics", "start_offset_t", "2e6", "must be in [0, 1e+06], got 2000000.0"),
    (ABSTRACT, "cohort", "mode", "x", "must be one of ['abstract', 'kinematic'], got 'x'"),
    (KINEMATIC, "predictor", "kind", "x", "must be one of ['confusion', 'score'], got 'x'"),
]


class TestAbstractParsing:
    def test_typed_objects(self):
        cfg = parse_config(ABSTRACT)
        assert cfg.mode == "abstract"
        assert cfg.n_subjects == 100
        assert cfg.master_seed == 5
        assert cfg.workers == 2
        assert cfg.distribution == Uniform(0.1, 0.3)
        assert cfg.profile.precision == 0.8
        assert cfg.profile.recall == 0.9
        assert cfg.rates.rescan_cost == 0.1
        assert cfg.rates.correction_cost == 1.0
        assert cfg.max_rescans == 20
        assert cfg.score_predictor is None and cfg.anatomy is None
        assert cfg.out_dir == "out/runs"

    def test_defaults_filled_and_echoed(self):
        minimal = "\n".join(
            line
            for line in ABSTRACT.splitlines()
            if not line.startswith(("seed", "workers", "max_rescans", "dir"))
        ).replace("[output]\n", "")
        cfg = parse_config(minimal)
        assert cfg.master_seed == 0
        assert cfg.workers >= 1
        assert cfg.max_rescans == 50
        assert cfg.out_dir == "runs"
        assert cfg.echo["cohort"]["seed"] == 0
        assert cfg.echo["policy"]["max_rescans"] == 50

    def test_each_distribution_family(self):
        for section, expected in [
            ("family = point_mass\nalpha = 0.2", PointMass(0.2)),
            ("family = beta\na = 2\nb = 8", Beta(2.0, 8.0)),
            (
                "family = truncated_normal\nmu = 0.2\nsigma = 0.1\nlo = 0.0\nhi = 0.6",
                TruncatedNormal(0.2, 0.1, 0.0, 0.6),
            ),
        ]:
            text = _with(ABSTRACT, "family = uniform\nlo = 0.1\nhi = 0.3", section)
            assert parse_config(text).distribution == expected

    def test_overrides_beat_document(self):
        cfg = parse_config(ABSTRACT, seed_override=99, out_override="elsewhere")
        assert cfg.master_seed == 99
        assert cfg.echo["cohort"]["seed"] == 99
        assert cfg.out_dir == "elsewhere"


class TestKinematicParsing:
    def test_typed_objects_and_defaults(self):
        cfg = parse_config(KINEMATIC)
        assert cfg.mode == "kinematic"
        assert cfg.distribution is None and cfg.profile is None
        assert cfg.score_predictor.noise_scale == 0.05
        assert cfg.score_predictor.threshold == 0.75
        assert cfg.anatomy.translation_scale == 12.0
        assert cfg.anatomy.failure_cutoff == 0.6
        assert cfg.start_offset_t == 9.0
        assert cfg.start_offset_r == 0.2
        # defaulted learner: full gain, no noise anywhere
        assert cfg.learner.gain == 1.0
        assert cfg.learner.motor_noise_t == 0.0
        assert cfg.guidance.guidance_noise_t == 0.0
        assert cfg.echo["kinematics"]["gain"] == 1.0

    def test_sweep_grid(self):
        text = KINEMATIC + "\n[sweep]\ntau_start = 0.5\ntau_stop = 0.9\ntau_steps = 5\n"
        cfg = parse_config(text)
        assert cfg.sweep_thresholds == pytest.approx((0.5, 0.6, 0.7, 0.8, 0.9))
        assert cfg.echo["sweep"]["tau_steps"] == 5

    def test_sweep_grid_bounded(self):
        sweep = "\n[sweep]\ntau_start = 0.5\ntau_stop = 0.9\ntau_steps = {}\n"
        assert len(parse_config(KINEMATIC + sweep.format(10_000)).sweep_thresholds) == 10_000
        with pytest.raises(ConfigError, match=r"sweep\.tau_steps: must be in \[1, 10000\]"):
            parse_config(KINEMATIC + sweep.format(10_001))

    @pytest.mark.parametrize(
        "text, line",
        [(KINEMATIC, "max_rescans = 5"), (ABSTRACT, "max_rescans = 20")],
        ids=["kinematic", "abstract"],
    )
    def test_rescan_budget_bounded(self, text, line):
        # A subject whose every scan is flagged runs the whole budget.
        for budget in (0, 10_000):
            cfg = parse_config(_with(text, line, f"max_rescans = {budget}"))
            assert cfg.max_rescans == budget
        for budget in (-1, 10_001):
            with pytest.raises(
                ConfigError, match=rf"policy\.max_rescans: must be in \[0, 10000\], got {budget}"
            ):
                parse_config(_with(text, line, f"max_rescans = {budget}"))

    def test_sweep_single_step(self):
        text = KINEMATIC + "\n[sweep]\ntau_start = 0.7\ntau_stop = 0.7\ntau_steps = 1\n"
        assert parse_config(text).sweep_thresholds == (0.7,)


class TestValidationErrors:
    def test_precision_out_of_range_names_key_and_constraint(self):
        text = _with(ABSTRACT, "precision = 0.8", "precision = 1.2")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        message = str(err.value)
        assert "predictor.precision" in message
        assert "(0" in message and "1]" in message

    def test_uniform_support_ordering(self):
        text = _with(ABSTRACT, "lo = 0.1\nhi = 0.3", "lo = 0.3\nhi = 0.2")
        with pytest.raises(ConfigError, match=r"distribution\.lo.*lo < hi"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"cohort\.frobnicate: unknown key"):
            parse_config(_with(ABSTRACT, "subjects = 100", "subjects = 100\nfrobnicate = 1"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery: unknown section"):
            parse_config(ABSTRACT + "\n[mystery]\nx = 1\n")

    def test_inapplicable_section_rejected(self):
        with pytest.raises(ConfigError, match="kinematics: section not applicable"):
            parse_config(ABSTRACT + "\n[kinematics]\ntranslation_scale = 1\n")
        with pytest.raises(ConfigError, match="distribution: section not applicable"):
            parse_config(KINEMATIC + "\n[distribution]\nfamily = point_mass\nalpha = 0.2\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match=r"costs\.correction: required"):
            parse_config(_with(ABSTRACT, "correction = 1.0", ""))

    def test_missing_required_section(self):
        lines = ABSTRACT.split("[costs]")
        text = lines[0] + "[policy]" + lines[1].split("[policy]")[1]
        with pytest.raises(ConfigError, match="costs: required section"):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, mode, order",
        [
            (ABSTRACT, "abstract", ("predictor", "costs", "policy", "distribution")),
            (KINEMATIC, "kinematic", ("predictor", "costs", "policy", "kinematics")),
        ],
        ids=["abstract", "kinematic"],
    )
    def test_missing_sections_reported_in_order(self, text, mode, order):
        # with the sections from the i-th on left out, the i-th is reported
        for i, section in enumerate(order):
            missing = text
            for gone in order[i:]:
                missing = _without(missing, gone)
            with pytest.raises(
                ConfigError, match=rf"^{section}: required section is missing in {mode} mode$"
            ):
                parse_config(missing)

    def test_unparseable_number(self):
        with pytest.raises(ConfigError, match=r"cohort\.subjects.*integer"):
            parse_config(_with(ABSTRACT, "subjects = 100", "subjects = many"))

    def test_mode_predictor_coupling(self):
        with pytest.raises(ConfigError, match="predictor.kind: abstract mode requires"):
            parse_config(
                _with(
                    ABSTRACT,
                    "kind = confusion\nprecision = 0.8\nrecall = 0.9",
                    "kind = score\nnoise_scale = 0.1",
                )
            )
        with pytest.raises(ConfigError, match="predictor.kind: kinematic mode requires"):
            parse_config(
                _with(
                    KINEMATIC,
                    "kind = score\nnoise_scale = 0.05",
                    "kind = confusion\nprecision = 0.8\nrecall = 0.9",
                )
            )

    def test_threshold_forbidden_in_abstract(self):
        with pytest.raises(ConfigError, match=r"policy\.threshold"):
            parse_config(_with(ABSTRACT, "max_rescans = 20", "max_rescans = 20\nthreshold = 0.5"))

    def test_threshold_required_in_kinematic(self):
        with pytest.raises(ConfigError, match=r"policy\.threshold: required"):
            parse_config(_with(KINEMATIC, "threshold = 0.75", ""))

    def test_family_specific_keys_enforced(self):
        text = _with(ABSTRACT, "lo = 0.1\nhi = 0.3", "lo = 0.1\nhi = 0.3\nalpha = 0.2")
        with pytest.raises(ConfigError, match=r"distribution\.alpha: unknown key"):
            parse_config(text)

    @pytest.mark.parametrize(
        "mu, far, near, key",
        [(0.0, (0.381, 0.5), (0.375, 0.5), "lo"), (0.99, (0.1, 0.609), (0.1, 0.615), "hi")],
        ids=["above-mu", "below-mu"],
    )
    def test_subnormal_truncated_normal_mass_names_the_far_bound(self, mu, far, near, key):
        # 38.1 sigma between mu and the support, its normal mass is a subnormal
        # double (6.4e-318), too imprecise to normalize the density with; at
        # 37.5 sigma it is still a normal one (4.6e-308).
        def config(lo, hi):
            section = f"family = truncated_normal\nmu = {mu}\nsigma = 0.01\nlo = {lo}\nhi = {hi}"
            return _with(ABSTRACT, "family = uniform\nlo = 0.1\nhi = 0.3", section)

        with pytest.raises(ConfigError, match=rf"^distribution\.{key}: 6\.41e-318 of the normal"):
            parse_config(config(*far))
        assert parse_config(config(*near)).distribution.mass > sys.float_info.min

    def test_bad_family_name(self):
        with pytest.raises(ConfigError, match=r"distribution\.family"):
            parse_config(_with(ABSTRACT, "family = uniform", "family = gamma"))

    def test_sweep_ordering(self):
        text = KINEMATIC + "\n[sweep]\ntau_start = 0.9\ntau_stop = 0.5\ntau_steps = 3\n"
        with pytest.raises(ConfigError, match=r"sweep\.tau_start"):
            parse_config(text)

    def test_widest_finite_sweep_span_accepted(self):
        text = KINEMATIC + "\n[sweep]\ntau_start = -8e307\ntau_stop = 8e307\ntau_steps = 5\n"
        thresholds = parse_config(text).sweep_thresholds
        assert thresholds[0] == -8e307 and thresholds[-1] == 8e307
        assert all(map(math.isfinite, thresholds)) and list(thresholds) == sorted(thresholds)

    def test_syntax_error_wrapped(self):
        with pytest.raises(ConfigError, match="config syntax"):
            parse_config("not an ini file at all\n")

    def test_negative_subjects(self):
        with pytest.raises(ConfigError, match=r"cohort\.subjects"):
            parse_config(_with(ABSTRACT, "subjects = 100", "subjects = -1"))

    def test_override_does_not_excuse_a_bad_document_seed(self):
        with pytest.raises(ConfigError, match=r"^cohort\.seed: "):
            parse_config(_with(ABSTRACT, "seed = 5", "seed = -1"), seed_override=3)

    @pytest.mark.parametrize(
        "text, section, key, value, complaint",
        MESSAGES,
        ids=[f"{section}.{key}" for _, section, key, *_ in MESSAGES],
    )
    def test_bound_and_choice_messages(self, text, section, key, value, complaint):
        with pytest.raises(ConfigError) as err:
            parse_config(_set(text, section, key, value))
        assert str(err.value) == f"{section}.{key}: {complaint}"


SWEEP = KINEMATIC + "\n[sweep]\ntau_start = 0.5\ntau_stop = 0.9\ntau_steps = 5\n"
TRANSLATION_SD = (0.0, False, 1e6, False)
ROTATION_SD = (0.0, False, math.pi, False)
QUALITY_SCALE = (1e-6, False, math.inf, True)

# Every key with an interval check: (document, section, key, (lo, lo_open, hi,
# hi_open)).  Int keys have int ends; an infinite end has nothing to test.
BOUNDS = [
    (ABSTRACT, "cohort", "seed", (0, False, 2**64 - 1, False)),
    (ABSTRACT, "cohort", "subjects", (0, False, 10_000_000, False)),
    (ABSTRACT, "cohort", "workers", (1, False, math.inf, True)),
    (ABSTRACT, "costs", "rescan", (0.0, False, math.inf, True)),
    (ABSTRACT, "costs", "correction", (0.0, True, math.inf, True)),
    (ABSTRACT, "policy", "max_rescans", (0, False, 10_000, False)),
    (ABSTRACT, "predictor", "precision", (0.0, True, 1.0, False)),
    (ABSTRACT, "predictor", "recall", (0.0, False, 1.0, False)),
    (POINT_MASS, "distribution", "alpha", (0.0, False, 1.0, True)),
    (BETA, "distribution", "a", (1.0, False, math.inf, True)),
    (BETA, "distribution", "b", (1.0, True, math.inf, True)),
    (TRUNCATED_NORMAL, "distribution", "sigma", (0.0, True, math.inf, True)),
    (KINEMATIC, "predictor", "noise_scale", (0.0, False, math.inf, True)),
    (KINEMATIC, "kinematics", "translation_scale", QUALITY_SCALE),
    (KINEMATIC, "kinematics", "rotation_scale", QUALITY_SCALE),
    (KINEMATIC, "kinematics", "failure_cutoff", (0.0, True, 1.0, True)),
    (KINEMATIC, "kinematics", "start_offset_t", TRANSLATION_SD),
    (KINEMATIC, "kinematics", "start_offset_r", ROTATION_SD),
    (KINEMATIC, "kinematics", "guidance_noise_t", TRANSLATION_SD),
    (KINEMATIC, "kinematics", "guidance_noise_r", ROTATION_SD),
    (KINEMATIC, "kinematics", "gain", (0.0, True, 1.0, False)),
    (KINEMATIC, "kinematics", "motor_noise_t", TRANSLATION_SD),
    (KINEMATIC, "kinematics", "motor_noise_r", ROTATION_SD),
    (SWEEP, "sweep", "tau_steps", (1, False, 10_000, False)),
]


def _bound_cases():
    """Per finite end: (the value nearest it inside the interval, the nearest outside)."""
    for text, section, key, (lo, lo_open, hi, hi_open) in BOUNDS:
        for end, is_open, outward, side in ((lo, lo_open, -1, "lo"), (hi, hi_open, 1, "hi")):
            if math.isinf(end):
                continue
            if isinstance(end, int):
                closest = (end - outward, end) if is_open else (end, end + outward)
            elif is_open:
                closest = (math.nextafter(end, -outward * math.inf), end)
            else:
                closest = (end, math.nextafter(end, outward * math.inf))
            yield pytest.param(text, section, key, *closest, id=f"{section}.{key}-{side}")


class TestBounds:
    """Each interval check's ends, open or closed, as the config documents them."""

    @pytest.mark.parametrize("text, section, key, inside, outside", list(_bound_cases()))
    def test_end_accepted_inside_refused_outside(self, text, section, key, inside, outside):
        parse_config(_set(text, section, key, repr(inside)))
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
            parse_config(_set(text, section, key, repr(outside)))


# The digests of the shipped configs, which every report made from them names.
SHIPPED_DIGESTS = {
    "abstract_pointmass": "341020f526f58f1fd963379d23bc3f5403efb48dd379a259c1305b1d78764c83",
    "abstract_beta": "5b93a853a8eb346491e61ef43d00a7c8d12358418ebf7fad8abfe05c68416895",
    "kinematic_guided": "c676b0c998cc8fbd7b4f539e77a11c0fa8f9657bfdfbd0b63a5fbb67e7a2cc20",
}


class TestDigest:
    def test_stable_under_key_reordering(self):
        reordered = _with(
            ABSTRACT, "precision = 0.8\nrecall = 0.9", "recall = 0.9\nprecision = 0.8"
        )
        assert parse_config(ABSTRACT).digest == parse_config(reordered).digest

    def test_ignores_workers_and_output(self):
        base = parse_config(ABSTRACT)
        assert parse_config(_with(ABSTRACT, "workers = 2", "workers = 7")).digest == base.digest
        assert (
            parse_config(_with(ABSTRACT, "dir = out/runs", "dir = somewhere")).digest
            == base.digest
        )
        assert "workers" not in base.echo["cohort"]
        assert "output" not in base.echo

    def test_sensitive_to_settings_and_seed(self):
        base = parse_config(ABSTRACT)
        assert parse_config(_with(ABSTRACT, "seed = 5", "seed = 6")).digest != base.digest
        assert (
            parse_config(_with(ABSTRACT, "recall = 0.9", "recall = 0.8")).digest != base.digest
        )
        assert parse_config(ABSTRACT, seed_override=6).digest != base.digest

    @pytest.mark.parametrize("name, digest", SHIPPED_DIGESTS.items())
    def test_shipped_configs_pinned(self, name, digest):
        # A digest names an experiment in every report, so the echo it hashes
        # must not drift with how the parser is written.
        path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.ini"
        assert parse_config(path.read_text(encoding="utf-8")).digest == digest


def _minimal(text: str) -> str:
    """``text`` without the keys and the section that have defaults."""
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith(("seed", "workers", "max_rescans", "dir", "[output]"))
    )


ECHO_CASES = {
    "point_mass": "family = point_mass\nalpha = 0.2",
    "uniform": "family = uniform\nlo = 0.1\nhi = 0.3",
    "beta": "family = beta\na = 2\nb = 8",
    "truncated_normal": "family = truncated_normal\nmu = 0.2\nsigma = 0.1\nlo = 0.0\nhi = 0.6",
    "histogram": "family = histogram\ncsv = bins.csv",
}


class TestEchoCoverage:
    """The echo holds exactly the values the parser read, defaults included,
    except the worker count and the output section, with a histogram's bins
    in place of its file name."""

    @pytest.fixture
    def reads(self, monkeypatch):
        reads: dict[str, dict] = {}
        get = scanloop.config._SectionReader.get

        def recording_get(reader, key, *args, **kwargs):
            value = get(reader, key, *args, **kwargs)
            reads.setdefault(reader.section, {})[key] = value
            return value

        monkeypatch.setattr(scanloop.config._SectionReader, "get", recording_get)
        return reads

    def _expected(self, reads, cfg):
        expected = {section: dict(values) for section, values in reads.items()}
        del expected["cohort"]["workers"]
        del expected["output"]
        if "csv" in expected.get("distribution", {}):
            del expected["distribution"]["csv"]
            expected["distribution"]["edges"] = list(cfg.distribution.edges)
            expected["distribution"]["masses"] = list(cfg.distribution.masses)
        return expected

    @pytest.mark.parametrize("family", list(ECHO_CASES))
    @pytest.mark.parametrize("minimal", [False, True], ids=["written", "defaulted"])
    def test_abstract(self, tmp_path, reads, family, minimal):
        (tmp_path / "bins.csv").write_text(TestHistogramConfig.CSV)
        text = _with(ABSTRACT, "family = uniform\nlo = 0.1\nhi = 0.3", ECHO_CASES[family])
        cfg = parse_config(_minimal(text) if minimal else text, base_dir=tmp_path)
        assert cfg.echo == self._expected(reads, cfg)
        assert set(cfg.echo) == {"cohort", "distribution", "predictor", "costs", "policy"}
        assert cfg.echo["policy"]["max_rescans"] == (50 if minimal else 20)

    @pytest.mark.parametrize("sweep", [False, True], ids=["plain", "sweep"])
    def test_kinematic(self, reads, sweep):
        grid = "\n[sweep]\ntau_start = 0.5\ntau_stop = 0.9\ntau_steps = 5\n"
        cfg = parse_config(KINEMATIC + (grid if sweep else ""))
        assert cfg.echo == self._expected(reads, cfg)
        # the learner and guidance keys are left to their defaults here
        assert cfg.echo["kinematics"]["motor_noise_r"] == 0.0
        assert len(cfg.echo["kinematics"]) == 10
        assert ("sweep" in cfg.echo) == sweep


class TestHistogramConfig:
    CSV = "bin_upper_edge,mass\n0.1,0.25\n0.2,0.5\n0.3,0.25\n"

    def _write(self, tmp_path, content):
        path = tmp_path / "bins.csv"
        path.write_text(content)
        return path

    def _config(self):
        return _with(
            ABSTRACT, "family = uniform\nlo = 0.1\nhi = 0.3", "family = histogram\ncsv = bins.csv"
        )

    def test_loads_relative_to_base_dir(self, tmp_path):
        self._write(tmp_path, self.CSV)
        cfg = parse_config(self._config(), base_dir=tmp_path)
        assert isinstance(cfg.distribution, EmpiricalHistogram)
        assert cfg.distribution.edges == (0.1, 0.2, 0.3)
        assert cfg.distribution.masses == pytest.approx((0.25, 0.5, 0.25))

    def test_digest_pins_bin_contents_not_path(self, tmp_path):
        self._write(tmp_path, self.CSV)
        first = parse_config(self._config(), base_dir=tmp_path)
        self._write(tmp_path, "bin_upper_edge,mass\n0.1,0.5\n0.2,0.25\n0.3,0.25\n")
        second = parse_config(self._config(), base_dir=tmp_path)
        assert first.digest != second.digest
        assert "csv" not in first.echo["distribution"]
        assert first.echo["distribution"]["edges"] == [0.1, 0.2, 0.3]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match=r"distribution\.csv: cannot read"):
            parse_config(self._config(), base_dir=tmp_path)

    def test_bad_header(self, tmp_path):
        self._write(tmp_path, "edge,weight\n0.1,1\n")
        with pytest.raises(ConfigError, match="header"):
            parse_config(self._config(), base_dir=tmp_path)

    def test_non_numeric_row(self, tmp_path):
        self._write(tmp_path, "bin_upper_edge,mass\n0.1,lots\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            parse_config(self._config(), base_dir=tmp_path)

    @pytest.mark.parametrize("command", ["ratio", "simulate"])
    def test_weights_summing_past_the_largest_double(self, tmp_path, capsys, command):
        # math.fsum raised OverflowError here, a traceback and exit 1 from the CLI
        from scanloop.cli import main

        self._write(tmp_path, "bin_upper_edge,mass\n0.5,1e308\n0.6,1e308\n")
        with pytest.raises(ConfigError, match=r"^distribution\.csv: weights sum past"):
            parse_config(self._config(), base_dir=tmp_path)
        config = tmp_path / "experiment.ini"
        config.write_text(self._config())
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: distribution.csv: ")
        assert not (tmp_path / "out").exists()

    def test_invalid_bins_wrapped(self, tmp_path):
        self._write(tmp_path, "bin_upper_edge,mass\n0.3,0.5\n0.1,0.5\n")
        with pytest.raises(ConfigError, match=r"distribution\.csv"):
            parse_config(self._config(), base_dir=tmp_path)


class TestManifest:
    def test_fields(self):
        cfg = parse_config(ABSTRACT)
        manifest = cfg.manifest
        assert manifest["master_seed"] == 5
        assert manifest["config_digest"] == cfg.digest
        assert manifest["version"]
        assert set(manifest) == {"master_seed", "config_digest", "version", "timestamp"}

    def test_timestamp_only_when_pinned(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert parse_config(ABSTRACT).manifest["timestamp"] is None
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        stamped = parse_config(ABSTRACT).manifest["timestamp"]
        assert stamped == "2023-11-14T22:13:20+00:00"

    @pytest.mark.parametrize(
        "epoch",
        ["abc", "1e9", "99999999999999999", "253402300800", " 17 ", "+17", "1_700_000_000", "１７"],
    )
    def test_timestamp_not_integer_seconds_refused(self, monkeypatch, epoch):
        # 253402300800 is the first second of the year 10000; int() takes the
        # last four, which are not plain ASCII digits
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        with pytest.raises(ConfigError, match=r"^SOURCE_DATE_EPOCH: must be integer seconds"):
            parse_config(ABSTRACT)

    def test_manifest_made_once_where_the_config_is_parsed(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        cfg = parse_config(ABSTRACT)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        assert cfg.manifest["timestamp"] == "2023-11-14T22:13:20+00:00"
        assert dataclasses.replace(cfg, workers=2).manifest == cfg.manifest

    def test_config_is_frozen(self):
        cfg = parse_config(ABSTRACT)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.master_seed = 1
