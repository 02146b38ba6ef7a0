"""Config fuzzing: every config, valid or not, ends in a documented exit code.

Documents are generated key by key, mixing values inside each key's valid
range with values outside it and text that is no number at all, and
sometimes leaving a key out.  Abstract documents fill the [distribution],
[predictor], [policy] and [costs] sections and run ``ratio`` or
``simulate`` on at most 50 subjects; kinematic ones fill [predictor],
[policy], [costs], [kinematics] and, in half of them, [sweep], and run
``guidance`` on at most 5 subjects.  ``cli.main`` runs each in process.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanloop.cli import main

JUNK = st.sampled_from(["", "x", "1e400", "-inf", "nan", "0x10", "1,5"])


def mostly(usual: st.SearchStrategy, rare: st.SearchStrategy) -> st.SearchStrategy:
    """``usual``, and ``rare`` one time in 16: with about ten keys to a
    document, a third of the documents then have every key in range."""
    return st.integers(0, 15).flatmap(lambda i: usual if i else rare)


def number(lo: float, hi: float) -> st.SearchStrategy[str]:
    """A numeric key's text: mostly in [lo, hi], sometimes any float or junk."""
    return mostly(
        st.floats(lo, hi).map(repr),
        st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), JUNK),
    )


def count(lo: int, hi: int) -> st.SearchStrategy[str]:
    return mostly(
        st.integers(lo, hi).map(str), st.one_of(st.integers(-20_000, 20_000).map(str), JUNK)
    )


def shape() -> st.SearchStrategy[str]:
    """A Beta shape parameter: mostly in [1, 12] or spread over [1, 10^6],
    where densities get concentrated and skewed; sometimes any float or junk."""
    return mostly(
        st.one_of(st.floats(1.0, 12.0), st.floats(0.0, 6.0).map(lambda e: 10.0**e)).map(repr),
        st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), JUNK),
    )


FAMILY_KEYS = {
    "point_mass": {"alpha": number(0.0, 1.0)},
    "uniform": {"lo": number(0.0, 1.0), "hi": number(0.0, 1.0)},
    "beta": {"a": shape(), "b": shape()},
    "truncated_normal": {
        "mu": number(-0.5, 1.5),
        "sigma": number(1e-3, 1.0),
        "lo": number(0.0, 1.0),
        "hi": number(0.0, 1.0),
    },
    "histogram": {"csv": st.just("bins.csv")},
    "gamma": {},
}

SECTIONS = {
    "predictor": {
        "kind": mostly(st.just("confusion"), st.just("score")),
        "precision": number(0.05, 1.0),
        "recall": number(0.0, 1.0),
    },
    "costs": {"rescan": number(0.0, 2.0), "correction": number(0.01, 2.0)},
    "policy": {"max_rescans": count(0, 10_000)},
}


KINEMATIC_SECTIONS = {
    "predictor": {
        "kind": mostly(st.just("score"), st.just("confusion")),
        "noise_scale": number(0.0, 0.5),
    },
    "costs": SECTIONS["costs"],
    "policy": {"max_rescans": count(0, 20), "threshold": number(-0.1, 1.1)},
    "kinematics": {
        "translation_scale": number(1e-6, 50.0),
        "rotation_scale": number(1e-6, 2.0),
        "failure_cutoff": number(0.0, 1.0),
        "start_offset_t": number(0.0, 50.0),
        "start_offset_r": number(0.0, math.pi),
        "guidance_noise_t": number(0.0, 20.0),
        "guidance_noise_r": number(0.0, math.pi),
        "gain": number(0.0, 1.0),
        "motor_noise_t": number(0.0, 20.0),
        "motor_noise_r": number(0.0, math.pi),
    },
}
SWEEP_KEYS = {
    "tau_start": number(-0.1, 1.1),
    "tau_stop": number(-0.1, 1.1),
    "tau_steps": count(1, 20),
}


@st.composite
def section(draw, keys: dict) -> dict[str, str]:
    """Each key's text; a key is left out one time in 16."""
    return {key: draw(values) for key, values in keys.items() if draw(st.integers(0, 15))}


@st.composite
def bins_csv(draw) -> str:
    rows = draw(
        st.lists(st.tuples(number(0.0, 1.0), number(0.0, 5.0)), min_size=0, max_size=6)
    )
    return "bin_upper_edge,mass\n" + "".join(f"{edge},{mass}\n" for edge, mass in rows)


@st.composite
def abstract_documents(draw) -> tuple[str, str]:
    """(config text, histogram CSV text)."""
    family = draw(st.sampled_from(sorted(FAMILY_KEYS)))
    sections = {
        "cohort": {"mode": "abstract", "subjects": str(draw(st.integers(0, 50))), "workers": "1"},
        "distribution": {"family": family, **draw(section(FAMILY_KEYS[family]))},
        **{name: draw(section(keys)) for name, keys in SECTIONS.items()},
    }
    return render(sections), draw(bins_csv())


def render(sections: dict[str, dict[str, str]]) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


@st.composite
def kinematic_documents(draw) -> str:
    sections = {
        "cohort": {"mode": "kinematic", "subjects": str(draw(st.integers(0, 5))), "workers": "1"},
        **{name: draw(section(keys)) for name, keys in KINEMATIC_SECTIONS.items()},
    }
    if draw(st.booleans()):
        sections["sweep"] = draw(section(SWEEP_KEYS))
    return render(sections)


def fixed_document(
    distribution: str,
    precision: float,
    recall: float,
    rescan: float,
    correction: float,
    cohort: str = "subjects = 2",
    policy: str = "",
) -> tuple[str, str]:
    """(config text, histogram CSV text) of one abstract document; the
    ``distribution``, ``cohort`` and ``policy`` sections' keys as lines."""
    text = (
        f"[cohort]\nmode = abstract\n{cohort}\nworkers = 1\n"
        f"[distribution]\n{distribution}\n"
        f"[predictor]\nkind = confusion\nprecision = {precision!r}\nrecall = {recall!r}\n"
        f"[costs]\nrescan = {rescan!r}\ncorrection = {correction!r}\n[policy]\n{policy}"
    )
    return text, "bin_upper_edge,mass\n"


def extreme_costs(recall: float, rescan: float, correction: float) -> tuple[str, str]:
    """Two subjects whose correction cost is extreme against the re-scan
    cost: the delta-method error of the cost ratio squares the ratio or the
    mean baseline cost past the range of doubles."""
    truncated_normal = "family = truncated_normal\nmu = 0.0\nsigma = 1.0\nlo = 0.0\nhi = 0.5"
    return fixed_document(truncated_normal, 1.0, recall, rescan, correction)


def huge_quotient(precision: float, rescan: float, correction: float) -> tuple[str, str]:
    """Two subjects at alpha = 0.5 with at most 3 re-scans, whose cost ratio,
    reduction or looped cost leaves the range of doubles: rescan / correction
    is infinite or near the largest double, or both costs are."""
    point_mass, policy = "family = point_mass\nalpha = 0.5", "max_rescans = 3\n"
    return fixed_document(point_mass, precision, 1.0, rescan, correction, policy=policy)


def beta_near_one(a: float, b: float, precision: float) -> tuple[str, str]:
    """No subjects, and a Beta whose last piece of support is a few ulps wide:
    a Gauss node on it rounds onto alpha = 1 unless the piece joins its
    neighbour (at recall 1, alpha_max = precision)."""
    beta = f"family = beta\na = {a!r}\nb = {b!r}"
    return fixed_document(beta, precision, 1.0, 0.1, 1.0, cohort="subjects = 0")


def seed_7_costs(recall: float, rescan: float, correction: float) -> tuple[str, str]:
    """Two subjects at seed 7 whose costs overflow the spread of the cost
    (correction 2.68e154) or the empirical cost ratio (1e300 / 1e-300)."""
    truncated_normal = "family = truncated_normal\nmu = 0.2\nsigma = 0.1\nlo = 0.0\nhi = 0.6"
    cohort, policy = "subjects = 2\nseed = 7", "max_rescans = 5\n"
    return fixed_document(truncated_normal, 0.8, recall, rescan, correction, cohort, policy)


def never_rescans(
    recall: float, rescan: float, correction: float, max_rescans: int
) -> tuple[str, str]:
    """Two subjects at alpha = 0.2 whose loop never re-scans (recall 0, or no
    re-scan budget), at a cost quotient that may leave the range of doubles."""
    point_mass, policy = "family = point_mass\nalpha = 0.2", f"max_rescans = {max_rescans}\n"
    return fixed_document(point_mass, 0.8, recall, rescan, correction, policy=policy)


def far_tail(lo: float) -> tuple[str, str]:
    """Two subjects of Normal(0, 0.01) truncated to [lo, 0.5]: at lo = 0.381,
    38.1 sigma out, the normal CDF at lo, and so the mass between the bounds,
    is a subnormal with about 20 significant bits, which the config refuses."""
    truncated_normal = f"family = truncated_normal\nmu = 0.0\nsigma = 0.01\nlo = {lo!r}\nhi = 0.5"
    return fixed_document(truncated_normal, 0.8, 0.8, 0.1, 1.0)


def run_main(command: str, text: str, bins: str = "") -> tuple[int, str, dict[str, str]]:
    """(exit code, stderr, the files written by name) of ``command`` on ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "fuzz.ini", Path(tmp) / "out"
        config.write_text(text, encoding="utf-8")
        (Path(tmp) / "bins.csv").write_text(bins, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(out)])
        written = {p.name: p.read_text() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, err.getvalue(), written


def no_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def check_outcome(code: int, err: str, written: dict[str, str], expected: list[str]) -> None:
    """A documented exit code with no traceback; on success the expected files,
    each JSON one strict JSON (no ``Infinity`` or ``NaN``) and every cost in
    ``subjects.csv`` a finite number."""
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 0:
        assert list(written) == expected
        for name, text in written.items():
            if name.endswith(".json"):
                json.loads(text, parse_constant=no_constant)
        if "subjects.csv" in written:
            rows = csv.DictReader(written["subjects.csv"].splitlines()[1:])  # after the manifest
            assert all(math.isfinite(float(row["cost"])) for row in rows)
    else:
        assert err.strip(), "a failing run says why"


@given(document=abstract_documents(), command=st.sampled_from(["ratio", "simulate"]))
@example(document=extreme_costs(1.0, 1.0, 4.1955249823613083e-190), command="simulate")
@example(document=extreme_costs(0.0, 0.0, 4.1955249823613083e-190), command="simulate")
@example(document=extreme_costs(0.0, 0.0, 2.6815615859885194e154), command="simulate")
@example(document=beta_near_one(1.0, 2.0, 0.9999999999999999), command="ratio")
@example(document=beta_near_one(1.0, 2.0, 0.9999999999999999), command="simulate")
@example(document=beta_near_one(23971255501492.0, 4.0, 1.0), command="ratio")
@example(document=beta_near_one(23971255501492.0, 4.0, 1.0), command="simulate")
@example(document=seed_7_costs(0.0, 0.0, 2.68e154), command="simulate")
@example(document=seed_7_costs(0.0, 0.0, 2.68e154), command="ratio")
@example(document=seed_7_costs(0.8, 1e300, 1e-300), command="simulate")
@example(document=seed_7_costs(0.8, 1e300, 1e-300), command="ratio")
@example(document=huge_quotient(0.8, 1.0, 5e-324), command="ratio")
@example(document=huge_quotient(0.8, 1.0, 1e-307), command="ratio")
@example(document=huge_quotient(0.3, sys.float_info.max, sys.float_info.max), command="ratio")
@example(document=huge_quotient(0.3, sys.float_info.max, 1.0), command="simulate")
@example(document=far_tail(0.381), command="ratio")
@example(document=far_tail(0.381), command="simulate")
@example(document=never_rescans(0.8, 1e308, 1e-308, 0), command="ratio")
@example(document=never_rescans(0.8, 1e308, 1e-308, 0), command="simulate")
@example(document=never_rescans(0.0, 1.0, 5e-324, 3), command="ratio")
@example(document=never_rescans(0.0, 1.0, 5e-324, 3), command="simulate")
@settings(max_examples=300, deadline=None)
def test_any_abstract_config_ends_in_a_documented_exit_code(document, command):
    expected = ["ratio.json"] if command == "ratio" else ["report.json", "subjects.csv"]
    check_outcome(*run_main(command, *document), expected)


@pytest.mark.parametrize("command", ["ratio", "simulate"])
def test_far_tail_support_exits_2_naming_lo(command):
    code, err, written = run_main(command, *far_tail(0.381))
    assert code == 2 and written == {}
    assert "distribution.lo" in err and "Traceback" not in err
    # at 37.5 sigma the mass is a normal double, and both commands run
    code, err, written = run_main(command, *far_tail(0.375))
    assert code == 0, err
    expected = ["ratio.json"] if command == "ratio" else ["report.json", "subjects.csv"]
    assert list(written) == expected


@pytest.mark.parametrize(
    "recall, rescan, correction, max_rescans",
    [(0.8, 1e308, 1e-308, 0), (0.0, 1.0, 5e-324, 3)],
    ids=["no-budget", "recall-0"],
)
def test_a_loop_that_never_rescans_has_a_ratio_at_any_cost_quotient(
    recall, rescan, correction, max_rescans
):
    # rescan / correction is infinite, but no re-scan is ever paid for
    document = never_rescans(recall, rescan, correction, max_rescans)
    code, err, written = run_main("ratio", *document)
    assert code == 0, err
    ratio = json.loads(written["ratio.json"])
    code, err, written = run_main("ratio", *never_rescans(recall, 0.1, 1.0, max_rescans))
    assert code == 0, err
    usual = json.loads(written["ratio.json"])
    assert ratio["population"]["cost_ratio"].hex() == usual["population"]["cost_ratio"].hex()
    assert ratio["breakeven"]["precision_bound"] is None
    assert usual["breakeven"]["precision_bound"] == 0.2 + 0.1
    code, err, written = run_main("simulate", *document)
    assert code == 0, err
    report = json.loads(written["report.json"])
    assert report["aggregates"]["analytic_cost_ratio"] == ratio["population"]["cost_ratio"]


@given(text=kinematic_documents())
@settings(max_examples=200, deadline=None)
def test_any_kinematic_config_ends_in_a_documented_exit_code(text):
    check_outcome(*run_main("guidance", text), ["quality_curve.csv", "trajectories.csv"])
