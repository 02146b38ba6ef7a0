"""How ``bench/same_outputs.py`` reads a run's files across a version change and
across worker counts, and the configs it generates."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from scanloop.acquisition_loop import run_cohort
from scanloop.config import parse_config
from scanloop.probe_kinematics import GuidanceNoise, LearnerPolicy
from scanloop.reports import manifest_line, write_json

_PATH = Path(__file__).resolve().parent.parent / "bench" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _run(directory: Path, version: str, cost: str = "0.5") -> Path:
    """A run's files as the package writes them: a CSV under its manifest line
    and a JSON report holding the manifest, both at ``version``."""
    manifest = {"config_digest": "ab", "master_seed": 1, "timestamp": "t", "version": version}
    directory.mkdir()
    rows = f"{manifest_line(manifest)}\nsubject_id,cost\n0,{cost}\n"
    (directory / "subjects.csv").write_text(rows)
    write_json(directory / "report.json", {"manifest": manifest, "mode": "abstract"})
    return directory


def test_masking_the_versions_leaves_equal_files_equal(tmp_path):
    before = same_outputs.files(_run(tmp_path / "before", "0.4.0"), "0.4.0")
    after = same_outputs.files(_run(tmp_path / "after", "0.5.0"), "0.5.0")
    assert before == after
    assert b'"version":"<version>"' in after["subjects.csv"]
    assert b'"version": "<version>"' in after["report.json"]


def test_a_byte_besides_the_version_still_differs(tmp_path):
    before = same_outputs.files(_run(tmp_path / "before", "0.4.0"), "0.4.0")
    after = same_outputs.files(_run(tmp_path / "after", "0.5.0", cost="0.25"), "0.5.0")
    assert before["report.json"] == after["report.json"]
    assert before["subjects.csv"] != after["subjects.csv"]


@pytest.mark.parametrize("version", [None, "0.4.1"])
def test_only_the_given_version_is_masked(tmp_path, version):
    # without a version, or at one the files do not carry, the bytes are read as written
    run = _run(tmp_path / "run", "0.4.0")
    assert same_outputs.files(run, version) == same_outputs.files(run)
    assert b'"version":"0.4.0"' in same_outputs.files(run)["subjects.csv"]


def _written(cost_at_four: str = "0.5") -> dict[str, dict[str, bytes]]:
    """What the config runs of one command and seed wrote, by label."""
    csv = "subject_id,cost\n0,{}\n"
    return {
        "README: scanloop table1": {"table1.csv": b"x"},
        "simulate a.ini workers=1 seed=1": {"subjects.csv": csv.format("0.5").encode()},
        "simulate a.ini workers=4 seed=1": {"subjects.csv": csv.format(cost_at_four).encode()},
    }


def test_runs_at_four_workers_equal_to_one_have_no_problem():
    assert same_outputs.compare_workers(_written()) == []


def test_a_byte_that_moves_with_the_worker_count_is_named():
    assert same_outputs.compare_workers(_written(cost_at_four="0.25")) == [
        "simulate a.ini workers=4 seed=1: subjects.csv differs from the run at workers=1"
    ]


def test_a_file_written_at_one_worker_count_only_is_named():
    written = _written()
    written["simulate a.ini workers=1 seed=1"]["report.json"] = b"{}"
    assert same_outputs.compare_workers(written) == [
        "simulate a.ini workers=4 seed=1: report.json differs from the run at workers=1"
    ]


def test_worker_invariance_reads_the_labels_config_cases_makes(tmp_path):
    config = tmp_path / "a.ini"
    config.write_text("[cohort]\nmode = abstract\nworkers = 2\n")
    labels = [label for label, _ in same_outputs.config_cases([config], [1], tmp_path)]
    assert labels == ["simulate a.ini workers=1 seed=1", "simulate a.ini workers=4 seed=1"]
    written = dict.fromkeys(labels, {"subjects.csv": b"0"})
    assert same_outputs.compare_workers(written) == []


def test_every_generated_config_parses(tmp_path):
    (tmp_path / "histogram.csv").write_text(same_outputs.HISTOGRAM_CSV)
    for distribution in same_outputs.GENERATED_CONFIGS.values():
        text = same_outputs.ABSTRACT_CONFIG.format(distribution=distribution)
        assert parse_config(text, base_dir=tmp_path).mode == "abstract"
    for text in same_outputs.KINEMATIC_CONFIGS.values():
        config = parse_config(text)
        assert config.mode == "kinematic"


def test_the_kinematic_config_converges_exactly_and_runs_long():
    (text,) = same_outputs.KINEMATIC_CONFIGS.values()
    config = parse_config(text)
    assert config.guidance == GuidanceNoise(0.0, 0.0)
    assert config.learner == LearnerPolicy(gain=1.0, motor_noise_t=0.0, motor_noise_r=0.0)
    assert (config.score_predictor.threshold, config.max_rescans) == (1.0, 30)
    table = run_cohort(dataclasses.replace(config, n_subjects=500)).table
    assert (table.quality_at(1)[table.scans > 1] == 1.0).all()
    assert table.scans.max() > 3


def test_generated_kinematic_configs_also_run_guidance(tmp_path):
    (name,) = same_outputs.KINEMATIC_CONFIGS
    config = tmp_path / name
    config.write_text(same_outputs.KINEMATIC_CONFIGS[name])
    labels = [label for label, _ in same_outputs.config_cases([config], [1], tmp_path)]
    assert labels == [
        f"{command} {name} workers={workers} seed=1"
        for workers in (1, 4)
        for command in ("simulate", "guidance")
    ]
