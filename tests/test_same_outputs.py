"""How ``bench/same_outputs.py`` reads a run's files across a version change."""

import importlib.util
from pathlib import Path

import pytest

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
