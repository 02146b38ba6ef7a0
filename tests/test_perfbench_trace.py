"""The benchmark's traced run binds timing wrappers over named package
boundaries (``perfbench/layers.py:bind_all``).  A boundary that is renamed,
or stops being a function or classmethod, fails that run; so does a traced
scan count that disagrees with the outputs.  Both are checked here."""

import importlib
import sys
from pathlib import Path

import pytest

import scanloop
import scanloop.cli  # noqa: F401 -- loads every module the traced run binds
from scanloop.acquisition_loop import SubjectTable, run_cohort
from scanloop.config import parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# perfbench's scripts import one another by these bare names.
PERFBENCH_MODULES = ("layers", "run", "workloads")

ABSTRACT = """
[cohort]
mode = abstract
subjects = 300
seed = 4
workers = 1

[distribution]
family = point_mass
alpha = 0.3

[predictor]
kind = confusion
precision = 0.8
recall = 0.8

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = 3
"""

# The abstract families whose failure rates the engine draws a key block at
# a time, and Beta, drawn per subject, at the default re-scan budget.
FAMILIES = {
    "truncated_normal": "family = truncated_normal\nmu = 0.2\nsigma = 0.1\nlo = 0.0\nhi = 0.6",
    "uniform": "family = uniform\nlo = 0.5\nhi = 0.95",
    "histogram": "family = histogram\ncsv = bins.csv",
    "beta": "family = beta\na = 2\nb = 8",
}
CASES = {
    "abstract": ABSTRACT,
    **{
        name: ABSTRACT.replace("family = point_mass\nalpha = 0.3", body).replace(
            "max_rescans = 3", "max_rescans = 50"
        )
        for name, body in FAMILIES.items()
    },
}

KINEMATIC = """
[cohort]
mode = kinematic
subjects = 200
seed = 4
workers = 1

[predictor]
kind = score
noise_scale = 0.05

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = 4
threshold = 0.7

[kinematics]
translation_scale = 10.0
rotation_scale = 0.5
failure_cutoff = 0.5
start_offset_t = 8.0
start_offset_r = 0.3
"""


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in PERFBENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("layers")
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_boundary_binds_and_unbinds(layers):
    loop = scanloop.acquisition_loop
    originals = (loop.run_cohort, loop.run_subject_kinematic, vars(SubjectTable)["from_records"])
    tracer = layers.Tracer()
    try:
        assert layers.bind_all(tracer, scanloop) == []
        assert loop.run_cohort is not originals[0]
    finally:
        tracer.unbind()
    assert (loop.run_cohort, loop.run_subject_kinematic) == originals[:2]
    assert vars(SubjectTable)["from_records"] is originals[2]


@pytest.mark.parametrize("case", [*CASES, "kinematic"])
def test_traced_scans_match_the_table(layers, case, tmp_path):
    # The traced run counts scans from the record each run_subject_* call
    # returns and compares them with the outputs, so every subject's loop
    # must go through the bound run_subject_abstract or run_subject_kinematic.
    text = CASES.get(case, KINEMATIC)
    (tmp_path / "bins.csv").write_text("bin_upper_edge,mass\n0.1,5\n0.2,12\n0.3,8\n0.5,2\n")
    tracer = layers.Tracer()
    try:
        assert layers.bind_all(tracer, scanloop) == []
        table = run_cohort(parse_config(text, base_dir=tmp_path)).table
    finally:
        tracer.unbind()
    assert tracer.scans == table.scans.tolist()
    assert tracer.from_records_rows == len(table)
