"""Report emission: formatting, atomicity, manifests, and round-trips."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanloop.acquisition_loop import SUBJECT_COLUMNS, run_cohort
from scanloop.config import parse_config
from scanloop.reports import (
    atomic_write_text,
    format_cell,
    manifest_line,
    render_csv,
    subjects_csv_header,
    subjects_csv_columns,
    summary_payload,
    write_csv,
    write_subjects_csv,
    write_summary_json,
)

from oracles import read_report_csv, render_csv_rows, table_row

ABSTRACT = """
[cohort]
mode = abstract
subjects = 200
seed = 9
workers = 1

[distribution]
family = uniform
lo = 0.05
hi = 0.45

[predictor]
kind = confusion
precision = 0.8
recall = 0.8

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = 20
"""

KINEMATIC = """
[cohort]
mode = kinematic
subjects = 40
seed = 9
workers = 1

[predictor]
kind = score
noise_scale = 0.05

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = 5
threshold = 0.7

[kinematics]
translation_scale = 10.0
rotation_scale = 0.5
failure_cutoff = 0.5
start_offset_t = 8.0
start_offset_r = 0.2
gain = 0.9
guidance_noise_t = 0.5
"""


class TestFormatting:
    def test_cells(self):
        assert format_cell(None) == ""
        assert format_cell(math.nan) == ""
        assert format_cell(True) == "1"
        assert format_cell(False) == "0"
        assert format_cell(3) == "3"
        assert format_cell(0.1) == "0.1"
        assert format_cell(1.0) == "1"
        assert format_cell(1 / 3) == "0.333333333333"
        assert len(format_cell(math.pi).replace(".", "").lstrip("0")) <= 12

    def test_manifest_line_is_canonical_json(self):
        line = manifest_line({"b": 1, "a": None})
        assert line == '# manifest {"a":null,"b":1}'


class TestAtomicity:
    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "report.csv"

        class Exploding:
            def __str__(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_csv(target, ("a", "b"), [[1, 2], [2.0, Exploding()]], {"seed": 0})
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp file cleaned up too

    def test_replaces_existing_file_completely(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "first version, quite long " * 10)
        atomic_write_text(target, "second")
        assert target.read_text() == "second"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        atomic_write_text(target, "content")
        assert target.read_text() == "content"


class TestSubjectsCsv:
    def test_abstract_round_trip_at_emitted_precision(self, tmp_path):
        report = run_cohort(parse_config(ABSTRACT))
        path = tmp_path / "subjects.csv"
        write_subjects_csv(path, report)

        manifest, header, rows = read_report_csv(path)
        assert manifest == report.manifest
        assert header == subjects_csv_header("abstract")
        assert len(rows) == 200
        table = report.table
        for i in (0, 57, 199):
            row = dict(zip(header, rows[i]))
            assert int(row["subject_id"]) == i
            assert float(row["alpha"]) == float(format_cell(float(table.alpha[i])))
            assert int(row["scans"]) == table.scans[i]
            assert int(row["rescans"]) == table.rescans[i]
            assert row["first_fail"] == format_cell(bool(table.first_fail[i]))
            assert float(row["cost"]) == float(format_cell(float(table.cost[i])))

    def test_kinematic_columns_carry_quality(self, tmp_path):
        report = run_cohort(parse_config(KINEMATIC))
        path = tmp_path / "subjects.csv"
        write_subjects_csv(path, report)
        _, header, rows = read_report_csv(path)
        assert header[:3] == ["subject_id", "initial_quality", "final_quality"]
        assert "alpha" not in header
        first = dict(zip(header, rows[0]))
        trajectory = table_row(report.table, 0).quality_trajectory
        assert float(first["initial_quality"]) == pytest.approx(trajectory[0], rel=1e-11)
        assert float(first["final_quality"]) == pytest.approx(trajectory[-1], rel=1e-11)

    @pytest.mark.parametrize("text", [ABSTRACT, KINEMATIC], ids=["abstract", "kinematic"])
    def test_matches_row_writer(self, tmp_path, text):
        report = run_cohort(parse_config(text))
        table = report.table
        rows = []
        for i in range(len(table)):
            if report.mode == "abstract":
                lead = [table.alpha[i].item()]
            else:
                trajectory = table_row(table, i).quality_trajectory
                lead = [trajectory[0], trajectory[-1]]
            columns = [getattr(table, name)[i].item() for name in SUBJECT_COLUMNS]
            rows.append([i, *lead, *columns])
        write_subjects_csv(tmp_path / "subjects.csv", report)
        expected = render_csv_rows(subjects_csv_header(report.mode), rows, report.manifest)
        assert (tmp_path / "subjects.csv").read_text(encoding="utf-8") == expected

    def test_rows_match_table_length(self):
        report = run_cohort(parse_config(ABSTRACT.replace("subjects = 200", "subjects = 0")))
        columns = subjects_csv_columns(report)
        assert len(columns) == len(subjects_csv_header("abstract"))
        assert all(len(column) == 0 for column in columns)


def _assert_renders_like_rows(header, columns):
    rows = list(zip(*(column.tolist() for column in columns)))
    assert render_csv(header, columns, {"x": 1}) == render_csv_rows(header, rows, {"x": 1})


class TestRenderCsv:
    """The column renderer writes the bytes of the row-at-a-time reference."""

    FLOATS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1e-300, 0.1, 1 / 3, -2.5e17]

    def test_fixed_table_matches_row_writer(self):
        n = 2 * 4096 + 5  # three blocks, the last one short
        floats = np.resize(np.array(self.FLOATS), n)
        ints = np.resize(np.array([2**63 - 1, 0, -7, 42], dtype=np.int64), n)
        bools = np.resize(np.array([True, False, False]), n)
        _assert_renders_like_rows(
            ("subject_id", "x", "k", "flag"), [np.arange(n), floats, ints, bools]
        )

    def test_empty_table(self):
        columns = [np.arange(0), np.array([], dtype=np.float64), np.array([], dtype=bool)]
        _assert_renders_like_rows(("subject_id", "x", "flag"), columns)
        assert render_csv(("a", "b", "c"), columns, {"x": 1}).count("\n") == 2

    def test_sweep_style_rows_with_none(self):
        rows = [
            [0.0, 0.25, None, 0.5, None, 0.1, None, 0, 1],
            [0.5, math.nan, 0.75, None, 1.2, 0.2, 0.9, 1, 0],
            [1.0, 1 / 3, 1.0, 1.0, 0.3, None, 1.1, 0, 0],
        ]
        header = tuple(f"c{i}" for i in range(9))
        columns = list(zip(*rows))
        assert render_csv(header, columns, {"x": 1}) == render_csv_rows(header, rows, {"x": 1})

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            render_csv(("a", "b"), [np.arange(2), np.zeros(3)], {})
        with pytest.raises(ValueError, match="columns"):
            render_csv(("a", "b"), [np.arange(2)], {})

    @pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_cell_that_would_need_quoting_rejected(self, cell):
        with pytest.raises(ValueError, match="quoting"):
            render_csv(("a", "b"), [[1, 2], ["x", cell]], {})
        with pytest.raises(ValueError, match="quoting"):
            render_csv(("a", cell), [[1], [2]], {})

    def test_one_empty_cell_is_quoted_like_csv_writer(self):
        rows = [[None], [1.5], [math.nan]]
        assert render_csv(("a",), list(zip(*rows)), {}) == render_csv_rows(("a",), rows, {})
        assert render_csv(("a", "b"), [[None], [None]], {}).endswith("a,b\n,\n")

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50))
    def test_float_columns_format_like_format_cell(self, values):
        column = np.array(values, dtype=np.float64)
        _assert_renders_like_rows(("a", "b"), [column, column[::-1]])
        body = render_csv(("a",), [column], {}).split("\n")[2:-1]
        assert body == [format_cell(v) or '""' for v in values]


class TestSummaryJson:
    def test_payload_and_exact_float_round_trip(self, tmp_path):
        report = run_cohort(parse_config(ABSTRACT))
        path = tmp_path / "report.json"
        write_summary_json(path, report)
        payload = json.loads(path.read_text())
        assert payload["mode"] == "abstract"
        assert payload["manifest"] == report.manifest
        assert payload["config"] == report.config
        # JSON floats re-parse to the exact in-memory values
        assert payload["aggregates"]["mean_cost"] == report.aggregates.mean_cost
        assert (
            payload["aggregates"]["empirical_cost_ratio"]
            == report.aggregates.empirical_cost_ratio
        )
        assert "comparison" not in payload

    def test_byte_identical_for_identical_reports(self, tmp_path):
        config = parse_config(ABSTRACT)
        write_summary_json(tmp_path / "a.json", run_cohort(config))
        write_summary_json(tmp_path / "b.json", run_cohort(config))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_nones_serialize_as_nulls(self, tmp_path):
        config = parse_config(ABSTRACT.replace("subjects = 200", "subjects = 0"))
        payload = summary_payload(run_cohort(config))
        text = json.dumps(payload)
        parsed = json.loads(text)
        assert parsed["aggregates"]["mean_cost"] is None
        assert parsed["aggregates"]["empirical_cost_ratio"] is None


class TestReadReportCsv:
    def test_rejects_missing_manifest(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="manifest"):
            read_report_csv(path)

    def test_render_csv_uses_unix_newlines(self):
        text = render_csv(("a",), [[1.5]], {"x": 1})
        assert "\r" not in text
        assert text == '# manifest {"x":1}\na\n1.5\n'
