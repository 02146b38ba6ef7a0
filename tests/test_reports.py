"""Report emission: formatting, atomicity, manifests, and round-trips."""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scanloop import reports
from scanloop.acquisition_loop import SUBJECT_COLUMNS, run_cohort
from scanloop.config import parse_config
from scanloop.reports import (
    atomic_write_text,
    format_cell,
    manifest_line,
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
        assert manifest == report.config.manifest
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
            if report.config.mode == "abstract":
                lead = [table.alpha[i].item()]
            else:
                trajectory = table_row(table, i).quality_trajectory
                lead = [trajectory[0], trajectory[-1]]
            columns = [getattr(table, name)[i].item() for name in SUBJECT_COLUMNS]
            rows.append([i, *lead, *columns])
        write_subjects_csv(tmp_path / "subjects.csv", report)
        config = report.config
        expected = render_csv_rows(subjects_csv_header(config.mode), rows, config.manifest)
        assert (tmp_path / "subjects.csv").read_text(encoding="utf-8") == expected

    def test_rows_match_table_length(self):
        report = run_cohort(parse_config(ABSTRACT.replace("subjects = 200", "subjects = 0")))
        columns = subjects_csv_columns(report)
        assert len(columns) == len(subjects_csv_header("abstract"))
        assert all(len(column) == 0 for column in columns)


def written_csv(header, columns, manifest) -> str:
    """The text ``write_csv`` writes for a table, read back undecoded of its
    line ends."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, header, columns, manifest)
        return path.read_bytes().decode("utf-8")


def _assert_renders_like_rows(header, columns):
    rows = list(zip(*(column.tolist() for column in columns)))
    assert written_csv(header, columns, {"x": 1}) == render_csv_rows(header, rows, {"x": 1})


class TestWriteCsvText:
    """The column writer writes the bytes of the row-at-a-time reference."""

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
        assert written_csv(("a", "b", "c"), columns, {"x": 1}).count("\n") == 2

    def test_sweep_style_rows_with_none(self):
        rows = [
            [0.0, 0.25, None, 0.5, None, 0.1, None, 0, 1],
            [0.5, math.nan, 0.75, None, 1.2, 0.2, 0.9, 1, 0],
            [1.0, 1 / 3, 1.0, 1.0, 0.3, None, 1.1, 0, 0],
        ]
        header = tuple(f"c{i}" for i in range(9))
        columns = list(zip(*rows))
        assert written_csv(header, columns, {"x": 1}) == render_csv_rows(header, rows, {"x": 1})

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            written_csv(("a", "b"), [np.arange(2), np.zeros(3)], {})
        with pytest.raises(ValueError, match="columns"):
            written_csv(("a", "b"), [np.arange(2)], {})

    @pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_cell_that_would_need_quoting_rejected(self, cell):
        with pytest.raises(ValueError, match="quoting"):
            written_csv(("a", "b"), [[1, 2], ["x", cell]], {})
        with pytest.raises(ValueError, match="quoting"):
            written_csv(("a", cell), [[1], [2]], {})

    def test_one_empty_cell_is_quoted_like_csv_writer(self):
        rows = [[None], [1.5], [math.nan]]
        assert written_csv(("a",), list(zip(*rows)), {}) == render_csv_rows(("a",), rows, {})
        assert written_csv(("a", "b"), [[None], [None]], {}).endswith("a,b\n,\n")

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=50))
    def test_float_columns_format_like_format_cell(self, values):
        column = np.array(values, dtype=np.float64)
        _assert_renders_like_rows(("a", "b"), [column, column[::-1]])
        body = written_csv(("a",), [column], {}).split("\n")[2:-1]
        assert body == [format_cell(v) or '""' for v in values]


def _nan(bits):
    """The float64 NaN with the bit pattern ``bits``."""
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


class TestWriteCsvTails:
    """A block's trailing numeric columns with few distinct values are
    formatted one distinct row tail at a time; the bytes stay those of the
    row-at-a-time reference, on the tail path and on the per-column one."""

    B = reports._ROW_BLOCK
    N = 2 * B + 1000  # three blocks, the last one short

    @staticmethod
    def _tail_lengths(monkeypatch):
        """Records the length of every column slice ``write_csv`` formats."""
        lengths = []
        format_column = reports._format_column

        def spy(values):
            lengths.append(len(values))
            return format_column(values)

        monkeypatch.setattr(reports, "_format_column", spy)
        return lengths

    def test_many_distinct_floats_take_the_per_column_path(self, monkeypatch):
        floats = np.random.default_rng(3).random(self.N)
        lengths = self._tail_lengths(monkeypatch)
        _assert_renders_like_rows(("subject_id", "x"), [np.arange(self.N), floats])
        assert set(lengths) == {self.B, 1000}

    def test_signed_zeros_and_nan_payloads_are_kept_apart(self, monkeypatch):
        values = [0.0, -0.0, math.nan, -math.nan, _nan(0x7FF8000000000001), 0.25, -math.inf]
        floats = np.resize(np.array(values), self.N)
        lengths = self._tail_lengths(monkeypatch)
        _assert_renders_like_rows(("subject_id", "x"), [np.arange(self.N), floats])
        body = written_csv(("x",), [floats], {}).split("\n")[2:9]
        assert body == ["0", "-0", '""', '""', '""', "0.25", "-inf"]
        # each block formats its seven distinct tails once
        assert lengths.count(7) == 3 * 2

    def test_bool_and_int_tails(self, monkeypatch):
        n = self.N
        lengths = self._tail_lengths(monkeypatch)
        ints = np.resize(np.array([2**63 - 1, 0, -7, 42, 3], dtype=np.int64), n)
        small = np.resize(np.array([1, 2, 3], dtype=np.uint8), n)
        bools = np.resize(np.array([True, False, True, True]), n)
        columns = [np.arange(n), ints, small, bools]
        _assert_renders_like_rows(("subject_id", "k", "u", "flag"), columns)
        # 5 x 3 x 2 distinct tails in every block
        assert lengths.count(30) == 3 * 3

    def test_many_distinct_tails_take_the_per_column_path(self, monkeypatch):
        # 64 and 63 values, each few, but every row of a block a combination
        # of its own: they repeat only every 64 * 63 = 4032 rows
        n = self.N
        lengths = self._tail_lengths(monkeypatch)
        columns = [np.resize(np.arange(64), n), np.resize(np.arange(63) / 7, n)]
        _assert_renders_like_rows(("subject_id", "a", "b"), [np.arange(n), *columns])
        assert set(lengths) == {self.B, 1000}

    def test_wide_tail_past_the_range_of_one_key(self, monkeypatch):
        # 100^10 codes overflow an int64 key, which is renumbered on the way
        n = self.N
        lengths = self._tail_lengths(monkeypatch)
        columns = [np.resize(np.arange(100) * (k + 1), n) for k in range(10)]
        _assert_renders_like_rows(tuple("abcdefghij"), columns)
        assert lengths.count(100) == 3 * 10

    def test_cardinality_changing_at_a_block_edge(self, monkeypatch):
        # Low-cardinality tails in the first and last blocks, distinct values
        # in the middle one: the middle block alone falls back.
        n = self.N
        floats = np.resize(np.array([0.5, 1 / 3, -2.5e17]), n)
        b = self.B
        floats[b : 2 * b] = np.random.default_rng(5).random(b)
        counts = np.resize(np.arange(4, dtype=np.int64), n)
        counts[b : 2 * b] = np.arange(b)
        lengths = self._tail_lengths(monkeypatch)
        _assert_renders_like_rows(("subject_id", "x", "c"), [np.arange(n), floats, counts])
        assert lengths == [12, 12, b] + [b] * 3 + [12, 12, 1000]

    @pytest.mark.parametrize("width", [1, 2])
    def test_narrow_tables(self, width):
        tail = np.resize(np.array([math.nan, 1.5, -0.0]), self.N)
        columns = [tail] if width == 1 else [np.resize(np.array([True, False]), self.N), tail]
        _assert_renders_like_rows(("a", "b")[:width], columns)

    def test_comma_in_a_lead_cell_before_a_tail_rejected(self):
        lead = ["x"] * 100
        lead[57] = "a,b"
        with pytest.raises(ValueError, match="'a,b' would need quoting"):
            written_csv(("a", "b", "c"), [lead, np.zeros(100), np.ones(100, dtype=bool)], {})


class TestWriteCsvStreaming:
    def test_writes_the_rendered_text(self, tmp_path):
        n = 3 * 4096 + 1
        columns = [np.arange(n), np.resize(np.array([0.1, 0.2]), n)]
        write_csv(tmp_path / "t.csv", ("a", "b"), columns, {"x": 1})
        text = render_csv_rows(("a", "b"), zip(*(c.tolist() for c in columns)), {"x": 1})
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == text

    def test_failure_in_a_later_block_leaves_no_file(self, tmp_path):
        target = tmp_path / "report.csv"
        lead = ["x"] * 5000
        lead[4500] = "bad\ncell"
        with pytest.raises(ValueError, match="quoting"):
            write_csv(target, ("a", "b"), [lead, np.zeros(5000)], {"seed": 0})
        assert list(tmp_path.iterdir()) == []


class TestSummaryJson:
    def test_payload_and_exact_float_round_trip(self, tmp_path):
        report = run_cohort(parse_config(ABSTRACT))
        path = tmp_path / "report.json"
        write_summary_json(path, report)
        payload = json.loads(path.read_text())
        assert payload["mode"] == "abstract"
        assert payload["manifest"] == report.config.manifest
        assert payload["config"] == report.config.echo
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

    def test_write_csv_uses_unix_newlines(self):
        text = written_csv(("a",), [[1.5]], {"x": 1})
        assert "\r" not in text
        assert text == '# manifest {"x":1}\na\n1.5\n'
