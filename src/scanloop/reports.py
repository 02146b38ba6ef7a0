"""Report file emission: CSV and JSON artifacts with reproducibility manifests.

Conventions shared by every emitted file:

* writes are atomic — content goes to a temporary file in the destination
  directory and is renamed into place, so a failure never leaves a partial
  report behind;
* CSVs are UTF-8, comma-separated, one header row, floats at 12 significant
  digits, preceded by a single ``# manifest {...}`` comment line;
* JSON files embed the same manifest object, use sorted keys, and keep
  floats at full precision (they re-parse to the exact in-memory values).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .acquisition_loop import SUBJECT_COLUMNS, ComparisonSummary, SimulationReport


def format_cell(value: object) -> str:
    """One CSV cell: floats at 12 significant digits, booleans as 1/0,
    absent values as empty cells."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.12g}"
    return str(value)


def manifest_line(manifest: dict) -> str:
    return "# manifest " + json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# Rows rendered at a time: every column is formatted a block at a time, so
# only one block's cell strings are alive at once.
_ROW_BLOCK = 4096


def _format_column(values: Sequence[object]) -> list[str]:
    """``format_cell`` of every value of a column slice, in order.

    A bool, int or float numpy array is formatted by its dtype alone, as the
    values of its ``.tolist()``; any other sequence goes through
    ``format_cell`` cell by cell.
    """
    if not isinstance(values, np.ndarray):
        return list(map(format_cell, values))
    kind = values.dtype.kind
    if kind == "b":
        return np.where(values, "1", "0").tolist()
    if kind in "iu":
        return list(map(str, values.tolist()))
    cells = [f"{v:.12g}" for v in values.tolist()]
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def _csv_lines(rows: list[tuple[str, ...]], width: int) -> str:
    """``rows`` of ``width`` cells each as the lines ``csv.writer`` writes for
    them: the cells joined by commas, each line ended by a newline, and a row
    of one empty cell written as ``""``.

    Raises:
        ValueError: for a cell that ``csv.writer`` would quote, one that holds
            a comma, a double quote, a CR or a LF.
    """
    text = "".join([line + "\n" for line in map(",".join, rows)])
    if (
        text.count(",") != len(rows) * max(width - 1, 0)
        or text.count("\n") != len(rows)
        or '"' in text
        or "\r" in text
    ):
        cell = next(c for row in rows for c in row if any(ch in c for ch in ',"\r\n'))
        raise ValueError(f"CSV cell {cell!r} would need quoting")
    if width == 1:
        # A lone empty cell is quoted, so that it does not read as a blank line.
        text = "".join([(cell or '""') + "\n" for cell, in rows])
    return text


def render_csv(
    header: Sequence[str], columns: Sequence[Sequence[object]], manifest: dict
) -> str:
    """The CSV text of a table given as equal-length columns, one per header
    entry, each cell formatted by ``format_cell``'s rules.

    Raises:
        ValueError: for columns of unequal lengths or a count other than the
            header's, and for a header entry or cell that would need quoting.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header entries but {len(columns)} columns")
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError("columns must have equal lengths")
    width = len(header)
    parts = [manifest_line(manifest) + "\n", _csv_lines([tuple(header)], width)]
    for start in range(0, n, _ROW_BLOCK):
        block = zip(*(_format_column(c[start : start + _ROW_BLOCK]) for c in columns))
        parts.append(_csv_lines(list(block), width))
    return "".join(parts)


def write_csv(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[Sequence[object]],
    manifest: dict,
) -> None:
    atomic_write_text(path, render_csv(header, columns, manifest))


def write_json(path: str | Path, payload: dict) -> None:
    """Strict JSON: a non-finite number raises ``ValueError`` instead of
    being written as ``Infinity`` or ``NaN``, which JSON parsers refuse."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    atomic_write_text(path, text + "\n")


def subjects_csv_header(mode: str) -> list[str]:
    lead = ["subject_id", "alpha"] if mode == "abstract" else [
        "subject_id",
        "initial_quality",
        "final_quality",
    ]
    return lead + list(SUBJECT_COLUMNS)


def subjects_csv_columns(report: SimulationReport) -> list[Sequence[object]]:
    """The columns of subjects.csv, in the order of ``subjects_csv_header``."""
    table = report.table
    if report.mode == "abstract":
        lead = [table.alpha]
    else:
        lead = [table.quality_at(0), table.quality_at(None)]
    return [np.arange(len(table)), *lead, *(getattr(table, name) for name in SUBJECT_COLUMNS)]


def write_subjects_csv(path: str | Path, report: SimulationReport) -> None:
    write_csv(
        path, subjects_csv_header(report.mode), subjects_csv_columns(report), report.manifest
    )


def summary_payload(
    report: SimulationReport, comparison: ComparisonSummary | None = None
) -> dict:
    payload = {
        "mode": report.mode,
        "manifest": report.manifest,
        "config": report.config,
        "aggregates": dataclasses.asdict(report.aggregates),
    }
    if comparison is not None:
        payload["comparison"] = dataclasses.asdict(comparison)
    return payload


def write_summary_json(
    path: str | Path, report: SimulationReport, comparison: ComparisonSummary | None = None
) -> None:
    write_json(path, summary_payload(report, comparison))
