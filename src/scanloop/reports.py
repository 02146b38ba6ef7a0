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
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .acquisition_loop import (
    SUBJECT_COLUMNS,
    ComparisonSummary,
    SimulationReport,
    SubjectTable,
    Unit,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig


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


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or its pieces one at a time as they are made, to a
    temporary file beside ``path`` and rename it into place; on any failure,
    also one raised while a piece is made, the temporary file and the
    directories made for it are removed and ``path`` is left as it was."""
    path = Path(path)
    made = []  # the missing directories, deepest first
    parent = path.parent
    while not parent.exists():
        made.append(parent)
        parent = parent.parent
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        for directory in made:
            try:
                directory.rmdir()
            except OSError:  # not empty: another writer's file is in it
                break
        raise


# Rows rendered at a time: every column is formatted a block at a time, so
# only one block's cell strings are alive at once.  Blocks of 1 024 rows hold
# a quarter of the strings of 4 096.
_ROW_BLOCK = 1024


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


def _csv_lines(rows: Iterable[tuple[str, ...]], width: int, lead: int | None = None) -> str:
    """``rows`` of ``width`` cells each as the lines ``csv.writer`` writes for
    them: the cells joined by commas, each line ended by a newline, and a row
    of one empty cell written as ``""``.  A row may end in a tail, several
    numeric cells already joined by commas, after its ``lead`` single cells.

    Raises:
        ValueError: for a cell that ``csv.writer`` would quote, one that holds
            a comma, a double quote, a CR or a LF.
    """
    rows = list(rows)
    text = "".join([line + "\n" for line in map(",".join, rows)])
    if (
        text.count(",") != len(rows) * max(width - 1, 0)
        or text.count("\n") != len(rows)
        or '"' in text
        or "\r" in text
    ):
        cell = next(c for row in rows for c in row[:lead] if any(ch in c for ch in ',"\r\n'))
        raise ValueError(f"CSV cell {cell!r} would need quoting")
    if width == 1:
        # A lone empty cell is quoted, so that it does not read as a blank line.
        text = "".join([(cell or '""') + "\n" for cell, in rows])
    return text


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a non-empty array, sorted."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _tail_codes(
    columns: list[Sequence[object]], limit: int
) -> tuple[int, np.ndarray, int] | None:
    """Where a block's row tails start, each row's tail code and the number
    of distinct tails; None when there is no tail of at most ``limit``.

    The tail is the longest run of trailing bool, int or float numpy columns
    that each hold at most ``limit`` distinct values.  Values are told apart
    by their bit patterns, so 0.0 and -0.0 make distinct tails.
    """
    lead, key, radix = len(columns), np.zeros(len(columns[0]), dtype=np.int64), 1
    while lead and isinstance(last := columns[lead - 1], np.ndarray) and last.dtype.kind in "biuf":
        bits = last.view(f"u{last.itemsize}")
        values = _distinct(bits)
        if len(values) > limit:
            break
        # mixed radix over the columns' codes, renumbered before it overflows
        if radix * len(values) >= 2**62:
            distinct = _distinct(key)
            key, radix = np.searchsorted(distinct, key), len(distinct)
        key, radix = key * len(values) + np.searchsorted(values, bits), radix * len(values)
        lead -= 1
    if lead == len(columns):
        return None
    distinct = _distinct(key)
    if len(distinct) > limit:
        return None
    return lead, np.searchsorted(distinct, key), len(distinct)


def _block_lines(
    columns: list[Sequence[object]], width: int, tails: dict[bytes, str]
) -> str:
    """The CSV lines of one block of rows, given as its column slices: the
    cells of each distinct row tail (``_tail_codes``, at most an eighth of the
    rows) are formatted once, every other cell one by one.

    ``tails`` holds the tails formatted so far and is shared by the blocks of
    one file, so a tail met again in a later block is not formatted again.
    Its keys are the bits of a tail's cells, each widened to 8 bytes, so a
    key's length also tells the column the tail starts at.
    """
    tail = _tail_codes(columns, len(columns[0]) // 8)
    if tail is None:
        return _csv_lines(zip(*map(_format_column, columns)), width)
    lead, code, count = tail
    # a row of each tail: the rows of one tail hold the same bits
    row_of = np.empty(count, dtype=np.intp)
    row_of[code] = np.arange(len(code))
    bits = np.empty((count, width - lead), dtype=np.uint64)
    for j, column in enumerate(columns[lead:]):
        bits[:, j] = column[row_of].view(f"u{column.itemsize}")
    keys = list(map(bytes, bits))
    new = [i for i, key in enumerate(keys) if key not in tails]
    if len(tails) + len(new) > _ROW_BLOCK:
        # a file of ever new tails keeps at most about a block of them
        tails.clear()
        new = range(count)
    if new:
        cells = [_format_column(column[row_of[new]]) for column in columns[lead:]]
        tails.update(zip([keys[i] for i in new], map(",".join, zip(*cells))))
    block_tails = np.array([tails[key] for key in keys], dtype=object)
    lead_cells = map(_format_column, columns[:lead])
    return _csv_lines(zip(*lead_cells, block_tails[code].tolist()), width, lead)


def write_csv(
    path: str | Path,
    header: Sequence[str],
    blocks: Iterable[Sequence[Sequence[object]]],
    manifest: dict,
) -> None:
    """A table given as consecutive blocks of rows, each a list of
    equal-length columns, one per header entry, with each cell formatted by
    ``format_cell``'s rules, as CSV text, written atomically: a failure leaves
    no partial file.  A table in memory is one block.  Each block is read
    from ``blocks`` only once the rows before it are written, and is rendered
    ``_ROW_BLOCK`` rows at a time, so a generator of blocks is never held
    whole.

    Raises:
        ValueError: for a header entry that would need quoting, before
            anything is written, and for a block whose columns have unequal
            lengths or a count other than the header's, or a cell that would
            need quoting.
    """
    width = len(header)
    head = manifest_line(manifest) + "\n" + _csv_lines([tuple(header)], width)
    tails: dict[bytes, str] = {}

    def lines() -> Iterator[str]:
        yield head
        for columns in blocks:
            if len(columns) != width:
                raise ValueError(f"{width} header entries but {len(columns)} columns")
            n = len(columns[0]) if columns else 0
            if any(len(column) != n for column in columns):
                raise ValueError("columns must have equal lengths")
            for start in range(0, n, _ROW_BLOCK):
                rows = [c[start : start + _ROW_BLOCK] for c in columns]
                yield _block_lines(rows, width, tails)

    atomic_write_text(path, lines())


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


def subjects_csv_columns(mode: str, start: int, unit: SubjectTable) -> list[np.ndarray]:
    """The block of subjects.csv for the subjects of ``unit``, the first of
    them subject ``start``: its columns, in the order of
    ``subjects_csv_header(mode)``."""
    lead = [unit.alpha] if mode == "abstract" else [unit.quality_at(0), unit.quality_at(None)]
    ids = np.arange(start, start + len(unit))
    return [ids, *lead, *(getattr(unit, name) for name in SUBJECT_COLUMNS)]


def write_subjects_csv(path: str | Path, config: "ExperimentConfig", units: Iterable[Unit]) -> None:
    """subjects.csv of a run of ``config``, given its units in subject order
    (a ``run_cohort`` sink): each unit's rows are written as it is read."""
    blocks = (subjects_csv_columns(config.mode, start, unit) for start, unit in units)
    write_csv(path, subjects_csv_header(config.mode), blocks, config.manifest)


def summary_payload(
    report: SimulationReport, comparison: ComparisonSummary | None = None
) -> dict:
    payload = {
        "mode": report.config.mode,
        "manifest": report.config.manifest,
        "config": report.config.echo,
        "aggregates": dataclasses.asdict(report.aggregates),
    }
    if comparison is not None:
        payload["comparison"] = dataclasses.asdict(comparison)
    return payload


def write_summary_json(
    path: str | Path, report: SimulationReport, comparison: ComparisonSummary | None = None
) -> None:
    write_json(path, summary_payload(report, comparison))
