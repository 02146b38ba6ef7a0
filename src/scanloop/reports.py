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

import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

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


def render_csv(header: Sequence[str], rows: Iterable[Sequence[object]], manifest: dict) -> str:
    buffer = io.StringIO()
    buffer.write(manifest_line(manifest) + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(cell) for cell in row])
    return buffer.getvalue()


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    manifest: dict,
) -> None:
    atomic_write_text(path, render_csv(header, rows, manifest))


def write_json(path: str | Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_report_csv(path: str | Path) -> tuple[dict, list[str], list[list[str]]]:
    """Parse a report CSV back into (manifest, header, rows of cells)."""
    with open(path, encoding="utf-8", newline="") as handle:
        first = handle.readline()
        if not first.startswith("# manifest "):
            raise ValueError(f"{path} does not start with a manifest line")
        manifest = json.loads(first[len("# manifest ") :])
        reader = csv.reader(handle)
        header = next(reader)
        return manifest, header, [row for row in reader]


# subjects.csv is rendered from ``.tolist()`` slices of this many subjects:
# faster than indexing numpy cells one by one, with a bounded number of
# Python objects alive at once.
_ROW_BLOCK = 4096


def subjects_csv_header(mode: str) -> list[str]:
    lead = ["subject_id", "alpha"] if mode == "abstract" else [
        "subject_id",
        "initial_quality",
        "final_quality",
    ]
    return lead + [name for name, _ in SUBJECT_COLUMNS]


def subjects_csv_rows(report: SimulationReport) -> Iterable[Sequence[object]]:
    table = report.table
    n = len(table)
    for start in range(0, n, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        ids = range(start, min(start + _ROW_BLOCK, n))
        if report.mode == "abstract":
            lead = [ids, table.alpha[block].tolist()]
        else:
            trajectories = table.trajectories[block]
            lead = [ids, [t[0] for t in trajectories], [t[-1] for t in trajectories]]
        columns = [getattr(table, name)[block].tolist() for name, _ in SUBJECT_COLUMNS]
        yield from zip(*lead, *columns)


def write_subjects_csv(path: str | Path, report: SimulationReport) -> None:
    write_csv(path, subjects_csv_header(report.mode), subjects_csv_rows(report), report.manifest)


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
