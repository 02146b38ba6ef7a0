"""Workload definitions: generated configs, output checks and output counters.

Each workload is one ``scanloop`` subcommand on one INI config that is
generated from the workload seed.  Only ``cohort.seed`` depends on the seed;
every other parameter is fixed here, so runs with different seeds measure the
same amount of work on different random draws.  Cohorts have the shipped
configs' sizes (``kinematic_guidance`` four times the shipped kinematic one).

``BENCHMARK.json`` declares ``abstract_mix`` and ``kinematic_guidance``.
``kinematic_sweep`` is not declared: its medians were not steady enough
between two sets of runs.  It stays runnable by hand, with its output checks,
and the traced run still measures its process pool (``layers.pool_figures``).

The check functions read the files a CLI call wrote and return a list of
failure messages (empty when the outputs are correct).  The counter functions
read deterministic counts from the same files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

# The predictor, costs and policy of the shipped abstract configs.
PRECISION = 0.8
RECALL = 0.8
RESCAN_COST = 0.1
CORRECTION_COST = 1.0
ABSTRACT_MAX_RESCANS = 50

# Failure-rate population of ``abstract_mix``.  Its support ends at 0.6, below
# alpha_max = p / (p + r - p*r) = 0.833, so every subject's operating point is
# realizable and every run is a finished simulation.
ALPHA_MU = 0.2
ALPHA_SIGMA = 0.1
ALPHA_LO = 0.0
ALPHA_HI = 0.6

# The kinematic parameters of the shipped kinematic_guided.ini.
KINEMATIC_MAX_RESCANS = 10
KINEMATIC = {
    "translation_scale": 10.0,
    "rotation_scale": 0.5,
    "failure_cutoff": 0.5,
    "start_offset_t": 8.0,
    "start_offset_r": 0.3,
    "guidance_noise_t": 1.0,
    "guidance_noise_r": 0.05,
    "gain": 0.8,
    "motor_noise_t": 0.5,
    "motor_noise_r": 0.02,
}
SWEEP_STEPS = 11

# The z-score gate of the acceptance suite: simulated and closed-form cost
# ratios agree within 3 standard errors.
Z_GATE = 3.0
# Agreement demanded between the CLI's analytic ratio and the reference here.
ANALYTIC_RTOL = 1e-8


class Incomplete(Exception):
    """A run cannot produce every metric; it reports a failed result."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    mode: str
    subjects: int
    workers: int
    outputs: tuple[str, ...]


def pool_workers() -> int:
    """Worker count for pooled workloads: 2, but never more than the CPUs."""
    return max(1, min(2, os.cpu_count() or 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="abstract_mix",
            command="simulate",
            mode="abstract",
            subjects=100_000,
            workers=1,
            outputs=("report.json", "subjects.csv"),
        ),
        Workload(
            name="kinematic_sweep",
            command="sweep",
            mode="kinematic",
            subjects=5_000,
            workers=pool_workers(),
            outputs=("sweep.csv",),
        ),
        Workload(
            name="kinematic_guidance",
            command="guidance",
            mode="kinematic",
            subjects=20_000,
            workers=1,
            outputs=("trajectories.csv", "quality_curve.csv"),
        ),
    )
}


def config_text(workload: Workload, seed: int, out_dir: Path, workers: int | None = None) -> str:
    """INI document for one workload; only ``cohort.seed`` depends on ``seed``."""
    workers = workload.workers if workers is None else workers
    if not 1 <= workers <= (os.cpu_count() or 1):
        raise ValueError(f"workers must be in [1, cpu count], got {workers}")
    lines = [
        "[cohort]",
        f"mode = {workload.mode}",
        f"subjects = {workload.subjects}",
        f"seed = {seed % 2**64}",
        f"workers = {workers}",
        "",
    ]
    if workload.mode == "abstract":
        lines += [
            "[distribution]",
            "family = truncated_normal",
            f"mu = {ALPHA_MU!r}",
            f"sigma = {ALPHA_SIGMA!r}",
            f"lo = {ALPHA_LO!r}",
            f"hi = {ALPHA_HI!r}",
            "",
            "[predictor]",
            "kind = confusion",
            f"precision = {PRECISION!r}",
            f"recall = {RECALL!r}",
            "",
            "[policy]",
            f"max_rescans = {ABSTRACT_MAX_RESCANS}",
            "",
        ]
    else:
        lines += [
            "[predictor]",
            "kind = score",
            "noise_scale = 0.05",
            "",
            "[policy]",
            f"max_rescans = {KINEMATIC_MAX_RESCANS}",
            "threshold = 0.7",
            "",
            "[kinematics]",
            *(f"{key} = {value!r}" for key, value in KINEMATIC.items()),
            "",
            "[sweep]",
            "tau_start = 0.0",
            "tau_stop = 1.0",
            f"tau_steps = {SWEEP_STEPS}",
            "",
        ]
    lines += [
        "[costs]",
        f"rescan = {RESCAN_COST!r}",
        f"correction = {CORRECTION_COST!r}",
        "",
        "[output]",
        f"dir = {out_dir}",
        "",
    ]
    return "\n".join(lines)


def max_rescans(workload: Workload) -> int:
    return ABSTRACT_MAX_RESCANS if workload.mode == "abstract" else KINEMATIC_MAX_RESCANS


def reference_ratio() -> float:
    """Population cost ratio of ``abstract_mix`` by ``scipy.integrate.quad``.

    Written from the closed form alone, without the package: the ratio is
    E[alpha * (p - p*r + r*q) / (p - alpha*r)] / E[alpha] under the truncated
    normal, whose normalizing constant cancels.
    """
    from scipy.integrate import quad

    p, r, q = PRECISION, RECALL, RESCAN_COST / CORRECTION_COST

    def weight(a: float) -> float:
        return a * math.exp(-0.5 * ((a - ALPHA_MU) / ALPHA_SIGMA) ** 2)

    def numerator(a: float) -> float:
        return weight(a) * (p - p * r + r * q) / (p - a * r)

    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    num = quad(numerator, ALPHA_LO, ALPHA_HI, **opts)[0]
    den = quad(weight, ALPHA_LO, ALPHA_HI, **opts)[0]
    return num / den


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a report CSV, after its ``# manifest`` line."""
    with open(path, encoding="utf-8", newline="") as handle:
        first = handle.readline()
        if not first.startswith("# manifest "):
            raise ValueError(f"{path.name}: no manifest line")
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def digests(out_dir: Path, workload: Workload) -> dict[str, str]:
    """SHA-256 of every output file of one call."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in workload.outputs
    }


def output_bytes(out_dir: Path, workload: Workload) -> dict[str, int]:
    return {name: (out_dir / name).stat().st_size for name in workload.outputs}


def _column(header: list[str], rows: list[list[str]], name: str) -> list[str]:
    i = header.index(name)
    return [row[i] for row in rows]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_abstract(out_dir: Path, workload: Workload, reference: float) -> list[str]:
    failures = []
    header, rows = read_csv(out_dir / "subjects.csv")
    if len(rows) != workload.subjects:
        failures.append(f"subjects.csv has {len(rows)} rows, expected {workload.subjects}")
    elif _column(header, rows, "subject_id") != [str(i) for i in range(workload.subjects)]:
        failures.append("subjects.csv subject_id is not 0..N-1 in order")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    comparison = report.get("comparison") or {}
    z = comparison.get("z_cost_ratio")
    if z is None or not abs(z) <= Z_GATE:
        failures.append(f"|comparison.z_cost_ratio| = {z} exceeds {Z_GATE}")
    for where, value in (
        ("aggregates", report["aggregates"].get("analytic_cost_ratio")),
        ("comparison", comparison.get("analytic_cost_ratio")),
    ):
        if value is None or not _close(value, reference, ANALYTIC_RTOL):
            failures.append(
                f"{where}.analytic_cost_ratio = {value} differs from the quad reference"
                f" {reference!r} by more than {ANALYTIC_RTOL} relative"
            )
    return failures


def check_sweep(out_dir: Path, workload: Workload) -> list[str]:
    failures = []
    header, rows = read_csv(out_dir / "sweep.csv")
    if len(rows) != SWEEP_STEPS:
        return [f"sweep.csv has {len(rows)} rows, expected {SWEEP_STEPS}"]
    if len(set(_column(header, rows, "alpha_hat"))) != 1:
        failures.append("sweep.csv alpha_hat differs between rows")
    tau0 = [row for row in rows if float(row[header.index("threshold")]) == 0.0]
    if len(tau0) != 1 or float(tau0[0][header.index("empirical_cost_ratio")] or "nan") != 1.0:
        failures.append("sweep.csv tau = 0 row does not have empirical_cost_ratio exactly 1")
    for flag in ("best_simulated", "best_plugin"):
        marks = _column(header, rows, flag)
        if sorted(marks) != ["0"] * (SWEEP_STEPS - 1) + ["1"]:
            failures.append(f"sweep.csv does not mark exactly one {flag} row")
    return failures


def trajectories(out_dir: Path) -> list[list[float]]:
    """Per-subject quality trajectories read back from trajectories.csv."""
    header, rows = read_csv(out_dir / "trajectories.csv")
    if header != ["subject_id", "scan_index", "quality"]:
        raise ValueError(f"trajectories.csv header is {header}")
    out: list[list[float]] = []
    for subject, scan, quality in rows:
        subject, scan = int(subject), int(scan)
        if scan == 0 and subject == len(out):
            out.append([])
        elif not (subject == len(out) - 1 and scan == len(out[-1])):
            raise ValueError(f"trajectories.csv row ({subject}, {scan}) is out of order")
        out[-1].append(float(quality))
    return out


def check_guidance(out_dir: Path, workload: Workload) -> list[str]:
    failures = []
    try:
        paths = trajectories(out_dir)
    except ValueError as exc:
        return [str(exc)]
    if len(paths) != workload.subjects:
        failures.append(
            f"trajectories.csv covers {len(paths)} subjects, expected {workload.subjects}"
        )
    longest = max((len(t) for t in paths), default=0)
    if longest > max_rescans(workload) + 1:
        failures.append(f"a subject has {longest} scans, above the budget")
    if any(not 0.0 < q <= 1.0 for t in paths for q in t):
        failures.append("trajectories.csv has a quality outside (0, 1]")
    header, curve = read_csv(out_dir / "quality_curve.csv")
    if len(curve) != longest:
        return failures + [f"quality_curve.csv has {len(curve)} rows, expected {longest}"]
    mean_first = math.fsum(t[0] for t in paths) / len(paths)
    mean_last = math.fsum(t[-1] for t in paths) / len(paths)
    # Both sides went through 12-significant-digit CSV cells.
    if not _close(float(curve[0][1]), mean_first, 1e-9):
        failures.append("quality_curve.csv first row is not the mean initial quality")
    if not _close(float(curve[-1][1]), mean_last, 1e-9):
        failures.append("quality_curve.csv last row is not the mean final quality")
    return failures


def check(out_dir: Path, workload: Workload, reference: float) -> list[str]:
    """Failure messages for one call's outputs; empty when they are correct."""
    try:
        if workload.command == "simulate":
            return check_abstract(out_dir, workload, reference)
        if workload.command == "sweep":
            return check_sweep(out_dir, workload)
        return check_guidance(out_dir, workload)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_repeat(out_dir: Path, workload: Workload, reference: float | None, first):
    """Check one call of a run: the first in full, later ones against its bytes.

    ``first`` is None for the first call, then the (digests, failure messages)
    of the first call that wrote outputs.  A later call with the same bytes
    gets the same verdict.  Returns the new ``first`` and this call's failure
    messages.
    """
    try:
        digest = digests(out_dir, workload)
    except OSError as exc:
        return first, [f"missing output: {exc}"]
    if first is None:
        first = (digest, check(out_dir, workload, reference))
        return first, first[1]
    return first, first[1] if digest == first[0] else ["outputs differ from the first call's bytes"]


def counters(out_dir: Path, workload: Workload) -> dict[str, int]:
    """Deterministic counts read from one call's outputs.

    ``sweep.csv`` holds rates only, so for ``kinematic_sweep`` the scan
    counts come from the traced run instead.
    """
    counts = {f"bytes.{name}": size for name, size in output_bytes(out_dir, workload).items()}
    budget = max_rescans(workload) + 1
    if workload.command == "simulate":
        header, rows = read_csv(out_dir / "subjects.csv")
        scans = [int(s) for s in _column(header, rows, "scans")]
    elif workload.command == "guidance":
        scans = [len(t) for t in trajectories(out_dir)]
    else:
        return counts
    counts["scans"] = sum(scans)
    counts["rescans"] = sum(scans) - len(scans)
    counts["at_budget_subjects"] = sum(1 for s in scans if s == budget)
    return counts
