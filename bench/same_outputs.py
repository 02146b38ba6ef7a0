"""Check that this checkout writes the same output bytes as another one.

Usage (from the repository root, with the parent commit checked out in a
second directory)::

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 bench/same_outputs.py --before ../parent --seeds 1 42

Every run is ``python -m scanloop <command> ... --out DIR`` with the
checkout's ``src`` as ``PYTHONPATH``, run from the checkout's root with
``SOURCE_DATE_EPOCH`` pinned, so the manifest timestamps agree.  The runs are:

* every ``scanloop`` line of this checkout's README, as written;
* ``simulate`` on every shipped config, plus ``guidance`` on the kinematic
  ones and ``sweep`` on those with a ``[sweep]`` section, and ``simulate`` on
  generated abstract configs (a histogram, the truncated normal of
  perfbench's ``abstract_mix``, one whose support lies far above its mean,
  and a uniform population partly above alpha_max, where the predictor
  saturates), and all three on perfbench's ``kinematic_sweep`` config, built
  by ``perfbench/workloads.py:config_text``; each at every ``--seeds`` value
  and at ``workers`` 1 and 4 (a copy of the config with its ``workers``
  replaced).

Each run is made in both checkouts.  Every run must exit 0 on both sides, and
the two must agree on standard output (with the output directory masked) and
on the bytes of every file written.

The CSVs carry 12 significant digits, so a change in the last bits of a
simulated value can leave every file the same.  So each checkout also builds
``run_cohort(parse_config(...))`` in process for every config above at every
``--seeds`` value (at ``workers`` 1) and prints the sha256 of the raw bytes of
each ``SubjectTable`` column: ``alpha``, the per-scan ``failed``, ``flagged``,
``quality`` and ``score``, and each name in ``SUBJECT_COLUMNS``.  The two
sides must agree on every digest.

The script names each run that failed, each file that differs and each column
that differs and exits 1, or exits 0 when every run succeeded and every byte
agrees.
"""

from __future__ import annotations

import argparse
import configparser
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = (1, 4)
SOURCE_DATE_EPOCH = "1700000000"

# Abstract configs generated for the runs, by distribution section body.
ABSTRACT_CONFIG = """\
[cohort]
mode = abstract
subjects = 20000
seed = 42
workers = 1

[distribution]
{distribution}

[predictor]
kind = confusion
precision = 0.8
recall = 0.8

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = 50
"""
GENERATED_CONFIGS = {
    "histogram.ini": "family = histogram\ncsv = histogram.csv",
    # perfbench's abstract_mix population
    "truncated_normal.ini": (
        "family = truncated_normal\nmu = 0.2\nsigma = 0.1\nlo = 0.0\nhi = 0.6"
    ),
    # support 12.5 sigma above mu: draws from the mirrored far tail
    "truncated_normal_far.ini": (
        "family = truncated_normal\nmu = 0.05\nsigma = 0.02\nlo = 0.3\nhi = 0.7"
    ),
    # a quarter of the subjects above alpha_max = 0.833, with long scan loops
    "uniform.ini": "family = uniform\nlo = 0.5\nhi = 0.95",
}
HISTOGRAM_CSV = "bin_upper_edge,mass\n0.1,5\n0.2,12\n0.3,8\n0.4,3\n0.5,2\n"

# Run in a checkout with (config path, seed) pairs as arguments: one line per
# SubjectTable column of each run, "<config> seed=<seed>", the column's name,
# and its dtype and the sha256 of its raw bytes, separated by tabs.
COLUMN_DIGESTS = """\
import hashlib
import sys
from pathlib import Path

from scanloop.acquisition_loop import SUBJECT_COLUMNS, run_cohort
from scanloop.config import parse_config

for path, seed in zip(sys.argv[1::2], sys.argv[2::2]):
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")
    table = run_cohort(parse_config(text, base_dir=path.parent, seed_override=int(seed))).table
    for name in ("alpha", "failed", "flagged", "quality", "score", *SUBJECT_COLUMNS):
        column = getattr(table, name)
        digest = hashlib.sha256(column.tobytes()).hexdigest()
        print(f"{path.name} seed={seed}\\t{name}\\t{column.dtype.str} {digest}")
"""


def perfbench_sweep_config() -> str:
    """perfbench's ``kinematic_sweep`` config at one worker (``config_text``
    refuses more workers than CPUs; ``config_cases`` sets the count)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads.config_text(workloads.WORKLOADS["kinematic_sweep"], 0, Path("runs"), 1)


def readme_commands(readme: Path) -> list[list[str]]:
    """The arguments after ``scanloop`` of each ``scanloop`` line in an ``sh`` block."""
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), flags=re.S)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("scanloop ")
    ]


def with_workers(text: str, workers: int) -> str:
    """The config text with its ``[cohort]`` ``workers`` set to ``workers``."""
    text, count = re.subn(r"(?m)^workers\s*=.*$", f"workers = {workers}", text)
    if count != 1:
        raise ValueError("each config must set cohort.workers on exactly one line")
    return text


def config_cases(configs: list[Path], seeds: list[int], work: Path) -> list[tuple[str, list[str]]]:
    """(label, arguments) of every config run, on config copies under ``work``."""
    cases = []
    for config in configs:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config, encoding="utf-8-sig")
        commands = ["simulate"]
        if parser.get("cohort", "mode") == "kinematic":
            commands.append("guidance")
            if parser.has_section("sweep"):
                commands.append("sweep")
        for workers in WORKERS:
            copy = work / f"{config.stem}_w{workers}.ini"
            copy.write_text(with_workers(config.read_text(encoding="utf-8-sig"), workers))
            for command in commands:
                for seed in seeds:
                    label = f"{command} {config.name} workers={workers} seed={seed}"
                    cases.append((label, [command, "--config", str(copy), "--seed", str(seed)]))
    return cases


def run(checkout: Path, args: list[str], out: Path) -> tuple[int, str, str]:
    """Exit code, standard output with ``out`` masked, and standard error."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)
    proc = subprocess.run(
        [sys.executable, "-m", "scanloop", *args, "--out", str(out)],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout.replace(str(out), "<out>"), proc.stderr


def column_digests(checkout: Path, runs: list[tuple[Path, int]]) -> tuple[dict, str]:
    """(run label, column name) -> dtype and digest, and standard error; the
    map is empty when the child fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [str(value) for run in runs for value in run]
    proc = subprocess.run(
        [sys.executable, "-c", COLUMN_DIGESTS, *argv],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        return {}, proc.stderr
    lines = (line.split("\t") for line in proc.stdout.splitlines())
    return {(label, name): value for label, name, value in lines}, proc.stderr


def compare_columns(before: dict, after: dict) -> list[str]:
    """One message per column that differs or is held by one side only."""
    diffs = []
    for label, name in sorted(before.keys() | after.keys()):
        key = (label, name)
        if key not in after:
            diffs.append(f"{label}: column {name} built only before")
        elif key not in before:
            diffs.append(f"{label}: column {name} built only after")
        elif before[key] != after[key]:
            diffs.append(f"{label}: column {name} differs")
    return diffs


def files(directory: Path) -> dict[str, bytes]:
    if not directory.is_dir():
        return {}
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def compare(label: str, before: tuple, after: tuple) -> list[str]:
    """One message per failed side or difference between the two sides of a run."""
    (code_b, out_b, err_b, files_b), (code_a, out_a, err_a, files_a) = before, after
    if code_b or code_a:
        return [f"{label}: exit {code_b} before, {code_a} after\n{err_b}{err_a}".rstrip()]
    diffs = [] if out_b == out_a else [f"{label}: standard output differs"]
    for name in sorted(files_b.keys() | files_a.keys()):
        if name not in files_a:
            diffs.append(f"{label}: {name} written only before")
        elif name not in files_b:
            diffs.append(f"{label}: {name} written only after")
        elif files_b[name] != files_a[name]:
            diffs.append(f"{label}: {name} differs")
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 42])
    args = parser.parse_args(argv)

    sides = {"before": args.before.resolve(), "after": ROOT}
    if not (sides["before"] / "src" / "scanloop").is_dir():
        parser.error(f"--before: no src/scanloop in {sides['before']}")

    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = Path(tmp)
        (work / "histogram.csv").write_text(HISTOGRAM_CSV)
        configs = sorted((ROOT / "configs").glob("*.ini"))
        for name, distribution in GENERATED_CONFIGS.items():
            (work / name).write_text(ABSTRACT_CONFIG.format(distribution=distribution))
            configs.append(work / name)
        (work / "kinematic_sweep.ini").write_text(perfbench_sweep_config())
        configs.append(work / "kinematic_sweep.ini")
        cases = [
            (f"README: scanloop {shlex.join(command)}", command)
            for command in readme_commands(ROOT / "README.md")
        ] + config_cases(configs, args.seeds, work)

        diffs, failed = [], 0
        for k, (label, command) in enumerate(cases):
            results = {}
            for side, checkout in sides.items():
                out = work / side / str(k)
                results[side] = (*run(checkout, command, out), files(out))
            case_diffs = compare(label, results["before"], results["after"])
            code, written = results["after"][0], len(results["after"][3])
            if any(results[side][0] for side in sides):
                failed += 1
                verdict = "FAILED"
            else:
                verdict = "DIFFERS" if case_diffs else "same"
            print(f"{label}: {verdict} (exit {code}, {written} files)", file=sys.stderr)
            diffs += case_diffs

        # config_cases wrote each config's workers = 1 copy under work.
        runs = [(work / f"{config.stem}_w1.ini", seed) for config in configs for seed in args.seeds]
        digests = {}
        for side, checkout in sides.items():
            digests[side], err = column_digests(checkout, runs)
            if not digests[side]:
                failed += 1
                diffs.append(f"column digests: the {side} side failed\n{err}".rstrip())
        if all(digests.values()):
            column_diffs = compare_columns(digests["before"], digests["after"])
            verdict = "DIFFERS" if column_diffs else "same"
            print(f"column digests of {len(runs)} runs: {verdict}", file=sys.stderr)
            diffs += column_diffs

    for message in diffs:
        print(message)
    print(
        f"{len(cases)} runs and {len(runs)} column-digest runs per side,"
        f" {failed} with a non-zero exit, {len(diffs)} problems"
    )
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
