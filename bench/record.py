"""Record a before/after benchmark comparison as a ``BENCH_<n>.json`` file.

Usage (from the repository root, with the parent commit checked out in a
second directory)::

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 bench/record.py --before ../parent \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 45 --out BENCH_4.json

For every workload and seed the script runs ``perfbench/run.py --trace 0`` in
the ``--before`` checkout and in this checkout, one run at a time and back to
back, so that both sides of a pair see the same state of the machine; which
side runs first alternates from seed to seed.  A run that exits non-zero or
does not print ``"correct": true`` stops the script with its output.  It
keeps each run's result line and, from its details line, the machine record
and the load averages.  The summary gives, per workload and end-to-end
metric, both sides' medians, the before side's quartile spread, the number
of pairs in which the after side was better, and two verdicts:

* ``claim_met``: the after side was better in at least 9 of every 10 pairs
  (ties count for neither side), and its median is better than the before
  median by more than the before side's quartile spread;
* ``regressed``: the after median is worse than the before median by more
  than the metric's ``bound`` in ``BENCHMARK.json``, taken relative to the
  before median.

Each side's revision is recorded before the first run as its
``git describe --always --dirty`` and the sha256 of its ``git diff HEAD``,
so two uncommitted trees on one commit are told apart (stage new files with
``git add`` first: the diff leaves out untracked ones).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("abstract_mix", "kinematic_guidance")


def revision(checkout: Path) -> dict[str, str]:
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, check=True).stdout

    return {
        "describe": git("describe", "--always", "--dirty", "--abbrev=12").decode().strip(),
        "diff_sha256": hashlib.sha256(git("diff", "HEAD")).hexdigest(),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else {}
    if not result.get("correct"):
        raise RuntimeError(
            f"{workload} seed {seed} in {checkout} failed (exit {proc.returncode}):\n"
            f"{proc.stdout}{proc.stderr}"
        )
    details = json.loads(lines[-2])["details"]
    return {
        "workload": workload,
        "seed": seed,
        "result": result,
        "machine": details["machine"],
        "loadavg_before": details["loadavg_before"],
        "loadavg_after": details["loadavg_after"],
    }


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    summary = {}
    for workload in {r["workload"] for r in runs["before"]}:
        pairs = [
            (b["result"]["metrics"], a["result"]["metrics"])
            for b, a in zip(runs["before"], runs["after"])
            if b["workload"] == workload
        ]
        per_metric = {}
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            before = [b[name]["value"] for b, _ in pairs]
            after = [a[name]["value"] for _, a in pairs]
            q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else before * 3
            before_median, after_median = statistics.median(before), statistics.median(after)
            better = sum(sign * (x - y) > 0 for x, y in zip(before, after))
            gain = sign * (before_median - after_median)
            per_metric[name] = {
                "before_median": before_median,
                "after_median": after_median,
                "before_quartile_spread": q3 - q1,
                "pairs_after_better": better,
                "pairs": len(pairs),
                "claim_met": 10 * better >= 9 * len(pairs) and gain > q3 - q1,
                "regressed": -gain > metric["bound"] * abs(before_median),
            }
        summary[workload] = per_metric
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"before": args.before.resolve(), "after": ROOT}
    revisions = {side: revision(checkout) for side, checkout in sides.items()}
    runs: dict[str, list[dict]] = {"before": [], "after": []}
    for workload in WORKLOADS:
        for k, seed in enumerate(args.seeds):
            for side in ("before", "after") if k % 2 == 0 else ("after", "before"):
                runs[side].append(run_once(sides[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: done", file=sys.stderr)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "revisions": revisions,
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
