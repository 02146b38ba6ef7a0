"""scanloop benchmark: closed-loop CLI calls on generated configs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload abstract_mix --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures end-to-end metrics.  One client makes one
``scanloop`` CLI call at a time, as a subprocess, until ``--seconds`` have
passed (at least three calls).  Every call uses the same config, generated
from ``--seed``, and must write byte-identical outputs.  The first call's
outputs are checked in full.  Set-up time is measured separately, by
starting fresh interpreters that import the CLI and parse the config, two
before each call.

With ``--trace 1`` the run calls the CLI in process instead and reports
per-layer metrics (see ``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the details: sample counts and quartiles, output SHA-256 digests,
deterministic counters, and the machine record.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Pinned so that manifests carry a fixed timestamp and reruns are byte-identical.
SOURCE_DATE_EPOCH = "1700000000"
# A run must end within 180 s even when calls hang.  Calls stop starting at
# RUN_LIMIT_S; at HARD_LIMIT_S an alarm interrupts whatever still runs.
RUN_LIMIT_S = 150.0
HARD_LIMIT_S = 165.0
MIN_CALLS = 3
# Set-up samples taken before each call, so that they span the whole run.
SETUP_PER_CALL = 2

# Child program behind ``setup_s``: what every CLI call pays before it works.
SETUP_CODE = (
    "import sys\n"
    "import scanloop.cli\n"
    "from scanloop.config import parse_config\n"
    "with open(sys.argv[1], encoding='utf-8') as f:\n"
    "    parse_config(f.read())\n"
)


def _out_of_time(signum, frame):
    raise wl.Incomplete(f"run exceeded {HARD_LIMIT_S} s")


@dataclass(frozen=True)
class Call:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: str


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], stderr_path: Path, stop_at: float) -> Call:
    """Run one child to completion; time it from spawn to exit.

    CPU time and peak RSS come from ``os.wait4``, so they cover the child and
    every descendant it waited for (the CLI's pool workers).  The child runs
    in its own session, and a watchdog kills the whole group at ``stop_at``
    (a ``time.perf_counter`` reading).
    """
    with open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        watchdog = threading.Timer(max(stop_at - start, 0.0), _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        watchdog.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode("utf-8", "replace")
    return Call(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stderr=tail,
    )


def exit_problems(returncode: int, stderr: str) -> list[str]:
    return [] if returncode == 0 else [f"exit {returncode}: {stderr}"]


def quartiles(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def measure_end_to_end(
    workload: wl.Workload, seed: int, seconds: float, work: Path, tally: Tally, stop_at: float
):
    config = work / "config.ini"
    out = work / "out"
    config.write_text(wl.config_text(workload, seed, out), encoding="utf-8")
    reference = wl.reference_ratio() if workload.mode == "abstract" else None
    stderr_path = work / "stderr.txt"

    setup_argv = [sys.executable, "-c", SETUP_CODE, str(config)]
    setup = []

    def set_up() -> float:
        call = spawn(setup_argv, stderr_path, stop_at)
        tally.record("setup", exit_problems(call.returncode, call.stderr))
        return call.wall_s

    set_up()  # only warms the file cache and bytecode cache
    argv = [sys.executable, "-m", "scanloop", workload.command, "--config", str(config)]
    calls: list[Call] = []
    first = None
    deadline = time.perf_counter() + seconds
    while len(calls) < MIN_CALLS or time.perf_counter() < deadline:
        if time.perf_counter() >= stop_at:
            break
        setup += [set_up() for _ in range(SETUP_PER_CALL)]
        shutil.rmtree(out, ignore_errors=True)
        call = spawn(argv, stderr_path, stop_at)
        calls.append(call)
        problems = exit_problems(call.returncode, call.stderr)
        if not problems:
            first, problems = wl.check_repeat(out, workload, reference, first)
        tally.record(f"call {len(calls)}", problems)
    if not calls:
        raise wl.Incomplete("no CLI call started before the time limit")
    # Every call wrote the same bytes, so the last call's files stand for all.
    counts = wl.counters(out, workload) if tally.failed == 0 else {}

    workers_check = None
    if workload.workers > 1:
        # The same cohort at workers = 1 must give the same bytes.
        single = work / "single"
        single_config = work / "config-w1.ini"
        single_config.write_text(
            wl.config_text(workload, seed, single, workers=1), encoding="utf-8"
        )
        call = spawn(argv[:-1] + [str(single_config)], stderr_path, stop_at)
        problems = exit_problems(call.returncode, call.stderr)
        if not problems:
            workers_check = first is not None and wl.digests(single, workload) == first[0]
            if not workers_check:
                problems = [f"workers = 1 outputs differ from workers = {workload.workers}"]
        tally.record("workers = 1 call", problems)

    metrics = {
        "wall_s": statistics.median(c.wall_s for c in calls),
        "cpu_s": statistics.median(c.cpu_s for c in calls),
        "peak_rss_mb": statistics.median(c.rss_mb for c in calls),
        "setup_s": statistics.median(setup),
    }
    details = {
        "wall_s": quartiles([c.wall_s for c in calls]),
        "cpu_s": quartiles([c.cpu_s for c in calls]),
        "peak_rss_mb": quartiles([c.rss_mb for c in calls]),
        "setup_s": quartiles(setup),
        "sha256": first and first[0],
        "workers_1_equal": workers_check,
        "counters": counts,
    }
    return metrics, details


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scanloop" / "cli.py").is_file():
        print(f"perfbench: no scanloop sources under {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    load_before = loadavg()
    stop_at = time.perf_counter() + RUN_LIMIT_S
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    metrics: dict[str, float] = {}
    details: dict = {}
    try:
        if args.trace:
            import layers

            measure = layers.measure_layers
        else:
            measure = measure_end_to_end
        metrics, details = measure(workload, args.seed, args.seconds, work, tally, stop_at)
    except wl.Incomplete as exc:
        tally.record("run", [str(exc)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    units = declared_units(bool(args.trace))
    complete = bool(metrics)
    if complete and sorted(metrics) != sorted(units):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    details.update(
        workload=workload.name,
        seed=args.seed,
        config={
            "command": workload.command,
            "subjects": workload.subjects,
            "workers": workload.workers,
        },
        machine=machine_record(),
        loadavg_before=load_before,
        loadavg_after=loadavg(),
        failures=tally.messages,
    )
    print(json.dumps({"details": details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
