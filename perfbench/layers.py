"""Traced run: per-layer metrics, timed from outside the package.

The run imports scanloop into this process and binds timing wrappers over
the public names the CLI reaches (``acquisition_loop.subject_stream``,
``probe_kinematics.image_quality`` and so on).  Each wrapped call records a
span: name, start, end and parent span.  Spans stay in memory and are
reduced to per-layer totals when the run ends.  A layer's self time is its
spans' duration minus the time of its child spans.

The run makes these calls, in this order:

1. fresh interpreters that import ``scanloop.cli`` (``cli.import_s``);
2. ``parse_config`` and ``expected_cost_ratio`` per family, timed directly;
3. ``run_cohort`` on one sweep threshold at workers 1 and 2, for the pool
   figures;
4. untraced ``cli.main`` calls on the workload's config, as the reference
   for the tracing overhead;
5. one traced ``cli.main`` call on the workload's config;
6. traced companion calls (a small abstract ``simulate``, a small
   ``guidance``, ``table1``) so that every layer has a per-call time.

Everything runs at workers = 1 except step 3, because spans recorded in
forked workers would be lost.  Per-call times come from the workload's own
traced call when it reaches the layer, and from the companion calls when it
does not.  Counts and bytes come from the workload's own call only, so they
read 0 where the workload does not reach the layer.  A boundary the package no
longer has, under its name and kind, fails the run: its metric would read 0
and look like a gain.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import run
import workloads as wl

IMPORT_SAMPLES = 5
PARSE_SAMPLES = 20
QUADRATURE_SAMPLES = 5
POOL_PAIRS = 3
# Small traced calls that reach the layers a workload skips: (workload, subjects).
COMPANIONS = (("abstract_mix", 2_000), ("kinematic_guidance", 300))

# Child program behind ``cli.import_s``; it writes its import time to argv[1].
IMPORT_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import scanloop.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "with open(sys.argv[1], 'w', encoding='utf-8') as f:\n"
    "    f.write(repr(elapsed))\n"
)

# Which end-to-end metric each per-layer metric should move, on which workload.
MOVES = {
    "cli.import_s": "setup_s, all workloads",
    "config.parse_config_ms": "setup_s, all workloads",
    "streams.subject_stream_us": "wall_s and cpu_s on abstract_mix; small on kinematic_*",
    "streams.subject_stream_calls": "wall_s and cpu_s on abstract_mix",
    "alpha_distributions.sample_alpha_us": "wall_s on abstract_mix; not reached on kinematic_*",
    "alpha_distributions.expected_cost_ratio_ms.point_mass": "wall_s on abstract_mix (under 0.1 %)",
    "alpha_distributions.expected_cost_ratio_ms.uniform": "wall_s on abstract_mix (under 0.1 %)",
    "alpha_distributions.expected_cost_ratio_ms.beta": "wall_s on abstract_mix (under 0.1 %)",
    "alpha_distributions.expected_cost_ratio_ms.truncated_normal": "wall_s on abstract_mix",
    "alpha_distributions.expected_cost_ratio_ms.histogram": "wall_s on abstract_mix (under 0.1 %)",
    "alpha_distributions.expected_cost_ratio_calls": "abstract_mix (redundant quadrature)",
    "alpha_distributions.mean_alpha_calls": "abstract_mix (redundant quadrature)",
    "predictor_model.calibrated_us": "wall_s on abstract_mix",
    "predictor_model.classify_us": "wall_s on abstract_mix",
    "predictor_model.score_us": "wall_s on kinematic_*",
    "probe_kinematics.perturb_pose_us": "wall_s and cpu_s on kinematic_*",
    "probe_kinematics.image_quality_us": "wall_s and cpu_s on kinematic_*",
    "probe_kinematics.guidance_offset_us": "wall_s and cpu_s on kinematic_*",
    "probe_kinematics.apply_move_us": "wall_s and cpu_s on kinematic_*",
    "acquisition_loop.run_subject_abstract_self_us": "wall_s on abstract_mix",
    "acquisition_loop.run_subject_kinematic_self_us": "wall_s on kinematic_*",
    "acquisition_loop.scans_per_subject": "invariant: a perf change leaves it equal",
    "acquisition_loop.scans": "invariant: a perf change leaves it equal",
    "acquisition_loop.rescans": "invariant: a perf change leaves it equal",
    "acquisition_loop.at_budget_subjects": "invariant: a perf change leaves it equal",
    "acquisition_loop.from_records_us_per_row": "wall_s and peak_rss_mb on abstract_mix",
    "acquisition_loop.pool_speedup": "wall_s on kinematic_sweep (run by hand, not timed)",
    "acquisition_loop.pool_overhead_cpu_s": "cpu_s on kinematic_sweep (run by hand, not timed)",
    "acquisition_loop.concatenate_ms": "wall_s on kinematic_sweep (run by hand, not timed)",
    "acquisition_loop.aggregate_ms": "wall_s on abstract_mix",
    "acquisition_loop.empirical_vs_analytic_ms": "wall_s on abstract_mix",
    "reports.subjects_csv_us_per_row": "wall_s and peak_rss_mb on abstract_mix; not on kinematic_*",
    "reports.subjects_csv_bytes": "invariant: a perf change leaves it equal",
    "reports.trajectories_csv_us_per_row": "wall_s on kinematic_guidance",
    "reports.trajectories_csv_bytes": "invariant: a perf change leaves it equal",
    "reports.write_json_ms": "small on every workload",
    "reports.output_bytes": "invariant: a perf change leaves it equal",
    "cost_model.cost_reduction_table_us": "informational: the table1 path, which no workload runs",
    "trace.overhead_s": "none: the cost of tracing itself",
    "trace.spans": "invariant unless a traced boundary is called more or less often",
}


class Tracer:
    """Span recorder bound over module attributes; undone by ``unbind``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.scans: list[int] = []
        self.from_records_rows = 0
        self.labels: dict[int, str] = {}

    def wrap(self, name: str, fn, observe=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = start
                stack.pop()
            if observe is not None:
                observe(i, args, result)
            return result

        return traced

    def bind_function(self, name: str, fn, observe=None) -> None:
        """Wrap ``fn`` under every scanloop module attribute that refers to it."""
        traced = self.wrap(name, fn, observe)
        for module_name, module in list(sys.modules.items()):
            if module_name != "scanloop" and not module_name.startswith("scanloop."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._undo.append((module, attr, fn))

    def bind_classmethod(self, name: str, cls, attr: str, observe=None) -> bool:
        """Wrap the classmethod ``cls.attr``; False when it is not one."""
        original = vars(cls).get(attr)
        if not isinstance(original, classmethod):
            return False
        setattr(cls, attr, classmethod(self.wrap(name, original.__func__, observe)))
        self._undo.append((cls, attr, original))
        return True

    def unbind(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def observe_record(self, i, args, record) -> None:
        self.scans.append(record.scans)

    def observe_rows(self, i, args, table) -> None:
        self.from_records_rows += len(args[1])

    def observe_path(self, i, args, result) -> None:
        self.labels[i] = Path(args[0]).name

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(
            self.span_start, dtype=np.int64
        )
        child = np.zeros(len(names), dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=duration - child, minlength=k)
        return {n: (int(calls[j]), int(total[j]), int(own[j])) for j, n in enumerate(self.names)}

    def labelled_ns(self, label: str) -> int:
        """Total duration of the spans labelled ``label``."""
        return sum(
            self.span_end[i] - self.span_start[i] for i, v in self.labels.items() if v == label
        )


def bind_all(tracer: Tracer, scanloop) -> list[str]:
    """Bind the tracer over every layer boundary the CLI reaches.

    Returns a failure message per boundary that is missing or is no longer a
    function or classmethod; the other boundaries are bound.
    """
    missing = []
    for module, attr, observe in (
        ("config", "parse_config", None),
        ("streams", "subject_stream", None),
        ("alpha_distributions", "sample_alpha", None),
        ("alpha_distributions", "expected_cost_ratio", None),
        ("alpha_distributions", "mean_alpha", None),
        ("predictor_model", "classify", None),
        ("predictor_model", "score", None),
        ("probe_kinematics", "perturb_pose", None),
        ("probe_kinematics", "image_quality", None),
        ("probe_kinematics", "guidance_offset", None),
        ("probe_kinematics", "apply_move", None),
        ("acquisition_loop", "run_subject_abstract", tracer.observe_record),
        ("acquisition_loop", "run_subject_kinematic", tracer.observe_record),
        ("acquisition_loop", "run_cohort", None),
        ("acquisition_loop", "_aggregate", None),
        ("acquisition_loop", "empirical_vs_analytic", None),
        ("reports", "write_csv", tracer.observe_path),
        ("reports", "write_json", None),
        ("cost_model", "cost_reduction_table", None),
    ):
        fn = getattr(getattr(scanloop, module, None), attr, None)
        if callable(fn):
            tracer.bind_function(f"{module}.{attr.lstrip('_')}", fn, observe)
        else:
            missing.append(f"no function scanloop.{module}.{attr} to trace")
    for module, cls, attr, observe in (
        ("predictor_model", "ConfusionPredictor", "calibrated", None),
        ("acquisition_loop", "SubjectTable", "from_records", tracer.observe_rows),
        ("acquisition_loop", "SubjectTable", "concatenate", None),
    ):
        owner = getattr(getattr(scanloop, module, None), cls, None)
        if owner is None or not tracer.bind_classmethod(f"{module}.{attr}", owner, attr, observe):
            missing.append(f"no classmethod scanloop.{module}.{cls}.{attr} to trace")
    return missing


def import_package():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import scanloop.cli  # noqa: F401 -- loads every module the CLI reaches

    return sys.modules["scanloop"]


def cli_call(main, argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in process, with its console output swallowed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue()[-2000:]


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def median_ms(fn, samples: int) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def quadrature_ms(scanloop) -> dict[str, float]:
    """``expected_cost_ratio`` per family, at p = r = 0.8 and c_s/c_c = 0.1."""
    ad = scanloop.alpha_distributions
    profile = scanloop.cost_model.PredictorProfile(wl.PRECISION, wl.RECALL)
    quotient = wl.RESCAN_COST / wl.CORRECTION_COST
    families = {
        "point_mass": ad.PointMass(0.2),
        "uniform": ad.Uniform(0.05, 0.4),
        "beta": ad.Beta(2.0, 8.0),
        "truncated_normal": ad.TruncatedNormal(
            wl.ALPHA_MU, wl.ALPHA_SIGMA, wl.ALPHA_LO, wl.ALPHA_HI
        ),
        "histogram": ad.EmpiricalHistogram.from_weights(
            (0.1, 0.2, 0.3, 0.4, 0.5), (1.0, 3.0, 4.0, 2.0, 1.0)
        ),
    }
    return {
        f"alpha_distributions.expected_cost_ratio_ms.{name}": median_ms(
            lambda d=dist: ad.expected_cost_ratio(d, profile, quotient), QUADRATURE_SAMPLES
        )
        for name, dist in families.items()
    }


def pool_figures(scanloop, seed: int, work: Path, tally, stop_at: float) -> dict[str, float]:
    """``run_cohort`` on one sweep threshold at workers 1 and 2, alternating.

    Both worker counts must give the same aggregates.
    """
    sweep = wl.WORKLOADS["kinematic_sweep"]
    text = wl.config_text(sweep, seed, work / "pool", workers=1)
    single = scanloop.config.parse_config(text)
    pooled = dataclasses.replace(single, workers=wl.pool_workers())
    tracer = Tracer()
    if not tracer.bind_classmethod(
        "acquisition_loop.concatenate", scanloop.acquisition_loop.SubjectTable, "concatenate"
    ):
        tally.record("pool", ["no classmethod SubjectTable.concatenate to trace"])
    samples: dict[int, list[tuple[float, float]]] = {1: [], pooled.workers: []}
    aggregates: dict[int, str] = {}
    try:
        for _ in range(POOL_PAIRS):
            for config in (single, pooled):
                check_time(stop_at)
                cpu, start = cpu_now(), time.perf_counter()
                report = scanloop.acquisition_loop.run_cohort(config)
                samples[config.workers].append((time.perf_counter() - start, cpu_now() - cpu))
                aggregates[config.workers] = repr(report.aggregates)
    finally:
        tracer.unbind()
    tally.record(
        "pool",
        []
        if aggregates[1] == aggregates[pooled.workers]
        else [f"run_cohort aggregates differ between workers 1 and {pooled.workers}"],
    )
    wall = {w: statistics.median(s[0] for s in v) for w, v in samples.items()}
    cpu = {w: statistics.median(s[1] for s in v) for w, v in samples.items()}
    calls, total, _ = tracer.totals().get("acquisition_loop.concatenate", (0, 0, 0))
    return {
        "acquisition_loop.pool_speedup": wall[1] / wall[pooled.workers],
        "acquisition_loop.pool_overhead_cpu_s": cpu[pooled.workers] - cpu[1],
        "acquisition_loop.concatenate_ms": total / max(calls, 1) / 1e6,
    }


def check_time(stop_at: float) -> None:
    if time.perf_counter() >= stop_at:
        raise wl.Incomplete(f"run passed its {run.RUN_LIMIT_S} s limit")


def csv_rows(path: Path) -> int:
    """Data rows of a report CSV (its manifest and header lines excluded)."""
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 2


def measure_layers(
    workload: wl.Workload, seed: int, seconds: float, work: Path, tally, stop_at: float
):
    os.environ["SOURCE_DATE_EPOCH"] = run.SOURCE_DATE_EPOCH
    metrics: dict[str, float] = {}
    stderr_path = work / "stderr.txt"

    # The first sample only warms the file cache and bytecode cache.
    imports = []
    result_path = work / "import.txt"
    for i in range(IMPORT_SAMPLES + 1):
        argv = [sys.executable, "-c", IMPORT_CODE, str(result_path)]
        call = run.spawn(argv, stderr_path, stop_at)
        tally.record("import", run.exit_problems(call.returncode, call.stderr))
        if i and call.returncode == 0:
            imports.append(float(result_path.read_text(encoding="utf-8")))
    if not imports:
        raise wl.Incomplete("no interpreter imported scanloop.cli")
    metrics["cli.import_s"] = statistics.median(imports)

    scanloop = import_package()
    out = work / "out"
    config_path = work / "config.ini"
    text = wl.config_text(workload, seed, out, workers=1)
    config_path.write_text(text, encoding="utf-8")
    metrics["config.parse_config_ms"] = median_ms(
        lambda: scanloop.config.parse_config(text), PARSE_SAMPLES
    )
    metrics.update(quadrature_ms(scanloop))
    metrics.update(pool_figures(scanloop, seed, work, tally, stop_at))

    # Untraced reference calls, then the traced call, all on the same config.
    reference = wl.reference_ratio() if workload.mode == "abstract" else None
    argv = [workload.command, "--config", str(config_path)]
    untraced: list[float] = []
    first = None
    deadline = time.perf_counter() + seconds / 2
    while not untraced or time.perf_counter() < deadline:
        check_time(stop_at)
        start = time.perf_counter()
        code, err = cli_call(scanloop.cli.main, argv)
        untraced.append(time.perf_counter() - start)
        problems = run.exit_problems(code, err)
        if not problems:
            first, problems = wl.check_repeat(out, workload, reference, first)
        tally.record(f"untraced call {len(untraced)}", problems)

    check_time(stop_at)
    main = Tracer()
    tally.record("bind", bind_all(main, scanloop))
    root = main.wrap("cli.main", scanloop.cli.main)
    try:
        start = time.perf_counter()
        code, err = cli_call(root, argv)
        traced_wall = time.perf_counter() - start
    finally:
        main.unbind()
    budget = wl.max_rescans(workload) + 1
    trace_counts = {
        "scans": sum(main.scans),
        "rescans": sum(main.scans) - len(main.scans),
        "at_budget_subjects": sum(1 for s in main.scans if s == budget),
    }
    problems = run.exit_problems(code, err)
    output_counts: dict[str, int] = {}
    if not problems:
        if first is None or wl.digests(out, workload) != first[0]:
            problems = ["traced outputs differ from the untraced outputs"]
        elif first[1]:
            problems = first[1]
        else:
            output_counts = wl.counters(out, workload)
            problems = [
                f"{key}: trace counts {value}, outputs hold {output_counts[key]}"
                for key, value in trace_counts.items()
                if key in output_counts and output_counts[key] != value
            ]
    tally.record("traced call", problems)

    # Companions: small traced calls that reach the layers the workload skips.
    companion = Tracer()
    companion_rows: dict[str, int] = {}
    bind_all(companion, scanloop)
    try:
        for name, subjects in COMPANIONS:
            check_time(stop_at)
            small = dataclasses.replace(wl.WORKLOADS[name], subjects=subjects)
            small_out = work / f"companion-{name}"
            path = work / f"companion-{name}.ini"
            path.write_text(wl.config_text(small, seed, small_out, workers=1), encoding="utf-8")
            code, err = cli_call(scanloop.cli.main, [small.command, "--config", str(path)])
            tally.record(f"companion {name}", run.exit_problems(code, err))
            if code == 0:
                for file in small.outputs:
                    if file.endswith(".csv"):
                        companion_rows[file] = csv_rows(small_out / file)
        check_time(stop_at)
        code, err = cli_call(scanloop.cli.main, ["table1", "--out", str(work / "companion-table1")])
        tally.record("companion table1", run.exit_problems(code, err))
    finally:
        companion.unbind()

    own, other = main.totals(), companion.totals()

    def per_call(layer: str, scale: float) -> float:
        source = own if own.get(layer, (0, 0, 0))[0] else other
        calls, _, self_ns = source.get(layer, (0, 0, 0))
        return self_ns / max(calls, 1) / scale

    def count(layer: str) -> int:
        return own.get(layer, (0, 0, 0))[0]

    for layer in (
        "streams.subject_stream",
        "alpha_distributions.sample_alpha",
        "predictor_model.calibrated",
        "predictor_model.classify",
        "predictor_model.score",
        "probe_kinematics.perturb_pose",
        "probe_kinematics.image_quality",
        "probe_kinematics.guidance_offset",
        "probe_kinematics.apply_move",
        "cost_model.cost_reduction_table",
    ):
        metrics[f"{layer}_us"] = per_call(layer, 1e3)
    for layer in (
        "acquisition_loop.run_subject_abstract",
        "acquisition_loop.run_subject_kinematic",
    ):
        metrics[f"{layer}_self_us"] = per_call(layer, 1e3)
    for layer in (
        "acquisition_loop.aggregate",
        "acquisition_loop.empirical_vs_analytic",
        "reports.write_json",
    ):
        metrics[f"{layer}_ms"] = per_call(layer, 1e6)

    from_records = own.get("acquisition_loop.from_records", (0, 0, 0))[2]
    metrics["acquisition_loop.from_records_us_per_row"] = (
        from_records / max(main.from_records_rows, 1) / 1e3
    )
    for file, stem in (("subjects.csv", "subjects_csv"), ("trajectories.csv", "trajectories_csv")):
        if file in workload.outputs:
            ns, rows = main.labelled_ns(file), csv_rows(out / file)
            size = (out / file).stat().st_size
        else:
            ns, rows, size = companion.labelled_ns(file), companion_rows.get(file, 0), 0
        metrics[f"reports.{stem}_us_per_row"] = ns / max(rows, 1) / 1e3
        metrics[f"reports.{stem}_bytes"] = size

    for layer in (
        "streams.subject_stream",
        "alpha_distributions.expected_cost_ratio",
        "alpha_distributions.mean_alpha",
    ):
        metrics[f"{layer}_calls"] = count(layer)

    for key, value in trace_counts.items():
        metrics[f"acquisition_loop.{key}"] = value
    metrics["acquisition_loop.scans_per_subject"] = trace_counts["scans"] / max(len(main.scans), 1)
    metrics["reports.output_bytes"] = sum(
        v for k, v in output_counts.items() if k.startswith("bytes.")
    )
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    metrics["trace.spans"] = len(main.span_name)

    details = {
        "untraced_wall_s": run.quartiles(untraced),
        "traced_wall_s": traced_wall,
        "sha256": first and first[0],
        "counters": {**output_counts, **trace_counts},
        "layers": {
            name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
            for name, (c, t, s) in own.items()
        },
        "moves": MOVES,
    }
    return metrics, details
