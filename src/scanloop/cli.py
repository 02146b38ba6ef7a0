"""Command-line interface for the rescan-loop cost experiments.

Subcommands::

    table1     reference grid of closed-form cost reductions vs published values
    ratio      population expected-cost report for a configured failure-rate mix
    simulate   Monte Carlo cohort run: JSON aggregate report + per-subject CSV
    sweep      flag-threshold sweep: empirical operating points and costs per tau
    guidance   per-subject quality trajectories + mean quality-vs-scan curve

Global flags (each subcommand accepts them): ``--config <path>`` selects the
experiment document, ``--seed <u64>`` overrides its master seed, ``--out
<dir>`` overrides the output directory.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 output I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .acquisition_loop import _aggregate, _finite, empirical_vs_analytic, run_cohort
from .alpha_distributions import expected_cost_ratio, mean_alpha
from .config import build_manifest, check_seed, parse_config
from .cost_model import (
    PredictorProfile,
    breakeven_precision,
    budgeted_cost_at,
    cost_reduction_table,
)
from .errors import ConfigError, QuadratureFailure, UndefinedRatio
from .reports import format_cell, write_csv, write_json, write_subjects_csv, write_summary_json

# Reference operating grid: (failure rate, rescan/correction cost quotient,
# precision, recall) columns next to the reduction percentages published for
# them.  Row 0's published 64% disagrees with the closed form (62.5%); the
# delta column keeps that discrepancy visible instead of hiding it.
REFERENCE_GRID = (
    (0.2, 0.1, 0.8, 0.8),
    (0.3, 0.1, 0.8, 0.8),
    (0.2, 0.2, 0.8, 0.8),
    (0.2, 0.1, 0.6, 0.6),
    (0.2, 0.1, 0.9, 0.7),
    (0.2, 0.1, 0.7, 0.9),
)
PUBLISHED_REDUCTIONS_PCT = (64.0, 57.0, 50.0, 37.0, 55.0, 69.0)

TABLE1_HEADER = (
    "alpha",
    "rescan_over_correction",
    "precision",
    "recall",
    "cost_ratio",
    "reduction_pct",
    "published_reduction_pct",
    "delta_pct",
)


def _load_config(args: argparse.Namespace, modes: tuple[str, ...] | None = None):
    if args.config is None:
        raise ConfigError(f"--config: required for the {args.command} command")
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc}") from None
    config = parse_config(
        text,
        base_dir=path.parent,
        seed_override=args.seed,
        out_override=args.out,
    )
    if modes is not None and config.mode not in modes:
        raise ConfigError(
            f"cohort.mode: the {args.command} command requires {' or '.join(modes)} mode,"
            f" got {config.mode}"
        )
    return config


def cmd_table1(args: argparse.Namespace) -> int:
    ratios = cost_reduction_table(list(REFERENCE_GRID))
    rows = []
    for row, ratio, published in zip(REFERENCE_GRID, ratios, PUBLISHED_REDUCTIONS_PCT):
        reduction_pct = 100.0 * (1.0 - ratio)
        rows.append([*row, ratio, reduction_pct, published, reduction_pct - published])

    digest = hashlib.sha256(
        json.dumps({"reference_grid": [list(r) for r in REFERENCE_GRID]}).encode()
    ).hexdigest()
    manifest = build_manifest(0 if args.seed is None else check_seed(args.seed), digest)
    out = Path(args.out if args.out is not None else "runs")
    write_csv(out / "table1.csv", TABLE1_HEADER, list(zip(*rows)), manifest)

    print(
        f"{'alpha':>6} {'cs/cc':>6} {'prec':>6} {'recall':>7}"
        f" {'reduction%':>11} {'published%':>11} {'delta':>7}"
    )
    for row in rows:
        print(
            f"{row[0]:>6.2f} {row[1]:>6.2f} {row[2]:>6.2f} {row[3]:>7.2f}"
            f" {row[5]:>11.1f} {row[6]:>11.0f} {row[7]:>+7.1f}"
        )
    print(f"wrote {out / 'table1.csv'}")
    return 0


def cmd_ratio(args: argparse.Namespace) -> int:
    config = _load_config(args, modes=("abstract",))
    dist, profile, rates = config.distribution, config.profile, config.rates
    mean_a = mean_alpha(dist)
    ratio = expected_cost_ratio(dist, profile, rates.quotient, config.max_rescans)
    original_cost = mean_a * rates.correction_cost
    new_cost = original_cost * ratio
    reduction_pct = 100.0 * (1.0 - ratio)
    if not (math.isfinite(new_cost) and math.isfinite(reduction_pct)):
        raise UndefinedRatio(
            f"the cost ratio {ratio}, looped cost {new_cost} or reduction {reduction_pct}%"
            " leaves the range of doubles"
        )
    bound = breakeven_precision(mean_a, rates.quotient)
    feasible = bound < 1.0
    note = "predictor never flags; the loop never triggers" if profile.recall == 0.0 else None

    payload = {
        "manifest": config.manifest,
        "config": config.echo,
        "population": {
            "mean_failure_rate": mean_a,
            "original_cost": original_cost,
            "new_cost": new_cost,
            "cost_ratio": ratio,
            "reduction_pct": reduction_pct,
        },
        "breakeven": {
            "precision_bound": bound if math.isfinite(bound) else None,
            "feasible": feasible,
            "met_by_configured_precision": profile.precision > bound,
        },
        "note": note,
    }
    out = Path(config.out_dir)
    write_json(out / "ratio.json", payload)

    print(f"mean failure rate      {mean_a:.6g}")
    print(f"baseline cost          {original_cost:.6g}")
    print(f"looped cost            {new_cost:.6g}")
    print(f"cost ratio             {ratio:.6g}")
    print(f"reduction              {reduction_pct:.1f}%")
    print(f"break-even precision   {bound:.6g} ({'feasible' if feasible else 'infeasible'})")
    if note:
        print(f"note: {note}")
    print(f"wrote {out / 'ratio.json'}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_cohort(config)

    comparison = None
    if len(report.table) > 0 and report.aggregates.analytic_cost_ratio is not None:
        comparison = empirical_vs_analytic(report)

    out = Path(config.out_dir)
    write_summary_json(out / "report.json", report, comparison)
    write_subjects_csv(out / "subjects.csv", report)

    agg = report.aggregates
    print(f"subjects               {agg.subjects}")
    print(f"total rescans          {agg.total_rescans}")
    print(f"total corrections      {agg.total_corrections}")
    if agg.mean_cost is not None:
        print(f"mean cost              {agg.mean_cost:.6g}")
    if agg.empirical_cost_ratio is not None:
        print(f"empirical cost ratio   {agg.empirical_cost_ratio:.6g}")
    if agg.analytic_cost_ratio is not None:
        print(f"analytic cost ratio    {agg.analytic_cost_ratio:.6g}")
    if agg.mean_initial_quality is not None:
        print(f"mean initial quality   {agg.mean_initial_quality:.6g}")
        print(f"mean final quality     {agg.mean_final_quality:.6g}")
    print(f"wrote {out / 'report.json'} and {out / 'subjects.csv'}")
    return 0


SWEEP_HEADER = (
    "threshold",
    "alpha_hat",
    "empirical_precision",
    "empirical_recall",
    "plugin_cost_ratio",
    "mean_cost",
    "empirical_cost_ratio",
    "best_simulated",
    "best_plugin",
)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Every threshold's row from one cohort run at the largest: a subject's
    stream is consumed the same way whatever the threshold, so its run at tau
    is ``SubjectTable.truncated`` at the flags ``score < tau``.  First scans
    precede any guided move, so their tallies estimate the raw operating point."""
    config = _load_config(args, modes=("kinematic",))
    if config.sweep_thresholds is None:
        raise ConfigError("sweep: a [sweep] section is required for the sweep command")

    quotient, budget = config.rates.quotient, config.max_rescans
    predictor = dataclasses.replace(config.score_predictor, threshold=max(config.sweep_thresholds))
    table = run_cohort(dataclasses.replace(config, score_predictor=predictor)).table
    first_fail = table.first_fail
    alpha_hat = float(first_fail.mean()) if len(table) > 0 else math.nan
    rows = []
    for tau in config.sweep_thresholds:
        run = table.truncated(table.score < tau)
        flagged = run.flagged[run.starts]
        hits = int((flagged & first_fail).sum())
        precision = hits / int(flagged.sum()) if flagged.any() else None
        recall = hits / int(first_fail.sum()) if first_fail.any() else None
        # The budgeted closed form at the empirical operating point, when defined
        # and within the range of doubles.
        plugin = None
        if precision and recall is not None and 0.0 < alpha_hat < 1.0:
            profile = PredictorProfile(precision, recall)
            plugin = _finite(budgeted_cost_at(alpha_hat, profile, quotient, budget) / alpha_hat)
        agg = _aggregate(run, None)
        cost, ratio = agg.mean_cost, agg.empirical_cost_ratio
        rows.append([tau, alpha_hat, precision, recall, plugin, cost, ratio, 0, 0])

    # Mark the first row of least simulated cost and of least plug-in ratio.
    for value, mark in (("mean_cost", "best_simulated"), ("plugin_cost_ratio", "best_plugin")):
        values = [row[SWEEP_HEADER.index(value)] for row in rows]
        if any(v is not None for v in values):
            best = min(range(len(rows)), key=lambda i: (values[i] is None, values[i]))
            rows[best][SWEEP_HEADER.index(mark)] = 1

    out = Path(config.out_dir)
    write_csv(out / "sweep.csv", SWEEP_HEADER, list(zip(*rows)), config.manifest)

    print(f"{'tau':>6} {'alpha^':>7} {'prec':>6} {'recall':>7} {'plugin':>7} {'cost':>9}")
    for row in rows:
        marker = " *" if row[7] else ""
        cells = [format_cell(v) or "-" for v in row[1:6]]
        print(f"{row[0]:>6.3g} {cells[0]:>7.7s} {cells[1]:>6.6s} {cells[2]:>7.7s}"
              f" {cells[3]:>7.7s} {cells[4]:>9.9s}{marker}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_guidance(args: argparse.Namespace) -> int:
    config = _load_config(args, modes=("kinematic",))
    report = run_cohort(config)
    table = report.table

    # One row per scan: the subject's id repeated over its scans, the scan's
    # index among them and the scan's quality.
    out = Path(config.out_dir)
    write_csv(
        out / "trajectories.csv",
        ("subject_id", "scan_index", "quality"),
        [
            np.repeat(np.arange(len(table)), table.scans),
            np.arange(len(table.quality)) - np.repeat(table.starts, table.scans),
            table.quality,
        ],
        config.manifest,
    )

    # Mean cohort quality at each scan index; subjects that stopped early
    # hold their final quality, so the curve tracks the whole cohort's state.
    longest = int(table.scans.max(initial=0))
    means = [float(table.quality_at(k).mean()) for k in range(longest)]
    write_csv(
        out / "quality_curve.csv",
        ("scan_index", "mean_quality"),
        [np.arange(longest), means],
        config.manifest,
    )

    agg = report.aggregates
    if agg.subjects > 0:
        print(f"subjects               {agg.subjects}")
        print(f"mean initial quality   {agg.mean_initial_quality:.6g}")
        print(f"mean final quality     {agg.mean_final_quality:.6g}")
        print(f"mean rescans           {agg.mean_rescans:.6g}")
    print(f"wrote {out / 'trajectories.csv'} and {out / 'quality_curve.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", default=None, help="experiment document")
    shared.add_argument(
        "--seed", metavar="U64", type=int, default=None, help="override cohort.seed"
    )
    shared.add_argument("--out", metavar="DIR", default=None, help="override output directory")

    parser = argparse.ArgumentParser(
        prog="scanloop",
        description="Expected-cost model and Monte Carlo simulator for "
        "quality-gated rescan loops.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler, blurb in (
        ("table1", cmd_table1, "closed-form reductions on the reference grid"),
        ("ratio", cmd_ratio, "population expected-cost report"),
        ("simulate", cmd_simulate, "Monte Carlo cohort simulation"),
        ("sweep", cmd_sweep, "flag-threshold sweep"),
        ("guidance", cmd_guidance, "quality trajectories under guided rescans"),
    ):
        sub = subparsers.add_parser(name, parents=[shared], help=blurb)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureFailure, UndefinedRatio) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
