"""End-to-end CLI runs through subprocesses: artifacts, examples, exit codes."""

import gc
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import read_report_csv

EXPECTED_REDUCTIONS = (62.5, 57.1, 50.0, 37.5, 55.3, 69.2)
PUBLISHED = (64.0, 57.0, 50.0, 37.0, 55.0, 69.0)


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "scanloop", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def write_config(tmp_path, text, name="experiment.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


ABSTRACT_BETA = """
[cohort]
mode = abstract
subjects = 1500
seed = 42
workers = {workers}

[distribution]
family = beta
a = 2
b = 8

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

TRUNCATED_NORMAL = "family = truncated_normal\nmu = 0.2\nsigma = 0.1\nlo = 0.0\nhi = 0.6"

RATIO_POINTMASS = """
[cohort]
mode = abstract
subjects = 10

[distribution]
family = point_mass
alpha = 0.2

[predictor]
kind = confusion
precision = 0.8
recall = 0.8

[costs]
rescan = 0.2
correction = 1.0

[policy]
max_rescans = 50
"""

# The population cost ratio of ABSTRACT_BETA (and configs/abstract_beta.ini):
# Beta(2, 8), p = r = 0.8, c_s/c_c = 0.1, 50 re-scans at most, by SciPy's quad
# (tests/oracles.py:quad_population_ratio) and the package's Gauss rules alike.
BETA_RATIO = 0.42856513140626934

KINEMATIC_BASE = """
[cohort]
mode = kinematic
subjects = {subjects}
seed = {seed}
workers = 1

[predictor]
kind = score
noise_scale = {noise_scale}

[costs]
rescan = 0.1
correction = 1.0

[policy]
max_rescans = {max_rescans}
threshold = {threshold}

[kinematics]
translation_scale = 10.0
rotation_scale = 0.5
failure_cutoff = {cutoff}
start_offset_t = {start_t}
start_offset_r = 0.0
gain = {gain}
guidance_noise_t = {guidance_t}
"""


def kinematic_config(
    subjects=100,
    seed=2,
    noise_scale=0.0,
    max_rescans=5,
    threshold=1.0,
    cutoff=0.45,
    start_t=8.0,
    gain=1.0,
    guidance_t=0.0,
    extra="",
):
    return (
        KINEMATIC_BASE.format(
            subjects=subjects,
            seed=seed,
            noise_scale=noise_scale,
            max_rescans=max_rescans,
            threshold=threshold,
            cutoff=cutoff,
            start_t=start_t,
            gain=gain,
            guidance_t=guidance_t,
        )
        + extra
    )

SWEEP_GRID = "\n[sweep]\ntau_start = 0.0\ntau_stop = 1.0\ntau_steps = 11\n"
NOISY_GRID = "\n[sweep]\ntau_start = 0.2\ntau_stop = 0.9\ntau_steps = 8\n"
# three equal thresholds
REPEATED_GRID = "\n[sweep]\ntau_start = 0.6\ntau_stop = 0.6\ntau_steps = 3\n"


class TestTable1:
    def test_reductions_and_deltas(self, tmp_path):
        result = run_cli("table1", "--out", str(tmp_path))
        assert result.returncode == 0
        assert "62.5" in result.stdout

        manifest, header, rows = read_report_csv(tmp_path / "table1.csv")
        assert len(rows) == 6
        assert header[0] == "alpha" and header[-1] == "delta_pct"
        for row, expected, published in zip(rows, EXPECTED_REDUCTIONS, PUBLISHED):
            cells = dict(zip(header, row))
            assert round(float(cells["reduction_pct"]), 1) == expected
            assert float(cells["published_reduction_pct"]) == published
            assert float(cells["delta_pct"]) == pytest.approx(
                float(cells["reduction_pct"]) - published, abs=1e-9
            )
        assert float(dict(zip(header, rows[0]))["delta_pct"]) == pytest.approx(-1.5)

    def test_csv_round_trip_and_stability(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_cli("table1", "--out", str(first)).returncode == 0
        assert run_cli("table1", "--out", str(second)).returncode == 0
        assert (first / "table1.csv").read_bytes() == (second / "table1.csv").read_bytes()
        # re-parsed ratios equal the closed-form values at emitted precision
        _, header, rows = read_report_csv(first / "table1.csv")
        cells = dict(zip(header, rows[2]))
        assert float(cells["cost_ratio"]) == 0.5
        assert float(cells["reduction_pct"]) == 50.0


class TestRatio:
    def test_point_mass_reference_reduction(self, tmp_path):
        config = write_config(tmp_path, RATIO_POINTMASS)
        result = run_cli("ratio", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 0
        assert "50.0%" in result.stdout
        payload = json.loads((tmp_path / "ratio.json").read_text())
        assert payload["population"]["reduction_pct"] == pytest.approx(50.0, abs=1e-9)
        assert payload["population"]["cost_ratio"] == pytest.approx(0.5, abs=1e-12)
        assert payload["breakeven"]["precision_bound"] == pytest.approx(0.4)
        assert payload["breakeven"]["feasible"] is True
        assert payload["breakeven"]["met_by_configured_precision"] is True
        assert payload["note"] is None

    def test_beta_population_ratio_of_the_budgeted_loop(self, tmp_path):
        # The unbounded, unsaturated loop gives exactly 3/7 here.  The loop the
        # simulator runs saturates above alpha_max = 0.833 and stops after 50
        # re-scans, which moves the ratio by 6.3e-6; SciPy's quad gives this.
        config = write_config(tmp_path, ABSTRACT_BETA.format(workers=1))
        result = run_cli("ratio", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 0
        payload = json.loads((tmp_path / "ratio.json").read_text())
        assert payload["population"]["cost_ratio"] == pytest.approx(BETA_RATIO, abs=1e-12)
        assert payload["population"]["mean_failure_rate"] == pytest.approx(0.2, abs=1e-9)

    def test_truncated_normal_ten_sigma_above_its_mean(self, tmp_path):
        # lo is 10 sigma above mu, where the normal CDF rounds to 1 at both
        # bounds: the mass comes from the mirrored lower tail.
        from oracles import quad_population_ratio
        from scanloop.alpha_distributions import TruncatedNormal

        text = RATIO_POINTMASS.replace(
            "family = point_mass\nalpha = 0.2",
            "family = truncated_normal\nmu = 0.0\nsigma = 0.01\nlo = 0.1\nhi = 0.5",
        )
        config = write_config(tmp_path, text)
        result = run_cli("ratio", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "ratio.json").read_text())
        ref = quad_population_ratio(TruncatedNormal(0.0, 0.01, 0.1, 0.5), 0.8, 0.8, 0.2, 50)
        assert payload["population"]["cost_ratio"] == pytest.approx(ref, rel=1e-12)

    def test_never_flagging_predictor_notes_it(self, tmp_path):
        config = write_config(tmp_path, RATIO_POINTMASS.replace("recall = 0.8", "recall = 0.0"))
        result = run_cli("ratio", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 0
        assert "never flags" in result.stdout
        payload = json.loads((tmp_path / "ratio.json").read_text())
        assert payload["population"]["reduction_pct"] == 0.0
        assert "never flags" in payload["note"]

    def test_requires_abstract_mode(self, tmp_path):
        config = write_config(tmp_path, kinematic_config())
        result = run_cli("ratio", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 2
        assert "cohort.mode" in result.stderr


class TestSimulate:
    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outs = []
        for name, workers in (("w1a", 1), ("w1b", 1), ("w3", 3)):
            config = write_config(
                tmp_path, ABSTRACT_BETA.format(workers=workers), f"{name}.ini"
            )
            out = tmp_path / name
            assert (
                run_cli("simulate", "--config", str(config), "--out", str(out)).returncode == 0
            )
            outs.append(out)
        reference_csv = (outs[0] / "subjects.csv").read_bytes()
        reference_json = (outs[0] / "report.json").read_bytes()
        for out in outs[1:]:
            assert (out / "subjects.csv").read_bytes() == reference_csv
            assert (out / "report.json").read_bytes() == reference_json

    def test_seed_override_changes_results_and_manifest(self, tmp_path):
        config = write_config(tmp_path, ABSTRACT_BETA.format(workers=1))
        base = tmp_path / "base"
        overridden = tmp_path / "override"
        assert run_cli("simulate", "--config", str(config), "--out", str(base)).returncode == 0
        assert (
            run_cli(
                "simulate", "--config", str(config), "--seed", "7", "--out", str(overridden)
            ).returncode
            == 0
        )
        base_payload = json.loads((base / "report.json").read_text())
        new_payload = json.loads((overridden / "report.json").read_text())
        assert base_payload["manifest"]["master_seed"] == 42
        assert new_payload["manifest"]["master_seed"] == 7
        assert new_payload["manifest"]["config_digest"] != base_payload["manifest"]["config_digest"]
        assert new_payload["aggregates"]["total_cost"] != base_payload["aggregates"]["total_cost"]

    @pytest.mark.parametrize(
        "command, text, csv_name, lead",
        [
            (
                "simulate",
                ABSTRACT_BETA.format(workers=1).replace("subjects = 1500", "subjects = 0"),
                "subjects.csv",
                ["subject_id", "alpha"],
            ),
            (
                "simulate",
                kinematic_config(subjects=0),
                "subjects.csv",
                ["subject_id", "initial_quality", "final_quality"],
            ),
            (
                "guidance",
                kinematic_config(subjects=0),
                "trajectories.csv",
                ["subject_id", "scan_index", "quality"],
            ),
            (
                "sweep",
                kinematic_config(subjects=0, extra=SWEEP_GRID),
                "sweep.csv",
                ["threshold", "alpha_hat"],
            ),
        ],
        ids=["simulate-abstract", "simulate-kinematic", "guidance", "sweep"],
    )
    def test_empty_cohort_writes_valid_files(self, tmp_path, command, text, csv_name, lead):
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        result = run_cli(command, "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        _, header, rows = read_report_csv(out / csv_name)
        assert header[: len(lead)] == lead
        if command == "sweep":
            # a row per threshold, with every figure absent and no best row
            assert [row[0] for row in rows] == [f"{k / 10:.12g}" for k in range(11)]
            assert all(row[1:] == [""] * 6 + ["0", "0"] for row in rows)
        else:
            assert rows == []
        if command == "simulate":
            payload = json.loads((out / "report.json").read_text())
            assert payload["aggregates"]["subjects"] == 0
            assert payload["aggregates"]["mean_cost"] is None
            assert payload["aggregates"]["mean_initial_quality"] is None
        elif command == "guidance":
            _, _, curve_rows = read_report_csv(out / "quality_curve.csv")
            assert curve_rows == []

    def test_abstract_report_embeds_analytic_comparison(self, tmp_path):
        config = write_config(tmp_path, ABSTRACT_BETA.format(workers=1))
        assert (
            run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "out")).returncode
            == 0
        )
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        comparison = payload["comparison"]
        assert comparison["analytic_cost_ratio"] == pytest.approx(BETA_RATIO, abs=1e-12)
        assert abs(comparison["z_cost_ratio"]) < 4.0
        assert abs(comparison["z_mean_cost"]) < 4.0
        # config echo reports every effective setting, including defaults
        assert payload["config"]["policy"]["max_rescans"] == 50
        assert "workers" not in payload["config"]["cohort"]

    def test_abstract_report_at_the_pole_compares_the_budgeted_loop(self, tmp_path):
        # alpha = p / r: the unbounded closed form diverges, but with q = 1 every
        # scan is flagged (f = 1), so each subject runs all 50 re-scans at 0.2
        # and then corrects with probability 0.5: ratio (50 * 0.2 + 0.5) / 0.5.
        text = (
            RATIO_POINTMASS.replace("alpha = 0.2", "alpha = 0.5")
            .replace("precision = 0.8", "precision = 0.5")
            .replace("recall = 0.8", "recall = 1.0")
            .replace("subjects = 10", "subjects = 2000")
        )
        config = write_config(tmp_path, text)
        result = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["aggregates"]["analytic_cost_ratio"] == pytest.approx(21.0, rel=1e-14)
        assert abs(payload["comparison"]["z_cost_ratio"]) <= 3.0

    def test_zero_mean_population_simulates_without_a_ratio(self, tmp_path):
        # Every subject's baseline cost is 0, so no cost ratio exists: simulate
        # still writes its files with a null analytic ratio, while ratio, which
        # has nothing else to report, exits 3.
        text = RATIO_POINTMASS.replace("alpha = 0.2", "alpha = 0.0").replace(
            "subjects = 10", "subjects = 100"
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        result = run_cli("simulate", "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "report.json").read_text())
        assert payload["aggregates"]["analytic_cost_ratio"] is None
        assert payload["aggregates"]["empirical_cost_ratio"] is None
        assert payload["aggregates"]["subjects"] == 100
        assert "comparison" not in payload
        assert (out / "subjects.csv").exists()
        result = run_cli("ratio", "--config", str(config), "--out", str(out))
        assert result.returncode == 3
        assert "0/0" in result.stderr

    def test_concentrated_beta_prices_and_simulates(self, tmp_path):
        # Beta(400, 1600): sd 0.009 about 0.2, and 1 / B(a, b) = e^1003 overflows
        # a double, so the density is only ever formed in log space.
        from oracles import quad_population_ratio
        from scanloop.alpha_distributions import Beta

        text = ABSTRACT_BETA.format(workers=1).replace("a = 2\nb = 8", "a = 400\nb = 1600")
        config = write_config(tmp_path, text)
        ref = quad_population_ratio(Beta(400.0, 1600.0), 0.8, 0.8, 0.1, 50)
        result = run_cli("ratio", "--config", str(config), "--out", str(tmp_path / "ratio"))
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "ratio" / "ratio.json").read_text())
        assert payload["population"]["cost_ratio"] == pytest.approx(ref, rel=1e-12)
        result = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "sim"))
        assert result.returncode == 0, result.stderr
        comparison = json.loads((tmp_path / "sim" / "report.json").read_text())["comparison"]
        assert comparison["analytic_cost_ratio"] == pytest.approx(ref, rel=1e-12)
        assert abs(comparison["z_cost_ratio"]) < 4.0

    def test_support_ending_at_alpha_max_under_the_largest_budget(self, tmp_path):
        # At r = 1, f = alpha / 0.3 reaches 1 at the support's end alpha_max = 0.3,
        # so S_K turns over within 3e-5 of it at K = 10^4.
        from oracles import quad_population_ratio
        from scanloop.alpha_distributions import Uniform

        text = (
            RATIO_POINTMASS.replace("point_mass\nalpha = 0.2", "uniform\nlo = 0.1\nhi = 0.3")
            .replace("precision = 0.8", "precision = 0.3")
            .replace("recall = 0.8", "recall = 1.0")
            .replace("max_rescans = 50", "max_rescans = 10000")
            .replace("subjects = 10", "subjects = 300")
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        result = run_cli("simulate", "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "report.json").read_text())
        ref = quad_population_ratio(Uniform(0.1, 0.3), 0.3, 1.0, 0.2, 10_000)
        assert payload["aggregates"]["analytic_cost_ratio"] == pytest.approx(ref, rel=1e-12)
        assert "comparison" in payload

    def test_unresolved_integral_simulates_without_a_ratio(self, tmp_path, monkeypatch):
        # Should the Gauss rules fail, the subjects still run and report; only
        # the comparison, which needs the analytic ratio, is left out.
        from scanloop import acquisition_loop
        from scanloop.cli import main
        from scanloop.errors import QuadratureFailure

        def unresolved(*args):
            raise QuadratureFailure("injected")

        monkeypatch.setattr(acquisition_loop, "expected_cost_ratio", unresolved)
        config = write_config(tmp_path, ABSTRACT_BETA.format(workers=1))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["aggregates"]["analytic_cost_ratio"] is None
        assert payload["aggregates"]["subjects"] == 1500
        assert "comparison" not in payload

    def test_overflowing_cost_spread_is_null_without_numpy_warnings(self, tmp_path):
        # costs near 1e154 square past the largest double in the comparison's
        # spreads, which report.json writes as null
        text = (
            RATIO_POINTMASS.replace("subjects = 10", "subjects = 200\nseed = 7")
            .replace("alpha = 0.2", "alpha = 0.3")
            .replace("correction = 1.0", "correction = 2.68e154")
        )
        config = write_config(tmp_path, text)
        result = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        comparison = json.loads((tmp_path / "out" / "report.json").read_text())["comparison"]
        assert comparison["empirical_cost_se"] is None
        assert comparison["empirical_ratio_se"] is None

    def test_kinematic_simulate(self, tmp_path):
        config = write_config(tmp_path, kinematic_config(subjects=80, noise_scale=0.05))
        result = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["mode"] == "kinematic"
        assert payload["aggregates"]["mean_final_quality"] is not None
        assert "comparison" not in payload
        _, header, rows = read_report_csv(tmp_path / "out" / "subjects.csv")
        assert header[1] == "initial_quality"
        assert len(rows) == 80



class TestSweep:
    def test_noiseless_separation_minimizes_above_cutoff(self, tmp_path):
        config = write_config(
            tmp_path, kinematic_config(subjects=2000, threshold=0.5, extra=SWEEP_GRID)
        )
        result = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 0
        _, header, rows = read_report_csv(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 11
        best = [dict(zip(header, row)) for row in rows if row[header.index("best_simulated")] == "1"]
        assert len(best) == 1
        assert 0.45 < float(best[0]["threshold"]) <= 1.0

        by_tau = {float(dict(zip(header, row))["threshold"]): dict(zip(header, row)) for row in rows}
        # flag-nothing endpoint: absent precision rather than a failure
        assert by_tau[0.0]["empirical_precision"] == ""
        assert float(by_tau[0.0]["empirical_recall"]) == 0.0
        # flag-everything endpoint: precision equals the cohort failure fraction
        assert by_tau[1.0]["empirical_precision"] == by_tau[1.0]["alpha_hat"]

    def test_noisy_scores_plugin_matches_simulated_minimizer(self, tmp_path):
        config = write_config(
            tmp_path,
            kinematic_config(
                subjects=3000,
                seed=1,
                noise_scale=0.1,
                max_rescans=8,
                threshold=0.5,
                cutoff=0.5,
                start_t=5.0,
                extra=NOISY_GRID,
            ),
        )
        result = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 0
        _, header, rows = read_report_csv(tmp_path / "out" / "sweep.csv")
        taus = [float(dict(zip(header, row))["threshold"]) for row in rows]
        sim_tau = next(
            t for t, row in zip(taus, rows) if row[header.index("best_simulated")] == "1"
        )
        plugin_tau = next(
            t for t, row in zip(taus, rows) if row[header.index("best_plugin")] == "1"
        )
        grid_step = taus[1] - taus[0]
        assert abs(sim_tau - plugin_tau) <= grid_step + 1e-9

    @pytest.mark.parametrize("grid", [SWEEP_GRID, REPEATED_GRID], ids=["0-to-1", "repeated"])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("noise_scale", [0.0, 0.1])
    @pytest.mark.parametrize("max_rescans", [1, 3])
    def test_equals_one_cohort_run_per_threshold(
        self, tmp_path, monkeypatch, max_rescans, noise_scale, seed, grid
    ):
        # One run at the largest threshold against tests/oracles.py's run per
        # threshold: every value equal, and sweep.csv's bytes.
        from oracles import render_csv_rows, sweep_rows_per_threshold
        from scanloop import cli
        from scanloop.config import parse_config

        text = kinematic_config(
            subjects=300,
            seed=seed,
            noise_scale=noise_scale,
            max_rescans=max_rescans,
            threshold=0.5,
            cutoff=0.5,
            start_t=6.0,
            gain=0.6,
            guidance_t=1.0,
            extra=grid,
        )
        columns = []
        write_csv = cli.write_csv

        def capture(path, header, blocks, manifest):
            columns.append(blocks[0])
            write_csv(path, header, blocks, manifest)

        monkeypatch.setattr(cli, "write_csv", capture)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(write_config(tmp_path, text)), "--out", str(out)]
        assert cli.main(argv) == 0
        config = parse_config(text)
        want = sweep_rows_per_threshold(config)
        assert repr(list(zip(*columns[0]))) == repr([tuple(row) for row in want])
        assert (out / "sweep.csv").read_text() == render_csv_rows(
            cli.SWEEP_HEADER, want, config.manifest
        )

    @pytest.mark.parametrize("extreme", [False, True], ids=["shipped-costs", "extreme-costs"])
    def test_plugin_ratio_past_the_largest_double_is_empty_and_never_marked(
        self, tmp_path, capsys, extreme
    ):
        # configs/kinematic_guided.ini at 300 subjects.  Re-scans at 1e308
        # against corrections at 1e-10 and one re-scan are a valid config,
        # whose plug-in ratio from tau = 0.1 on is past the largest double:
        # sweep.csv wrote inf there and marked tau = 0.1 best.
        from oracles import render_csv_rows, sweep_rows_per_threshold
        from scanloop import cli
        from scanloop.config import parse_config

        text = (REPO / "configs" / "kinematic_guided.ini").read_text(encoding="utf-8")
        text = text.replace("subjects = 5000", "subjects = 300")
        extremes = {
            "rescan = 0.1": "rescan = 1e308",
            "correction = 1.0": "correction = 1e-10",
            "max_rescans = 10": "max_rescans = 1",
        }
        for shipped, value in extremes.items() if extreme else ():
            assert shipped in text
            text = text.replace(shipped, value)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(write_config(tmp_path, text)), "--out", str(out)]
        assert cli.main(argv) == 0
        console = capsys.readouterr().out.splitlines()[1:-1]
        config = parse_config(text)
        written = (out / "sweep.csv").read_text(encoding="utf-8")
        assert written == render_csv_rows(
            cli.SWEEP_HEADER, sweep_rows_per_threshold(config), config.manifest
        )
        _, header, rows = read_report_csv(out / "sweep.csv")
        plugin, best = header.index("plugin_cost_ratio"), header.index("best_plugin")
        assert "inf" not in written
        if extreme:
            assert [row[plugin] for row in rows] == [""] * len(rows)
            assert [row[best] for row in rows] == ["0"] * len(rows)
            assert [line.split()[4] for line in console] == ["-"] * len(rows)
        else:
            assert all(row[plugin] for row in rows[1:])
            assert [row[best] for row in rows].count("1") == 1

    def test_one_cohort_run_at_the_largest_threshold(self, tmp_path, monkeypatch):
        from scanloop import cli

        thresholds = []
        run_cohort = cli.run_cohort

        def counted(config):
            thresholds.append(config.score_predictor.threshold)
            return run_cohort(config)

        monkeypatch.setattr(cli, "run_cohort", counted)
        config = write_config(tmp_path, kinematic_config(subjects=50, extra=NOISY_GRID))
        assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert thresholds == [0.9]

    def test_zero_budget_sweeps_first_scan_flags(self, tmp_path):
        # With no re-scan the loop changes nothing, so every row's cost ratio
        # is 1; the first-scan flags still give each threshold's precision.
        text = kinematic_config(subjects=500, max_rescans=0, extra=SWEEP_GRID)
        config = write_config(tmp_path, text)
        result = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        _, header, rows = read_report_csv(tmp_path / "out" / "sweep.csv")
        by_tau = {float(row[0]): dict(zip(header, row)) for row in rows}
        assert {row["empirical_cost_ratio"] for row in by_tau.values()} == {"1"}
        assert len({row["mean_cost"] for row in by_tau.values()}) == 1
        assert by_tau[1.0]["empirical_precision"] == by_tau[1.0]["alpha_hat"]
        assert by_tau[0.0]["empirical_precision"] == ""

    def test_requires_sweep_section(self, tmp_path):
        config = write_config(tmp_path, kinematic_config())
        result = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "sweep" in result.stderr

    def test_requires_kinematic_mode(self, tmp_path):
        config = write_config(tmp_path, ABSTRACT_BETA.format(workers=1))
        result = run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 2


class TestGuidance:
    def test_full_gain_reaches_quality_one_by_second_scan(self, tmp_path):
        config = write_config(tmp_path, kinematic_config(subjects=100, seed=3))
        result = run_cli("guidance", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 0
        _, header, rows = read_report_csv(tmp_path / "out" / "trajectories.csv")
        per_subject: dict[int, list[tuple[int, str]]] = {}
        for row in rows:
            cells = dict(zip(header, row))
            per_subject.setdefault(int(cells["subject_id"]), []).append(
                (int(cells["scan_index"]), cells["quality"])
            )
        assert len(per_subject) == 100
        for scans in per_subject.values():
            assert len(scans) == 2
            assert scans[1][1] == "1"

        _, curve_header, curve_rows = read_report_csv(tmp_path / "out" / "quality_curve.csv")
        assert curve_header == ["scan_index", "mean_quality"]
        curve = {int(r[0]): float(r[1]) for r in curve_rows}
        assert curve[1] == 1.0
        assert curve[0] < 1.0

    def test_half_gain_follows_contraction_curve(self, tmp_path):
        config = write_config(tmp_path, kinematic_config(subjects=50, seed=5, gain=0.5, max_rescans=6))
        result = run_cli("guidance", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 0
        _, header, rows = read_report_csv(tmp_path / "out" / "trajectories.csv")
        per_subject: dict[int, list[float]] = {}
        for row in rows:
            cells = dict(zip(header, row))
            per_subject.setdefault(int(cells["subject_id"]), []).append(float(cells["quality"]))
        for trajectory in per_subject.values():
            assert len(trajectory) == 7  # budget exhausted: every scan below 1.0 flags
            q0 = trajectory[0]
            for k, quality in enumerate(trajectory):
                assert quality == pytest.approx(q0 ** (0.25**k), rel=1e-9)

    def test_overwhelming_guidance_noise_is_a_null_effect(self, tmp_path):
        # Guidance noise with the same scale as the start offsets makes the
        # post-move pose a fresh draw from the start distribution, so mean
        # final quality must be statistically indistinguishable from initial.
        config = write_config(
            tmp_path,
            kinematic_config(
                subjects=10_000, seed=7, start_t=30.0, guidance_t=30.0, max_rescans=1
            ),
        )
        result = run_cli("guidance", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 0
        _, header, rows = read_report_csv(tmp_path / "out" / "trajectories.csv")
        first: dict[int, float] = {}
        last: dict[int, float] = {}
        for row in rows:
            cells = dict(zip(header, row))
            sid = int(cells["subject_id"])
            if int(cells["scan_index"]) == 0:
                first[sid] = float(cells["quality"])
            else:
                last[sid] = float(cells["quality"])
        diffs = [last[s] - first[s] for s in last]
        n = len(diffs)
        assert n == 10_000
        mean = sum(diffs) / n
        var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
        z = mean / math.sqrt(var / n)
        assert abs(z) < 3.0

    def test_files_equal_the_row_by_row_reference(self, tmp_path):
        # Both files rebuilt from each subject's own trajectory, with a
        # subject that stopped early holding its last quality on the curve.
        from oracles import render_csv_rows, table_rows
        from scanloop.acquisition_loop import run_cohort
        from scanloop.cli import main
        from scanloop.config import parse_config

        text = kinematic_config(
            subjects=300, seed=11, noise_scale=0.1, threshold=0.8, gain=0.6, guidance_t=1.0
        )
        config, out = write_config(tmp_path, text), tmp_path / "out"
        assert main(["guidance", "--config", str(config), "--out", str(out)]) == 0
        report = run_cohort(parse_config(text))
        paths = [row.quality_trajectory for row in table_rows(report.table)]
        longest = max(map(len, paths))
        assert min(map(len, paths)) < longest
        rows = [(i, k, q) for i, path in enumerate(paths) for k, q in enumerate(path)]
        curve = [
            (k, float(np.mean([path[min(k, len(path) - 1)] for path in paths])))
            for k in range(longest)
        ]
        expected = {
            "trajectories.csv": render_csv_rows(
                ("subject_id", "scan_index", "quality"), rows, report.config.manifest
            ),
            "quality_curve.csv": render_csv_rows(
                ("scan_index", "mean_quality"), curve, report.config.manifest
            ),
        }
        for name, content in expected.items():
            assert (out / name).read_text(encoding="utf-8") == content, name

    def test_requires_kinematic_mode(self, tmp_path):
        config = write_config(tmp_path, ABSTRACT_BETA.format(workers=1))
        result = run_cli("guidance", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 2


class TestEntryPoint:
    # ``python -m scanloop`` moves the import-time heap out of the garbage
    # collector's reach before it calls ``cli.main``; the files stay the same.
    @pytest.mark.parametrize("command", ["simulate", "guidance"])
    def test_module_run_writes_the_bytes_of_cli_main(self, tmp_path, monkeypatch, command):
        from scanloop.cli import main

        if command == "simulate":
            text = ABSTRACT_BETA.format(workers=1).replace("subjects = 1500", "subjects = 5000")
            text = text.replace("family = beta\na = 2\nb = 8", TRUNCATED_NORMAL)
        else:
            text = kinematic_config(subjects=300, seed=3)
        config = write_config(tmp_path, text)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        result = run_cli(command, "--config", str(config), "--out", str(tmp_path / "module"))
        assert result.returncode == 0, result.stderr
        assert main([command, "--config", str(config), "--out", str(tmp_path / "main")]) == 0
        module, direct = tmp_path / "module", tmp_path / "main"
        written = sorted(path.name for path in module.iterdir())
        assert written == sorted(path.name for path in direct.iterdir())
        for name in written:
            assert (module / name).read_bytes() == (direct / name).read_bytes(), name

    def test_script_target_is_the_function_the_module_runs(self, monkeypatch):
        # ``scanloop`` (the console script) and ``python -m scanloop`` both
        # freeze the heap from ``__main__.run`` and then call ``cli.main``.
        import runpy
        from importlib.metadata import EntryPoint

        from scanloop import cli

        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
        target = pyproject["project"]["scripts"]["scanloop"]
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(sys._getframe(1).f_code))
        monkeypatch.setattr(cli, "main", lambda argv=None: calls.append(argv) or 0)
        monkeypatch.delitem(sys.modules, "scanloop.__main__", raising=False)
        with pytest.raises(SystemExit) as raised:
            runpy.run_module("scanloop", run_name="__main__")
        assert raised.value.code == 0
        script = EntryPoint("scanloop", target, "console_scripts").load()
        assert script() == 0
        assert calls == [script.__code__, None, script.__code__, None]

    def test_cli_main_in_process_keeps_the_default_collector(self, tmp_path, monkeypatch):
        from scanloop.cli import main

        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        assert main(["table1", "--out", str(tmp_path)]) == 0
        assert calls == []

    def test_bad_config_exits_2(self, tmp_path):
        text = ABSTRACT_BETA.format(workers=1).replace("precision = 0.8", "precision = 1.2")
        result = run_cli("simulate", "--config", str(write_config(tmp_path, text)))
        assert result.returncode == 2
        assert "config error" in result.stderr and "predictor.precision" in result.stderr


class TestExitCodes:
    def test_missing_config_flag(self, tmp_path):
        result = run_cli("simulate", "--out", str(tmp_path))
        assert result.returncode == 2
        assert "config error" in result.stderr

    def test_unreadable_config_file(self, tmp_path):
        result = run_cli("simulate", "--config", str(tmp_path / "missing.ini"))
        assert result.returncode == 2

    def test_invalid_setting_names_key(self, tmp_path):
        config = write_config(
            tmp_path, RATIO_POINTMASS.replace("precision = 0.8", "precision = 1.2")
        )
        result = run_cli("ratio", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 2
        assert "predictor.precision" in result.stderr

    def test_numerical_failure(self, tmp_path):
        # a point mass at 0: the baseline cost is 0, so the ratio is 0/0
        text = RATIO_POINTMASS.replace("alpha = 0.2", "alpha = 0.0")
        config = write_config(tmp_path, text)
        result = run_cli("ratio", "--config", str(config), "--out", str(tmp_path))
        assert result.returncode == 3
        assert "numerical failure" in result.stderr

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulation_error_names_subject_and_seed(
        self, tmp_path, monkeypatch, capsys, workers
    ):
        # A fault injected into one subject's simulation is named with the
        # subject, the seed and the config digest, also when it crosses the
        # pool: forked workers inherit the patched module.  Kinematic
        # subjects take their streams from subject_streams.
        from scanloop import acquisition_loop
        from scanloop.cli import main
        from scanloop.config import parse_config
        from scanloop.errors import UndefinedRatio

        subject_streams = acquisition_loop.subject_streams

        def faulty(seed, start, stop):
            for i, rng in enumerate(subject_streams(seed, start, stop), start):
                if i == 23:
                    raise UndefinedRatio("injected fault")
                yield rng

        monkeypatch.setattr(acquisition_loop, "subject_streams", faulty)
        text = kinematic_config(subjects=40, seed=7).replace(
            "workers = 1", f"workers = {workers}"
        )
        config = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        digest = parse_config(text).digest[:12]
        assert f"numerical failure: subject 23, seed 7, config {digest}: injected fault" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family", ["truncated_normal", "beta"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("subjects, subject", [(40, 23), (2000, 1500)])
    def test_scan_loop_error_names_subject_and_seed(
        self, tmp_path, monkeypatch, capsys, workers, subjects, subject, family
    ):
        # The same for the families whose failure rates are drawn a unit at
        # a time, from their alpha_uniforms: a fault in subject 23's
        # scan loop names subject 23.  The loop is told apart by its failure
        # rate.  Subject 1 500 lies in a later unit than the first, whose
        # subjects.csv rows were written by then: the failure still leaves no
        # file behind.
        from scanloop import acquisition_loop
        from scanloop.alpha_distributions import Beta, TruncatedNormal
        from scanloop.cli import main
        from scanloop.config import parse_config
        from scanloop.errors import UndefinedRatio
        from scanloop.streams import alpha_uniforms

        body, dist = {
            "truncated_normal": (TRUNCATED_NORMAL, TruncatedNormal(0.2, 0.1, 0.0, 0.6)),
            "beta": ("family = beta\na = 2\nb = 8", Beta(2.0, 8.0)),
        }[family]
        alpha = float(dist.inverse_cdf(alpha_uniforms(7, subject, subject + 1))[0])
        run_subject_abstract = acquisition_loop.run_subject_abstract

        def faulty(rate, *args):
            if rate == alpha:
                raise UndefinedRatio("injected fault")
            return run_subject_abstract(rate, *args)

        monkeypatch.setattr(acquisition_loop, "run_subject_abstract", faulty)
        text = (
            ABSTRACT_BETA.format(workers=workers)
            .replace("family = beta\na = 2\nb = 8", body)
            .replace("subjects = 1500", f"subjects = {subjects}")
            .replace("seed = 42", "seed = 7")
        )
        config = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        digest = parse_config(text).digest[:12]
        where = f"subject {subject}, seed 7, config {digest}"
        assert f"numerical failure: {where}: injected fault" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("a, b", [("1e300", "1.5"), ("2", "1e300"), ("1e6", "1e300")])
    def test_nan_failure_rate_names_its_subject(
        self, tmp_path, monkeypatch, capsys, workers, a, b
    ):
        # SciPy's betaincinv gives NaN at these shapes: on every uniform at
        # the first two, on about half of them at the third.  A config cannot
        # ask for them (a and b are at most 1e6), so the run gets them from a
        # parsed config with its distribution replaced.  The run ends at the
        # first subject whose rate is NaN, and writes nothing.
        import dataclasses

        from scanloop import cli
        from scanloop.alpha_distributions import Beta
        from scanloop.config import parse_config
        from scanloop.streams import alpha_uniforms

        dist = Beta(float(a), float(b))
        u = alpha_uniforms(7, 0, 40)
        nan = np.flatnonzero(np.isnan(dist.inverse_cdf(u)))
        assert nan.size

        def with_beta(*args, **kwargs):
            return dataclasses.replace(parse_config(*args, **kwargs), distribution=dist)

        monkeypatch.setattr(cli, "parse_config", with_beta)
        text = (
            ABSTRACT_BETA.format(workers=workers)
            .replace("subjects = 1500", "subjects = 40")
            .replace("seed = 42", "seed = 7")
        )
        config = write_config(tmp_path, text)
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        digest = parse_config(text).digest[:12]
        where = f"subject {nan[0]}, seed 7, config {digest}"
        assert f"numerical failure: {where}: Beta(a={float(a)}, b={float(b)}):" in err
        assert "betaincinv gives a NaN failure rate" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ratio", "simulate"])
    @pytest.mark.parametrize(
        "a, b, key", [("1e20", "1e100", "a"), ("1e300", "1.5", "a"), ("2", "1e300", "b")]
    )
    def test_beta_shape_past_1e6_exits_2(self, tmp_path, capsys, command, a, b, key):
        # Such shapes took seconds to invert and overflowed numpy's exp in the
        # Gauss rule; they are refused before any of it, with no warning.
        import warnings

        from scanloop.cli import main

        text = ABSTRACT_BETA.format(workers=1).replace("a = 2\nb = 8", f"a = {a}\nb = {b}")
        config = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        value = {"a": a, "b": b}[key]
        assert f"config error: distribution.{key}: must be in" in err
        assert f"got {float(value)}" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "out").exists()

    def test_rescan_budget_bound_checked_before_any_simulation(
        self, tmp_path, monkeypatch, capsys
    ):
        from scanloop import acquisition_loop
        from scanloop.cli import main

        def no_simulation(*args):
            raise AssertionError("a subject was simulated")

        monkeypatch.setattr(acquisition_loop, "_simulate_table", no_simulation)
        text = ABSTRACT_BETA.format(workers=1).replace("max_rescans = 50", "max_rescans = 10001")
        config = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "policy.max_rescans: must be in [0, 10000], got 10001" in capsys.readouterr().err

    def test_cost_past_the_largest_double_names_rescan(self, tmp_path):
        # three re-scans at the largest double would cost inf in subjects.csv
        text = (
            RATIO_POINTMASS.replace("subjects = 10", "subjects = 3")
            .replace("alpha = 0.2", "alpha = 0.5")
            .replace("rescan = 0.2", "rescan = 1.7976931348623157e308")
            .replace("max_rescans = 50", "max_rescans = 3")
        )
        config = write_config(tmp_path, text)
        result = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "costs.rescan" in result.stderr
        assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ratio", "simulate"])
    @pytest.mark.parametrize("mu", [40.0, -40.0])
    def test_truncated_normal_without_mass_names_mu(self, tmp_path, command, mu):
        # Both normal CDFs round to the same value on [0.1, 0.3], so the
        # support carries no mass in double precision.
        text = RATIO_POINTMASS.replace(
            "family = point_mass\nalpha = 0.2",
            f"family = truncated_normal\nmu = {mu}\nsigma = 0.01\nlo = 0.1\nhi = 0.3",
        )
        config = write_config(tmp_path, text)
        result = run_cli(command, "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "distribution.mu" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "bad_file, key",
        [("config", "--config"), ("histogram", "distribution.csv")],
        ids=["config", "histogram"],
    )
    def test_non_utf8_input_names_key(self, tmp_path, bad_file, key):
        text = RATIO_POINTMASS.replace(
            "family = point_mass\nalpha = 0.2", "family = histogram\ncsv = bins.csv"
        )
        bins = b"bin_upper_edge,mass\n0.1,1\n0.3,1\n"
        config = tmp_path / "bad.ini"
        if bad_file == "config":
            config.write_bytes(b"\xff\xfe" + text.encode())
        else:
            config.write_text(text, encoding="utf-8")
            bins = bins.replace(b"0.3,1", b"0.3,\xff")
        (tmp_path / "bins.csv").write_bytes(bins)
        result = run_cli("ratio", "--config", str(config), "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert key in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("bom_file", ["experiment.ini", "bins.csv"])
    def test_utf8_byte_order_mark_accepted(self, tmp_path, bom_file):
        files = {
            "experiment.ini": RATIO_POINTMASS.replace(
                "family = point_mass\nalpha = 0.2", "family = histogram\ncsv = bins.csv"
            ),
            "bins.csv": "bin_upper_edge,mass\n0.1,1\n0.3,1\n",
        }
        payloads = []
        for name in ("plain", "bom"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            for file_name, content in files.items():
                encoding = "utf-8-sig" if name == "bom" and file_name == bom_file else "utf-8"
                (run_dir / file_name).write_text(content, encoding=encoding)
            config, out = run_dir / "experiment.ini", run_dir / "out"
            result = run_cli("ratio", "--config", str(config), "--out", str(out))
            assert result.returncode == 0, result.stderr
            payload = json.loads((out / "ratio.json").read_text())
            payload["manifest"].pop("timestamp")
            payloads.append(payload)
        assert (tmp_path / "bom" / bom_file).read_bytes().startswith(b"\xef\xbb\xbf")
        plain, with_bom = payloads
        assert with_bom["manifest"]["config_digest"] == plain["manifest"]["config_digest"]
        assert with_bom == plain

    def test_unwritable_output(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        config = write_config(
            tmp_path, ABSTRACT_BETA.format(workers=1).replace("subjects = 1500", "subjects = 5")
        )
        result = run_cli(
            "simulate", "--config", str(config), "--out", str(blocker / "nested")
        )
        assert result.returncode == 4
        assert "i/o error" in result.stderr

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_names_seed(self, tmp_path, capsys, seed):
        from scanloop.cli import main

        document = config_document("abstract", "point_mass", ("cohort", "seed", str(seed)))
        code, err = run_in_process("abstract", write_config(tmp_path, document), tmp_path, capsys)
        assert code == 2 and err.startswith("config error: cohort.seed: "), err
        config = write_config(tmp_path, config_document("abstract", "point_mass"), "valid.ini")
        for command in ("simulate", "ratio", "table1"):
            argv = [command, "--config", str(config), f"--seed={seed}", "--out", str(tmp_path)]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("config error: cohort.seed: ")
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_run(self, tmp_path, capsys, seed):
        from scanloop.cli import main

        document = config_document("abstract", "point_mass", ("cohort", "seed", str(seed)))
        config = write_config(tmp_path, document)
        code, err = run_in_process("abstract", config, tmp_path / "document", capsys)
        assert code == 0, err
        plain = write_config(tmp_path, config_document("abstract", "point_mass"), "plain.ini")
        out = tmp_path / "override"
        argv = ["simulate", "--config", str(plain), f"--seed={seed}", "--out", str(out)]
        assert main(argv) == 0
        for run in ("document", "override"):
            report = json.loads((tmp_path / run / "report.json").read_text())
            assert report["manifest"]["master_seed"] == seed
        assert (tmp_path / "document" / "subjects.csv").read_bytes() == (
            out / "subjects.csv"
        ).read_bytes()

    @pytest.mark.parametrize("epoch", ["abc", "1e9", "99999999999999999"])
    @pytest.mark.parametrize("command", ["table1", "simulate"])
    def test_source_date_epoch_not_integer_seconds_exits_2(
        self, tmp_path, monkeypatch, capsys, command, epoch
    ):
        # "abc" and "1e9" ended in a ValueError traceback, simulate's only
        # after the whole cohort ran; the last one exited 4 as an i/o error.
        from scanloop import cli

        def no_cohort(*args):
            raise AssertionError("a cohort ran")

        monkeypatch.setattr(cli, "run_cohort", no_cohort)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        out = tmp_path / "out"
        argv = [command, "--out", str(out)]
        if command == "simulate":
            config = write_config(tmp_path, config_document("abstract", "point_mass"))
            argv += ["--config", str(config)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: SOURCE_DATE_EPOCH: "), err
        assert repr(epoch) in err
        assert not out.exists()

    def test_cohort_past_the_cap_is_refused_before_any_simulation(
        self, tmp_path, monkeypatch, capsys
    ):
        from scanloop import cli

        def no_cohort(*args):
            raise AssertionError("a cohort of 10^12 subjects ran")

        # A cohort this large fills memory while it is cut into units.
        monkeypatch.setattr(cli, "run_cohort", no_cohort)
        document = config_document("abstract", "point_mass", ("cohort", "subjects", str(10**12)))
        code, err = run_in_process("abstract", write_config(tmp_path, document), tmp_path, capsys)
        assert code == 2, err
        assert "cohort.subjects: must be in [0, 10000000], got 1000000000000" in err

    @pytest.mark.parametrize(
        "start, stop", [("-1e308", "1e308"), ("-1.7976931348623157e308", "1e300")]
    )
    def test_sweep_span_past_the_largest_double_is_refused(self, tmp_path, capsys, start, stop):
        # linspace from -1e308 to 1e308 gives [nan, inf, inf, inf, 1e308], and
        # the one cohort run, at their max(), nan, never flags
        from scanloop.cli import main

        extra = f"\n[sweep]\ntau_start = {start}\ntau_stop = {stop}\ntau_steps = 5\n"
        config = write_config(tmp_path, kinematic_config(subjects=5, extra=extra))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: sweep.tau_stop: ")
        assert not (tmp_path / "out").exists()


# Every float key of both modes: (mode, distribution family or None, section, key).
FLOAT_KEYS = [
    ("abstract", "point_mass", "distribution", "alpha"),
    ("abstract", "uniform", "distribution", "lo"),
    ("abstract", "uniform", "distribution", "hi"),
    ("abstract", "beta", "distribution", "a"),
    ("abstract", "beta", "distribution", "b"),
    ("abstract", "truncated_normal", "distribution", "mu"),
    ("abstract", "truncated_normal", "distribution", "sigma"),
    ("abstract", "truncated_normal", "distribution", "lo"),
    ("abstract", "truncated_normal", "distribution", "hi"),
    ("abstract", "point_mass", "predictor", "precision"),
    ("abstract", "point_mass", "predictor", "recall"),
    ("abstract", "point_mass", "costs", "rescan"),
    ("abstract", "point_mass", "costs", "correction"),
    *(
        ("kinematic", None, section, key)
        for section, key in (
            ("predictor", "noise_scale"),
            ("costs", "rescan"),
            ("costs", "correction"),
            ("policy", "threshold"),
            ("kinematics", "translation_scale"),
            ("kinematics", "rotation_scale"),
            ("kinematics", "failure_cutoff"),
            ("kinematics", "start_offset_t"),
            ("kinematics", "start_offset_r"),
            ("kinematics", "guidance_noise_t"),
            ("kinematics", "guidance_noise_r"),
            ("kinematics", "gain"),
            ("kinematics", "motor_noise_t"),
            ("kinematics", "motor_noise_r"),
            ("sweep", "tau_start"),
            ("sweep", "tau_stop"),
        )
    ),
]

# Rotation-noise standard deviations, bounded to [0, pi] rad.
ROTATION_SD_KEYS = ("start_offset_r", "guidance_noise_r", "motor_noise_r")

# Finite values just outside a kinematic setting's range, (section, key, text):
# the config is the only place these ranges are checked.
OUT_OF_RANGE = [
    ("kinematics", "translation_scale", "0"),
    ("kinematics", "rotation_scale", "-0.5"),
    ("kinematics", "failure_cutoff", "1"),
    ("kinematics", "gain", "0"),
    ("kinematics", "gain", "1.5"),
    ("kinematics", "motor_noise_t", "-1"),
    ("kinematics", "guidance_noise_r", "-0.1"),
    ("predictor", "noise_scale", "-0.1"),
]

# Finite values just outside an abstract setting's range, (family, section, key,
# text): the config is the only place these ranges are checked.
ABSTRACT_OUT_OF_RANGE = [
    ("point_mass", "predictor", "precision", "0"),
    ("point_mass", "predictor", "precision", "1.5"),
    ("point_mass", "predictor", "recall", "-0.01"),
    ("point_mass", "predictor", "recall", "1.01"),
    ("point_mass", "costs", "rescan", "-0.1"),
    ("point_mass", "costs", "correction", "0"),
    ("point_mass", "distribution", "alpha", "1"),
    ("point_mass", "distribution", "alpha", "-0.1"),
    ("uniform", "distribution", "lo", "0.5"),  # above hi = 0.3
    ("uniform", "distribution", "hi", "1"),
    ("uniform", "distribution", "lo", "-0.1"),
    ("beta", "distribution", "a", "0.5"),
    ("beta", "distribution", "b", "1"),
    ("truncated_normal", "distribution", "sigma", "0"),
    ("truncated_normal", "distribution", "hi", "1"),
]

FAMILY_SETTINGS = {
    "point_mass": {"alpha": "0.2"},
    "uniform": {"lo": "0.1", "hi": "0.3"},
    "beta": {"a": "2", "b": "8"},
    "truncated_normal": {"mu": "0.2", "sigma": "0.1", "lo": "0.0", "hi": "0.6"},
}


def config_document(mode, family=None, replace=None):
    """A small valid config with every key written out, as section -> key -> text;
    ``replace`` = (section, key, text) swaps one value."""
    doc = {"cohort": {"mode": mode, "subjects": "5", "seed": "3", "workers": "1"}}
    if mode == "abstract":
        doc["distribution"] = {"family": family, **FAMILY_SETTINGS[family]}
        doc["predictor"] = {"kind": "confusion", "precision": "0.8", "recall": "0.8"}
        doc["policy"] = {"max_rescans": "5"}
    else:
        doc["predictor"] = {"kind": "score", "noise_scale": "0.05"}
        doc["policy"] = {"max_rescans": "5", "threshold": "0.7"}
        doc["kinematics"] = {
            "translation_scale": "10.0",
            "rotation_scale": "0.5",
            "failure_cutoff": "0.5",
            "start_offset_t": "8.0",
            "start_offset_r": "0.3",
            "guidance_noise_t": "1.0",
            "guidance_noise_r": "0.05",
            "gain": "0.8",
            "motor_noise_t": "0.5",
            "motor_noise_r": "0.02",
        }
        doc["sweep"] = {"tau_start": "0.2", "tau_stop": "0.8", "tau_steps": "3"}
    doc["costs"] = {"rescan": "0.1", "correction": "1.0"}
    if replace is not None:
        section, key, text = replace
        doc[section][key] = text
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for section, keys in doc.items()
    )


def run_in_process(mode, config, out, capsys):
    """``simulate`` (abstract) or ``guidance`` (kinematic) through ``cli.main``
    in this process: (exit code, stderr)."""
    from scanloop.cli import main

    command = "simulate" if mode == "abstract" else "guidance"
    code = main([command, "--config", str(config), "--out", str(out)])
    return code, capsys.readouterr().err


HISTOGRAM_BINS = "bin_upper_edge,mass\n0.1,5\n0.2,12\n0.3,8\n0.5,2\n"


class TestStreamedRun:
    """``simulate`` and ``guidance`` write each unit of subjects as it is
    drawn and keep only the columns their aggregates read."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("family", [*FAMILY_SETTINGS, "histogram", None])
    def test_outputs_equal_those_of_the_joined_table(self, tmp_path, capsys, family, workers):
        # 2 100 subjects make 3 units at workers 1 and 17 at workers 2; the
        # sink-less run joins them into one table before it aggregates.
        from scanloop.acquisition_loop import empirical_vs_analytic, run_cohort
        from scanloop.cli import main
        from scanloop.config import parse_config
        from scanloop.reports import (
            subjects_csv_columns,
            subjects_csv_header,
            write_csv,
            write_summary_json,
        )

        mode = "kinematic" if family is None else "abstract"
        text = config_document(mode, "point_mass" if family == "histogram" else family)
        if family == "histogram":
            histogram = "family = histogram\ncsv = b.csv"
            text = text.replace("family = point_mass\nalpha = 0.2", histogram)
            (tmp_path / "b.csv").write_text(HISTOGRAM_BINS)
        text = text.replace("subjects = 5", "subjects = 2100")
        text = text.replace("workers = 1", f"workers = {workers}")
        out = tmp_path / "out"
        config_path = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        capsys.readouterr()

        config = parse_config(text, base_dir=tmp_path, out_override=str(out))
        report = run_cohort(config)
        assert report.table is not None and len(report.table) == 2100
        comparison = None
        if report.aggregates.analytic_cost_ratio is not None:
            comparison = empirical_vs_analytic(report)
        assert (comparison is None) == (family is None)
        write_summary_json(tmp_path / "report.json", report, comparison)
        assert (out / "report.json").read_bytes() == (tmp_path / "report.json").read_bytes()
        columns = subjects_csv_columns(mode, 0, report.table)
        write_csv(tmp_path / "subjects.csv", subjects_csv_header(mode), [columns], config.manifest)
        assert (out / "subjects.csv").read_bytes() == (tmp_path / "subjects.csv").read_bytes()

    @pytest.mark.parametrize(
        "mode, family, held", [("abstract", "point_mass", 89), ("kinematic", None, 172)]
    )
    def test_peak_memory_grows_by_half_a_held_table(self, tmp_path, capsys, mode, family, held):
        # The tracemalloc peak of simulate (abstract) or guidance (kinematic)
        # in process, at 4 096 and 16 384 subjects.  A run that held the
        # whole cohort's table until it wrote its files grew by ``held`` bytes
        # a subject between the two; one that keeps a few columns a subject
        # must grow by at most half that.
        import tracemalloc

        peaks = []
        # the first run, untraced, makes what any run makes once per process
        for subjects in (4096, 4096, 16384):
            document = config_document(mode, family, ("cohort", "subjects", str(subjects)))
            config = write_config(tmp_path, document, f"{subjects}.ini")
            if peaks:
                tracemalloc.start()
            try:
                code, err = run_in_process(mode, config, tmp_path / f"out{len(peaks)}", capsys)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, err
        per_subject = (peaks[2] - peaks[1]) / (16384 - 4096)
        assert per_subject <= held / 2, f"{per_subject:.1f} B a subject"


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "mode, family", [("abstract", f) for f in FAMILY_SETTINGS] + [("kinematic", None)]
    )
    def test_documents_are_valid_as_written(self, tmp_path, capsys, mode, family):
        config = write_config(tmp_path, config_document(mode, family))
        code, err = run_in_process(mode, config, tmp_path, capsys)
        assert code == 0, err

    @pytest.mark.parametrize(
        "mode, family, section, key, text",
        [(*k, text) for k in FLOAT_KEYS for text in ("inf", "-inf", "nan")]
        + [("kinematic", None, "kinematics", key, "1e308") for key in ROTATION_SD_KEYS]
        + [("kinematic", None, *case) for case in OUT_OF_RANGE]
        + [("abstract", *case) for case in ABSTRACT_OUT_OF_RANGE]
        # a grid this long would be allocated at parse time
        + [("kinematic", None, "sweep", "tau_steps", "1000000000000000")],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_rejected_with_key_named(self, tmp_path, capsys, mode, family, section, key, text):
        config = write_config(tmp_path, config_document(mode, family, (section, key, text)))
        code, err = run_in_process(mode, config, tmp_path, capsys)
        assert code == 2, err
        assert f"{section}.{key}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("row", ["inf,1", "0.3,inf", "0.3,nan", "nan,1", "0.3,-inf"])
    def test_histogram_rows_rejected_as_distribution_csv(self, tmp_path, capsys, row):
        text = RATIO_POINTMASS.replace(
            "family = point_mass\nalpha = 0.2", "family = histogram\ncsv = bins.csv"
        )
        config = write_config(tmp_path, text)
        (tmp_path / "bins.csv").write_text(f"bin_upper_edge,mass\n0.1,1\n{row}\n")
        code, err = run_in_process("abstract", config, tmp_path, capsys)
        assert code == 2, err
        assert "distribution.csv: non-finite row" in err


# Kinematic keys whose extremes would overflow the image-quality map:
# (key, a finite value past its bound, the bound itself).
QUALITY_SCALE_KEYS = (("translation_scale", "1e-308", "1e-6"), ("rotation_scale", "1e-308", "1e-6"))
TRANSLATION_SD_KEYS = tuple(
    (key, "1e308", "1e6") for key in ("start_offset_t", "guidance_noise_t", "motor_noise_t")
)


class TestKinematicBounds:
    @pytest.mark.parametrize(
        "key, text", [(key, past) for key, past, _ in QUALITY_SCALE_KEYS + TRANSLATION_SD_KEYS]
    )
    def test_past_bound_rejected_with_key_named(self, tmp_path, capsys, key, text):
        document = config_document("kinematic", replace=("kinematics", key, text))
        code, err = run_in_process("kinematic", write_config(tmp_path, document), tmp_path, capsys)
        assert code == 2, err
        assert f"kinematics.{key}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "quality_curve.csv").exists()

    def test_all_keys_at_their_bounds_give_finite_qualities(self, tmp_path, capsys):
        document = config_document("kinematic")
        for key, _, bound in QUALITY_SCALE_KEYS + TRANSLATION_SD_KEYS:
            document = re.sub(rf"^{key} = .*$", f"{key} = {bound}", document, flags=re.M)
        code, err = run_in_process("kinematic", write_config(tmp_path, document), tmp_path, capsys)
        assert code == 0, err
        rows = (tmp_path / "quality_curve.csv").read_text().splitlines()[2:]
        assert rows and all(math.isfinite(float(row.split(",")[1])) for row in rows)


def run_fresh(code, *argv, env=None):
    """Run ``code`` in a new interpreter; its last stdout line, parsed as JSON."""
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_scipy_and_process_pool_unloaded():
    # SciPy (scipy.special alone costs about 0.25 s and 19 MB on import) is
    # loaded only by the Beta family, ``statistics`` (about 3 ms and 0.5 MB,
    # with ``decimal`` and ``fractions``) only by a truncated normal's draws,
    # and the process pool only by a run on more than one worker.
    loaded = run_fresh(
        "import json, sys, scanloop.cli\n"
        "names = ('scipy', 'scipy.integrate', 'statistics', 'concurrent.futures.process')\n"
        "print(json.dumps([n for n in names if n in sys.modules]))"
    )
    assert loaded == []


def blas_env(**settings):
    """This process's environment without the variables OpenBLAS takes its
    thread count from, plus ``settings``."""
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    return {**{k: v for k, v in os.environ.items() if k not in names}, **settings}


# Imports the CLI, then loads SciPy, counting the process's threads after
# each, and reports them with the OpenBLAS setting left in the environment.
THREAD_COUNTS = (
    "import json, os\n"
    "import scanloop.cli\n"
    "from scanloop.alpha_distributions import _special\n"
    "counts = [len(os.listdir('/proc/self/task'))]\n"
    "_special()\n"
    "counts.append(len(os.listdir('/proc/self/task')))\n"
    "print(json.dumps([counts, os.environ.get('OPENBLAS_NUM_THREADS')]))"
)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
class TestBlasThreads:
    def test_cli_process_starts_no_blas_thread(self):
        # numpy's OpenBLAS and the one scipy.special loads would each start a
        # worker per CPU after the first.
        assert run_fresh(THREAD_COUNTS, env=blas_env()) == [[1, 1], "1"]

    def test_thread_count_set_by_the_user_is_kept(self):
        _, setting = run_fresh(THREAD_COUNTS, env=blas_env(OPENBLAS_NUM_THREADS="2"))
        assert setting == "2"


def test_package_import_leaves_numpy_unloaded():
    # Library users who import no CLI keep their own BLAS settings.
    code = "import json, sys, scanloop\nprint(json.dumps('numpy' in sys.modules))"
    assert run_fresh(code, env=blas_env()) is False


# Runs cli.main on each argv given as a JSON list, then reports the exit codes
# and whether SciPy was loaded before and after.
RUN_COMMANDS = (
    "import json, sys\n"
    "from scanloop.cli import main\n"
    "before = 'scipy' in sys.modules\n"
    "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
    "print(json.dumps([before, codes, 'scipy' in sys.modules]))"
)


def test_scipy_free_commands_leave_scipy_unloaded(tmp_path):
    sweep = "[sweep]\ntau_start = 0.2\ntau_stop = 0.8\ntau_steps = 3\n"
    kinematic = write_config(tmp_path, kinematic_config(subjects=20, extra=sweep), "kinematic.ini")
    (tmp_path / "bins.csv").write_text("bin_upper_edge,mass\n0.1,1\n0.3,1\n")
    histogram = RATIO_POINTMASS.replace(
        "family = point_mass\nalpha = 0.2", "family = histogram\ncsv = bins.csv"
    )
    uniform = RATIO_POINTMASS.replace(
        "family = point_mass\nalpha = 0.2", "family = uniform\nlo = 0.1\nhi = 0.3"
    )
    truncated_normal = RATIO_POINTMASS.replace(
        "family = point_mass\nalpha = 0.2",
        "family = truncated_normal\nmu = 0.2\nsigma = 0.1\nlo = 0.0\nhi = 0.6",
    )
    argvs = [
        ["guidance", "--config", str(kinematic)],
        ["sweep", "--config", str(kinematic)],
        ["table1"],
    ]
    for name, text in (
        ("point_mass", RATIO_POINTMASS),
        ("uniform", uniform),
        ("histogram", histogram),
        ("truncated_normal", truncated_normal),
    ):
        config = write_config(tmp_path, text, f"{name}.ini")
        argvs += [["ratio", "--config", str(config)], ["simulate", "--config", str(config)]]
    for k, argv in enumerate(argvs):
        argv += ["--out", str(tmp_path / f"out{k}")]
    before, codes, after = run_fresh(RUN_COMMANDS, json.dumps(argvs))
    assert codes == [0] * len(argvs)
    assert (before, after) == (False, False)


def test_beta_ratio_loads_scipy_and_writes_same_report(tmp_path):
    from scanloop.cli import main

    text = RATIO_POINTMASS.replace(
        "family = point_mass\nalpha = 0.2", "family = beta\na = 2\nb = 8"
    )
    config = write_config(tmp_path, text)
    argv = ["ratio", "--config", str(config), "--out", str(tmp_path / "fresh")]
    before, codes, after = run_fresh(RUN_COMMANDS, json.dumps([argv]))
    assert (before, codes, after) == (False, [0], True)
    assert main(["ratio", "--config", str(config), "--out", str(tmp_path / "here")]) == 0
    fresh = (tmp_path / "fresh" / "ratio.json").read_bytes()
    assert fresh == (tmp_path / "here" / "ratio.json").read_bytes()


REPO = Path(__file__).resolve().parent.parent


def readme_commands():
    """(arguments after ``scanloop``, the output files its README section names)
    for each ``scanloop`` line of the README's ``sh`` blocks, as test cases."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    commands = []
    for section in readme.split("\n### ")[1:]:
        files = sorted(set(re.findall(r"`(\w+\.(?:csv|json))`", section)))
        for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S):
            for line in block.splitlines():
                if line.startswith("scanloop "):
                    commands.append(pytest.param(shlex.split(line)[1:], files, id=line))
    return commands


README_COMMANDS = readme_commands()


def test_readme_documents_every_subcommand():
    documented = {case.values[0][0] for case in README_COMMANDS}
    assert documented == {"table1", "ratio", "simulate", "sweep", "guidance"}


@pytest.mark.parametrize(
    "argv, files",
    [
        *README_COMMANDS,
        pytest.param(
            ["simulate", "--config", "configs/abstract_beta.ini"],
            ["report.json", "subjects.csv"],
            id="scanloop simulate --config configs/abstract_beta.ini",
        ),
    ],
)
def test_readme_command_runs_as_shipped(tmp_path, monkeypatch, capsys, argv, files):
    # Shipped configs at their shipped sizes; only the output directory moves.
    from scanloop.cli import main

    if "--out" in argv:
        k = argv.index("--out")
        argv = argv[:k] + argv[k + 2 :]
    monkeypatch.chdir(REPO)
    code = main([*argv, "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert files
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_package_version_equals_the_project_version():
    # The manifest stamps outputs with __version__; pyproject.toml builds the package.
    from scanloop import __version__

    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]*)"$', pyproject, flags=re.M) == [__version__]
