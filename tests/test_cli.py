"""Command-line contract: schemas, exit codes, and reproducible outputs.

Every test drives cli.main in process and inspects the files it writes.
The output format is treated as frozen: header strings, metadata lines,
and byte-level reproducibility are asserted, not just parseability.
"""

import concurrent.futures
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsense import cli, simkit
from qsense.protocol import run_adaptive
from qsense.runconfig import load_adaptive_config


def read_csv(path):
    """Split one output CSV into (metadata dict, header line, row fields)."""
    meta, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return meta, header, rows


def write_adapt_config(path, **extra):
    doc = {
        "omega_true": 50.0,
        "omega0": 50.5,
        "delta_omega0": 0.5,
        "lambda": 0.1,
        "nbar": 1000.0,
        "max_steps": 10,
        "seed": 2026,
        "n_reps": 2,
    }
    doc.update(extra)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def with_value(path, key, value):
    """Rewrite a JSON config file with key set to value (inf, nan as Infinity, NaN)."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestFringes:
    def test_schema_and_anchor_rows(self, tmp_path):
        out = tmp_path / "fringes.csv"
        rc = cli.main(["fringes", "--points", "201", "--zeta-min", "-2.5",
                       "--zeta-max", "2.5", "--out", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert header == "zeta,k_over_n,g_finite,g_universal"
        assert meta["command"] == "fringes"
        assert meta["n_units"] == "50"
        assert len(rows) == 201
        table = np.array(rows, dtype=float)
        zeta = table[:, 0]
        k_over_n = table[:, 1]
        assert k_over_n[np.argmin(np.abs(zeta))] == pytest.approx(1.0, abs=1e-12)
        for node in (-2.0, -1.0, 1.0, 2.0):
            assert k_over_n[np.argmin(np.abs(zeta - node))] <= 1e-10

    def test_missing_out_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fringes"])
        assert exc.value.code == 2

    def test_unwritable_path_exits_3(self, tmp_path):
        rc = cli.main(["fringes", "--points", "10",
                       "--out", str(tmp_path / "no-such-dir" / "x.csv")])
        assert rc == 3

    @pytest.mark.parametrize("args", [
        ["--n-units", "1"],
        ["--zeta-min", "5", "--zeta-max", "1"],
        ["--points", "1"],
        ["--n-units", "5", "--zeta-max", "6"],
    ], ids=["one-unit", "reversed-range", "one-point", "zeta-beyond-n-units"])
    def test_bad_arguments_exit_2_and_write_nothing(self, tmp_path, capsys, args):
        rc = cli.main(["fringes", *args, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == []

    def test_zero_units_exits_2_without_warnings(self, tmp_path, capsys, recwarn):
        # n_units is checked before it divides the zeta axis; outside pytest
        # a numpy warning would reach stderr ahead of the config error
        rc = cli.main(["fringes", "--n-units", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: n_units must be >= 1, got 0"]
        assert [str(w.message) for w in recwarn] == []
        assert list(tmp_path.iterdir()) == []


class TestGsq:
    def test_values_and_summary(self, tmp_path):
        out = tmp_path / "gsq.csv"
        rc = cli.main(["gsq", "--min", "0.1", "--max", "10", "--points", "5",
                       "--fit-min", "0.1", "--fit-max", "10", "--out", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert header == "delta_zeta,g_sq_mean"
        assert meta["command"] == "gsq"
        assert len(rows) == 5
        table = np.array(rows, dtype=float)
        # logspace(-1, 1, 5) places delta_zeta = 1 at the center row
        assert table[2, 0] == pytest.approx(1.0, rel=1e-12)
        assert table[2, 1] == pytest.approx(0.6980, abs=1e-3)

        summary = json.loads((tmp_path / "gsq_summary.json").read_text())
        assert summary["command"] == "gsq"
        assert summary["fit_window"] == [0, 4]
        assert summary["n_points_in_fit"] == 5
        assert np.isfinite(summary["slope"])

    def test_summary_path_override(self, tmp_path):
        out = tmp_path / "scan.csv"
        custom = tmp_path / "other.json"
        rc = cli.main(["gsq", "--min", "0.1", "--max", "10", "--points", "5",
                       "--fit-min", "0.1", "--fit-max", "10",
                       "--out", str(out), "--summary", str(custom)])
        assert rc == 0
        assert custom.exists()
        assert not (tmp_path / "scan_summary.json").exists()

    def test_summary_beside_output_in_dotted_directory(self, tmp_path):
        out_dir = tmp_path / "res.d"
        out_dir.mkdir()
        rc = cli.main(["gsq", "--min", "0.1", "--max", "10", "--points", "5",
                       "--fit-min", "0.1", "--fit-max", "10", "--out", str(out_dir / "gsq")])
        assert rc == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["gsq", "gsq_summary.json"]
        assert not (tmp_path / "res_summary.json").exists()

    def test_bad_range_exits_2(self, tmp_path, capsys):
        rc = cli.main(["gsq", "--min", "5", "--max", "1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--min", "0.1", "--max", "10", "--points", "5", "--fit-min", "9", "--fit-max", "9.5"],
        ["--fit-min", "2000", "--fit-max", "3000"],
        ["--points", "1"],
        # log10 of the two ends is equal, so the scan repeats delta_zeta = 1
        ["--min", "1", "--max", "1.0000000000000004", "--points", "5",
         "--fit-min", "1", "--fit-max", "2"],
    ], ids=["empty-fit-window", "fit-window-beyond-scan", "one-point", "range-below-float-step"])
    def test_bad_arguments_exit_2_and_write_nothing(self, tmp_path, capsys, args):
        rc = cli.main(["gsq", *args, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command,flag", [
    ("fringes", "--zeta-min"), ("fringes", "--zeta-max"), ("gsq", "--min"),
    ("gsq", "--max"), ("gsq", "--fit-min"), ("gsq", "--fit-max"),
])
def test_non_finite_float_flag_exits_2_without_warnings(tmp_path, capsys, recwarn,
                                                        command, flag, value):
    # rejected where it enters, in the config-file wording; outside pytest
    # a numpy warning from the scan would reach stderr ahead of it
    rc = cli.main([command, f"{flag}={value}", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {flag}: expected a finite number, got {value}"]
    assert [str(w.message) for w in recwarn] == []
    assert list(tmp_path.iterdir()) == []


class TestAdapt:
    def test_outputs_schema(self, tmp_path):
        cfg = write_adapt_config(tmp_path / "cfg.json")
        prefix = tmp_path / "run"
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(prefix)])
        assert rc == 0

        meta, header, rows = read_csv(tmp_path / "run_steps.csv")
        assert header == ("step,stage,n_units,tau,nu,mean_time,"
                          "mean_delta_omega,mean_zeta,mean_scaled_alpha")
        assert meta["command"] == "adapt"
        assert meta["nbar"] == "1000.0"
        assert meta["lambda"] == "0.1"
        assert len(rows) == 10
        assert all(r[1] == "2" for r in rows)
        assert [r[0] for r in rows] == [str(i) for i in range(10)]

        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["command"] == "adapt"
        assert summary["n_common_steps"] == 10
        assert summary["config"]["lambda"] == 0.1
        assert summary["config"]["n_reps"] == 2
        assert summary["config"]["seed"] == 2026
        assert summary["final_mean_delta_omega"] == float(rows[-1][6])
        assert summary["final_mean_time"] == float(rows[-1][5])
        lo, hi = summary["fit_window"]
        assert 0 <= lo <= hi == 9

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_adapt_config(tmp_path / "cfg.json")
        for run in ("a", "b"):
            rc = cli.main(["adapt", "--config", str(cfg),
                           "--out-prefix", str(tmp_path / run)])
            assert rc == 0
        assert ((tmp_path / "a_steps.csv").read_bytes()
                == (tmp_path / "b_steps.csv").read_bytes())
        assert ((tmp_path / "a_summary.json").read_bytes()
                == (tmp_path / "b_summary.json").read_bytes())

    def test_flag_overrides_beat_file_values(self, tmp_path):
        cfg = write_adapt_config(tmp_path / "cfg.json")
        prefix = tmp_path / "o"
        rc = cli.main(["adapt", "--config", str(cfg), "--reps", "1",
                       "--seed", "999", "--out-prefix", str(prefix)])
        assert rc == 0
        summary = json.loads((tmp_path / "o_summary.json").read_text())
        assert summary["config"]["n_reps"] == 1
        assert summary["config"]["seed"] == 999

    def test_posterior_snapshot(self, tmp_path):
        cfg = write_adapt_config(tmp_path / "cfg.json")
        snap = tmp_path / "posterior.csv"
        rc = cli.main(["adapt", "--config", str(cfg),
                       "--out-prefix", str(tmp_path / "s"),
                       "--snapshot-posterior", str(snap)])
        assert rc == 0
        _, header, rows = read_csv(snap)
        assert header == "omega,weight"
        table = np.array(rows, dtype=float)
        assert np.all(np.diff(table[:, 0]) > 0)
        assert np.all(table[:, 1] >= 0)
        assert table[:, 1].sum() == pytest.approx(1.0, abs=1e-9)

    def test_snapshot_is_the_pooled_rep0_posterior(self, tmp_path):
        cfg_path = write_adapt_config(tmp_path / "cfg.json", n_reps=3)
        snap = tmp_path / "posterior.csv"
        rc = cli.main(["adapt", "--config", str(cfg_path), "--threads", "2",
                       "--out-prefix", str(tmp_path / "p"),
                       "--snapshot-posterior", str(snap)])
        assert rc == 0
        meta, _, rows = read_csv(snap)
        assert meta["seed"] == "2026"
        table = np.array(rows, dtype=float)
        cfg, _ = load_adaptive_config(str(cfg_path))
        post = run_adaptive(cfg).final_posterior
        assert np.array_equal(table[:, 0], post.grid)
        assert np.array_equal(table[:, 1], post.weights)

    def test_abort_names_first_rep_and_diagnostic(self, tmp_path, monkeypatch, capsys):
        real = simkit.run_adaptive

        def aborting(cfg, rng=None):
            traj = real(cfg, rng)
            if cfg.seed == 2027:
                return dataclasses.replace(traj, aborted=True,
                                           diagnostic="non-finite estimate at step 4: stub")
            return traj

        monkeypatch.setattr(simkit, "run_adaptive", aborting)
        cfg = write_adapt_config(tmp_path / "cfg.json", n_reps=3)
        rc = cli.main(["adapt", "--config", str(cfg), "--threads", "1",
                       "--out-prefix", str(tmp_path / "a")])
        assert rc == 4
        err = capsys.readouterr().err
        assert ("adapt: 1 repetitions aborted; first, rep 1: "
                "non-finite estimate at step 4: stub") in err

    def test_abort_at_step_zero_is_reported(self, tmp_path, monkeypatch, capsys):
        real = simkit.run_adaptive

        def aborting(cfg, rng=None):
            traj = real(cfg, rng)
            if cfg.seed == 2027:
                # an abort at step 0 leaves every column empty
                empty = {name: column[:0] for name, column in traj.columns.items()}
                return dataclasses.replace(traj, columns=empty, aborted=True,
                                           diagnostic="non-finite estimate at step 0: stub")
            return traj

        monkeypatch.setattr(simkit, "run_adaptive", aborting)
        cfg = write_adapt_config(tmp_path / "cfg.json", n_reps=3)
        rc = cli.main(["adapt", "--config", str(cfg), "--threads", "1",
                       "--out-prefix", str(tmp_path / "a")])
        assert rc == 4
        err = capsys.readouterr().err
        assert ("adapt: 1 repetitions aborted; first, rep 1: "
                "non-finite estimate at step 0: stub") in err

    def test_grid_beyond_float64_is_reported(self, tmp_path, capsys):
        # both reps outrun float64's resolution of omega before step 800
        cfg = write_adapt_config(tmp_path / "cfg.json", nbar=10.0, max_steps=800, seed=100000)
        rc = cli.main(["adapt", "--config", str(cfg), "--threads", "1",
                       "--out-prefix", str(tmp_path / "a")])
        assert rc == 4
        err = capsys.readouterr().err
        assert ("numerical failure: all 2 repetitions aborted; "
                "rep 0: grid beyond float64 resolution at step ") in err
        assert not list(tmp_path.glob("a_*"))

    def test_shot_count_beyond_int64_is_reported(self, tmp_path, capsys):
        # stage (i) plans about 3.5e19 shots at step 0 of every rep
        cfg = write_adapt_config(tmp_path / "cfg.json", nbar=0.0, **{"lambda": 1e-11})
        rc = cli.main(["adapt", "--config", str(cfg), "--threads", "1",
                       "--out-prefix", str(tmp_path / "a")])
        assert rc == 4
        err = capsys.readouterr().err
        got = re.search(r"numerical failure: all 2 repetitions aborted; rep 0: shot count "
                        r"beyond int64 at step 0: the stage 1 plan asks for nu=(\d+) shots", err)
        assert got and int(got.group(1)) > 2**63 - 1
        assert not list(tmp_path.glob("a_*"))

    @pytest.mark.filterwarnings("ignore:resolution-limited posterior:UserWarning")
    def test_window_reaching_omega_zero_is_reported(self, tmp_path, capsys):
        # rep 0 regrids onto a window below omega = 0 at step 10, rep 1 not by step 12
        cfg = write_adapt_config(tmp_path / "cfg.json", omega_true=0.06, omega0=1.0,
                                 delta_omega0=0.12, nbar=10.0, span_sigmas=7.5,
                                 max_steps=12, seed=12345)
        rc = cli.main(["adapt", "--config", str(cfg), "--threads", "1",
                       "--out-prefix", str(tmp_path / "a")])
        assert rc == 4
        err = capsys.readouterr().err
        assert ("adapt: 1 repetitions aborted; first, rep 0: "
                "grid reaches omega <= 0 at step 10: the window ") in err
        assert "numerical failure" not in err
        assert not list(tmp_path.glob("a_*"))

    @pytest.mark.parametrize("extra", [
        {"max_steps": 1}, {"max_steps": 2},
    ], ids=["one-step", "two-steps"])
    def test_fewer_than_three_steps_has_no_slope(self, tmp_path, extra):
        cfg = write_adapt_config(tmp_path / "cfg.json", **extra)
        rc = cli.main(["adapt", "--config", str(cfg), "--threads", "1",
                       "--out-prefix", str(tmp_path / "s")])
        assert rc == 0
        summary = json.loads((tmp_path / "s_summary.json").read_text())
        assert summary["n_common_steps"] < 3
        assert summary["fit_slope"] is None and summary["fit_window"] is None
        _, _, rows = read_csv(tmp_path / "s_steps.csv")
        assert len(rows) == summary["n_common_steps"]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_adapt_config(tmp_path / "cfg.json", omega_ture=50.0)
        rc = cli.main(["adapt", "--config", str(cfg),
                       "--out-prefix", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: omega_ture: unknown key" in err

    def test_regrid_threshold_is_an_unknown_key(self, tmp_path, capsys):
        # the regrid thresholds are protocol constants, not config fields
        cfg = write_adapt_config(tmp_path / "cfg.json", regrid_trigger_spacings=20.0)
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: regrid_trigger_spacings: unknown key"]
        assert not (tmp_path / "x_steps.csv").exists()

    @pytest.mark.parametrize("key,value", [
        ("c_i", 0.1), ("kappa_i", 2.0), ("c", 0.1), ("kappa", 2.0),
        ("target_precision", 1e-3), ("max_total_time", 2000.0), ("fit_tail_fraction", 0.6),
        ("out_prefix", "x"),
    ])
    def test_removed_knob_is_an_unknown_key(self, tmp_path, capsys, key, value):
        # schedule constants and the fit tail are constants; the stopping rules
        # are gone; the output prefix is the --out-prefix flag only
        cfg = write_adapt_config(tmp_path / "cfg.json", **{key: value})
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {key}: unknown key"]
        assert not list(tmp_path.glob("x*"))

    def test_fit_tail_flag_is_a_usage_error(self, tmp_path):
        cfg = write_adapt_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["adapt", "--config", str(cfg), "--fit-tail", "0.5",
                      "--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not list(tmp_path.glob("x*"))

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"A minimal adapt config.*?```json\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.json"
        path.write_text(block.group(1), encoding="utf-8")
        cfg, resolved = load_adaptive_config(str(path))
        assert (cfg.nbar, cfg.max_steps, resolved["n_reps"]) == (10.0, 250, 500)
        # every accepted key, under its file name, with the default where unset
        assert resolved == {**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                               if f.name != "lam"}, "lambda": 0.1, "n_reps": 500}
        assert resolved["span_sigmas"] == 8.0 and resolved["n_points"] == 4096

    def test_yaml_config_exits_2(self, tmp_path, capsys):
        # the minimal config as YAML, the format configs were read in before JSON
        cfg = tmp_path / "run.yaml"
        cfg.write_text("omega_true: 50.0\nomega0: 50.5\ndelta_omega0: 0.5\nlambda: 0.1\n"
                       "nbar: 10.0\nseed: 12345\nmax_steps: 250\nn_reps: 500\n",
                       encoding="utf-8")
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "y")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: malformed config file: ")
        assert not list(tmp_path.glob("y*"))

    def test_runs_without_pyyaml(self, tmp_path):
        cfg = write_adapt_config(tmp_path / "cfg.json")
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import sys; sys.modules['yaml'] = None; from qsense import cli; "
                "sys.exit(cli.main(sys.argv[1:]))")
        # the caller's environment is kept, PYTHONDONTWRITEBYTECODE with it
        proc = subprocess.run([sys.executable, "-c", code, "adapt", "--config", str(cfg),
                               "--threads", "1", "--out-prefix", str(tmp_path / "n")],
                              env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "n_summary.json").exists()

    @pytest.mark.parametrize("seed", [9007199254740993, 12345678901234567, 2**64 - 1,
                                      2**64, 2**70])
    def test_integer_seed_is_exact(self, tmp_path, seed):
        # any nonnegative integer seeds the ensemble; rep 1 runs seed + 1
        path = write_adapt_config(tmp_path / "cfg.json", seed=seed)
        assert load_adaptive_config(str(path))[0].seed == seed
        rc = cli.main(["adapt", "--config", str(path), "--seed", str(seed), "--threads", "1",
                       "--out-prefix", str(tmp_path / "e")])
        assert rc == 0
        assert json.loads((tmp_path / "e_summary.json").read_text())["config"]["seed"] == seed
        assert read_csv(tmp_path / "e_steps.csv")[0]["seed"] == str(seed)

    @pytest.mark.parametrize("key,value", [("lambda", "0.1"), ("seed", "12345")])
    def test_quoted_number_exits_2(self, tmp_path, capsys, key, value):
        # a config value is a JSON number, never a string that spells one
        cfg = write_adapt_config(tmp_path / "cfg.json", **{key: value})
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "q")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key}: expected a number, got {value!r}"]
        assert not list(tmp_path.glob("q*"))

    def test_non_integral_seed_exits_2(self, tmp_path, capsys):
        cfg = write_adapt_config(tmp_path / "cfg.json", seed=2026.5)
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: seed: expected an integer, got 2026.5"]

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega_true": 50.0}), encoding="utf-8")
        rc = cli.main(["adapt", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nbar: required key missing" in err
        assert "lambda: required key missing" in err

    def test_missing_config_file_exits_3(self, tmp_path):
        rc = cli.main(["adapt", "--config", str(tmp_path / "absent.json")])
        assert rc == 3

    def test_threads_env_is_ignored(self, tmp_path, monkeypatch):
        # the worker count comes from --threads or the usable CPU count only
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(simkit, "_usable_cpus", lambda: 3)
        monkeypatch.setenv("QSENSE_THREADS", "1")
        cfg = write_adapt_config(tmp_path / "cfg.json")
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "t")])
        assert rc == 0
        assert sizes == [2]

    def test_malformed_threads_env_is_ignored(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QSENSE_THREADS", "abc")
        cfg = write_adapt_config(tmp_path / "cfg.json")
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "t")])
        assert rc == 0
        assert "QSENSE_THREADS" not in capsys.readouterr().err
        assert (tmp_path / "t_steps.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"], ids=["threads-0", "threads-negative"])
    def test_worker_count_below_one_exits_2(self, tmp_path, capsys, threads):
        cfg = write_adapt_config(tmp_path / "cfg.json")
        rc = cli.main(["adapt", "--config", str(cfg), "--threads", threads,
                       "--out-prefix", str(tmp_path / "t")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: threads: expected a worker count >= 1, got {threads}"]
        assert not (tmp_path / "t_steps.csv").exists()

    @pytest.mark.parametrize("content", [b"omega_true: [50.0\nnbar: 10\n",
                                         b"omega_true: 50.0\nnbar: 1\xff0\n",
                                         b'{"seed": ' + b"1" * 5000 + b"}"],
                             ids=["malformed-yaml", "not-utf8", "integer-beyond-digit-limit"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "u")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: malformed config file: ")
        assert not list(tmp_path.glob("u*"))

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        # json.load keeps the last of two values; the config rejects the pair
        cfg = write_adapt_config(tmp_path / "cfg.json")
        cfg.write_text(cfg.read_text(encoding="utf-8")
                       .replace('"nbar": 1000.0', '"nbar": 10.0, "nbar": 1000.0'),
                       encoding="utf-8")
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "d")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: nbar: key set more than once"]
        assert not list(tmp_path.glob("d*"))

    @pytest.mark.parametrize("key,value", [
        ("lambda", math.inf), ("nbar", math.nan), ("seed", math.inf),
        # an integer literal that float64 cannot hold counts as non-finite
        pytest.param("nbar", 10**400, id="nbar-int-beyond-float"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = with_value(write_adapt_config(tmp_path / "cfg.json"), key, value)
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "n")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {key}: expected a finite number, got {value!r}"]
        assert not (tmp_path / "n_steps.csv").exists()

    def test_out_of_range_value_names_the_file_key(self, tmp_path, capsys):
        cfg = write_adapt_config(tmp_path / "cfg.json", **{"lambda": -0.1})
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: lambda must be positive, got -0.1"]
        assert not (tmp_path / "r_steps.csv").exists()

    @pytest.mark.parametrize("nbar", [1.0e308, 5.0e307])
    def test_nbar_beyond_float_range_exits_2(self, tmp_path, capsys, recwarn, nbar):
        # finite, but the contrast's factor -2*(2*nbar+1) would be -inf
        cfg = write_adapt_config(tmp_path / "cfg.json", nbar=nbar)
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "b")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: nbar must keep 2*(2*nbar+1) finite, got {nbar}"]
        assert [str(w.message) for w in recwarn] == []
        assert not list(tmp_path.glob("b*"))

    def test_coupling_beyond_float_range_exits_2(self, tmp_path, capsys, recwarn):
        # finite, but the contrast exponent 2*(2*nbar+1)*alpha**2 would overflow
        cfg = write_adapt_config(tmp_path / "cfg.json", nbar=10.0, **{"lambda": 1.0e200})
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "lam")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: lambda must keep the contrast exponent ")
        assert err[0].endswith(" at nbar 10.0, got 1e+200")
        assert [str(w.message) for w in recwarn] == []
        assert not list(tmp_path.glob("lam*"))

    @pytest.mark.parametrize("omega0,delta_omega0", [
        # just beyond the bound at span_sigmas 8, where 8*delta_omega0 squared overflows
        (1.01e156, math.sqrt(sys.float_info.max) / 8.0 * (1 + 1e-12)),
        (1.01e156, 5e153),   # only the prior's numpy square would overflow
        (1.01e160, 1e158),   # the Python square of delta_omega0 would raise
    ])
    def test_prior_exponent_beyond_float_range_exits_2(self, tmp_path, capsys, recwarn,
                                                       omega0, delta_omega0):
        cfg = write_adapt_config(tmp_path / "cfg.json", omega_true=omega0 / 1.01, omega0=omega0,
                                 delta_omega0=delta_omega0)
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: delta_omega0 must keep the prior's exponent "
                                 "finite: ")
        assert err[0].endswith(f" at span_sigmas 8.0, got {delta_omega0}")
        assert [str(w.message) for w in recwarn] == []
        assert not list(tmp_path.glob("p*"))

    @pytest.mark.parametrize("span_sigmas", [1e-17, 1e-300])
    def test_prior_grid_without_width_exits_2(self, tmp_path, capsys, span_sigmas):
        # omega0 -+ span_sigmas*delta_omega0 round to the same float64
        cfg = write_adapt_config(tmp_path / "cfg.json", span_sigmas=span_sigmas)
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "w")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: span_sigmas leaves the prior grid no width in float64: need "
            "omega0 - span_sigmas*delta_omega0 < omega0 + span_sigmas*delta_omega0, "
            "got [50.5, 50.5]"]
        assert not list(tmp_path.glob("w*"))

    def test_prior_grid_beyond_float64_exits_2(self, tmp_path, capsys):
        # the prior window 50 +- 8e-14 holds about 23 distinct float64 nodes
        omega0 = 50 + 1e-14
        cfg = write_adapt_config(tmp_path / "cfg.json", omega0=omega0, delta_omega0=1e-14,
                                 nbar=10.0, max_steps=20)
        rc = cli.main(["adapt", "--config", str(cfg), "--out-prefix", str(tmp_path / "f")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: prior grid beyond float64 resolution: the window {omega0} +- "
            "8e-14 holds fewer than 4096 distinct nodes"]
        assert not list(tmp_path.glob("f*"))

    def test_prior_grid_below_zero_exits_2(self, tmp_path, capsys):
        cfg = write_adapt_config(tmp_path / "cfg.json", omega_true=1.0, omega0=1.0,
                                 delta_omega0=0.5, nbar=0.0)
        rc = cli.main(["adapt", "--config", str(cfg),
                       "--out-prefix", str(tmp_path / "z")])
        assert rc == 2
        assert "config error: prior grid must stay above omega = 0" in capsys.readouterr().err


class TestCompare:
    OMEGA = 2 * np.pi * 1e8
    LAM = 2 * np.pi * 1e3

    def write_config(self, path):
        path.write_text(json.dumps({
            "omega": self.OMEGA, "lambda": self.LAM, "t2": 1e-3,
        }), encoding="utf-8")
        return path

    def test_stdout_report(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path / "cmp.json")
        rc = cli.main(["compare", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "compare"
        assert doc["config"]["lambda"] == self.LAM
        assert "lam" not in doc["config"]
        assert "lam" not in doc["report"]
        assert doc["report"]["sensitivity_gain"] == pytest.approx(2e5, rel=1e-12)
        assert doc["report"]["time_cost_ratio"] == pytest.approx(
            self.OMEGA / self.LAM, rel=1e-12)

    def test_out_file_and_overrides(self, tmp_path):
        cfg = with_value(self.write_config(tmp_path / "cmp.json"), "k_factor", 4)
        out = tmp_path / "report.json"
        rc = cli.main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["k_factor"] == 4.0
        assert doc["report"]["time_cost_ratio"] == pytest.approx(
            2 * self.OMEGA / self.LAM, rel=1e-12)

    def test_report_holds_only_computed_values(self, tmp_path, capsys):
        # the inputs are stated once, under "config"
        cfg = self.write_config(tmp_path / "cmp.json")
        rc = cli.main(["compare", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["report"]) == ["lambda_tilde", "sensitivity_controlled",
                                         "sensitivity_free", "sensitivity_gain",
                                         "time_cost_ratio"]
        assert doc["config"] == {"omega": self.OMEGA, "lambda": self.LAM, "nbar": 0.0,
                                 "t2": 1e-3, "k_factor": 1.0}

    @pytest.mark.parametrize("flag", ["--t2", "--k-factor"])
    def test_value_flag_is_a_usage_error(self, tmp_path, flag):
        # compare's values come from the config file only
        cfg = self.write_config(tmp_path / "cmp.json")
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare", "--config", str(cfg), flag, "4", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("lambda", math.inf), ("nbar", math.nan)])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = with_value(self.write_config(tmp_path / "cmp.json"), key, value)
        out = tmp_path / "report.json"
        rc = cli.main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {key}: expected a finite number, got {value!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("values,problems", [
        ({"omega": -50.0}, ["omega must be positive, got -50.0"]),
        ({"nbar": -2.0}, ["nbar must be nonnegative, got -2.0"]),
        ({"k_factor": 0}, ["k_factor must be positive, got 0.0"]),
        ({"lambda": -1.0, "t2": 0}, ["lambda must be positive, got -1.0",
                                     "t2 must be positive, got 0.0"]),
        # the outcome law's nbar bound, as for adapt
        ({"nbar": 1e308}, ["nbar must keep 2*(2*nbar+1) finite, got 1e+308"]),
    ], ids=["negative-omega", "negative-nbar", "zero-k-factor", "negative-lambda-zero-t2",
            "nbar-overflow"])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, values, problems):
        cfg = self.write_config(tmp_path / "cmp.json")
        for key, value in values.items():
            with_value(cfg, key, value)
        out = tmp_path / "report.json"
        rc = cli.main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {p}" for p in problems]
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"omega: {1.0\n", b"omega: 1.0\nt2: \xfe\n"],
                             ids=["malformed-yaml", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "cmp.json"
        cfg.write_bytes(content)
        out = tmp_path / "report.json"
        rc = cli.main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: malformed config file: ")
        assert not out.exists()

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.json"
        cfg.write_text('{"omega": 1.0, "lambda": 0.1, "t2": 1.0, "lambda": 0.2}', encoding="utf-8")
        out = tmp_path / "report.json"
        rc = cli.main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: lambda: key set more than once"]
        assert not out.exists()

    @pytest.mark.parametrize("values", [
        {"omega": 100.0, "lambda": 1.0, "t2": 1e-300},
        {"omega": 1e300, "lambda": 1e-300, "t2": 1.0},
        {"omega": 100.0, "lambda": 1.0, "t2": 1e250},
    ], ids=["t2-underflow", "ratio-overflow", "t2-overflow"])
    def test_report_beyond_float_range_exits_4(self, tmp_path, capsys, recwarn, values):
        # each input is finite and in range, but the report would hold inf or nan
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps(values), encoding="utf-8")
        out = tmp_path / "report.json"
        rc = cli.main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        assert [str(w.message) for w in recwarn] == []
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "omega": 1.0, "lambda": 0.1, "t2": 1.0, "qfactor": 3,
        }), encoding="utf-8")
        rc = cli.main(["compare", "--config", str(cfg)])
        assert rc == 2
        assert "qfactor: unknown key" in capsys.readouterr().err
