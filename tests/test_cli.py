"""End-to-end tests of the command-line surface and its exit codes."""

import argparse
import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gcpnet
from gcpnet import cli
from gcpnet import data as dat


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolveA:
    def test_single_alpha_row(self, capsys):
        assert cli.main(["solve-a", "--alpha", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("alpha,")
        cells = lines[1].split(",")
        assert abs(float(cells[4])) < 1e-10

    def test_grid_monotone(self, capsys, tmp_path):
        assert cli.main(["solve-a", "--grid", "0.1:20:100",
                         "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "solve_a.csv")
        assert len(rows) == 100
        a_col = [float(r[header.index("a_value")]) for r in rows]
        assert all(b > a for a, b in zip(a_col, a_col[1:]))
        assert (tmp_path / "manifest.json").exists()

    def test_negative_alpha_is_usage_error(self):
        assert cli.main(["solve-a", "--alpha", "-1"]) == 2

    @pytest.mark.parametrize("flags", [["--alpha", "inf"],
                                       ["--grid", "1:inf:3"],
                                       ["--grid", "-inf:1:3"]])
    def test_infinite_alpha_is_usage_error(self, flags, capsys):
        assert cli.main(["solve-a", *flags]) == 2
        assert "nan" not in capsys.readouterr().out

    def test_alpha_and_grid_together_rejected(self):
        assert cli.main(["solve-a", "--alpha", "1", "--grid", "1:2:3"]) == 2

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 2


class TestTrain:
    def test_synthetic_smoke_emits_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", "synthetic", "--epochs", "25", "--n", "120",
                         "--test-n", "40", "--seed", "1",
                         "--out", str(out)]) == 0
        for name in ("checkpoint.json", "metrics.json", "rejection.csv",
                     "predictions.csv", "manifest.json"):
            assert (out / name).exists()
        header, rows = read_csv(out / "predictions.csv")
        assert header == ["x_hash", "mean", "v_p", "v_st", "alpha"]
        assert len(rows) == 40
        # heavy-tailed variance column may carry the infinity sentinel
        for row in rows:
            float(row[2])
            float(row[3])
        summary = json.loads((out / "metrics.json").read_text())
        assert set(summary) == {"rmse", "auc", "n_samples"}
        assert summary["n_samples"] == 40

    def test_identical_invocations_identical_metrics(self, tmp_path):
        argv = ["train", "synthetic", "--epochs", "20", "--n", "100",
                "--test-n", "30", "--seed", "9"]
        assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "metrics.json").read_bytes()
                == (tmp_path / "b" / "metrics.json").read_bytes())
        assert ((tmp_path / "a" / "predictions.csv").read_bytes()
                == (tmp_path / "b" / "predictions.csv").read_bytes())

    def test_preset_resolution_lands_in_manifest(self, tmp_path):
        out = tmp_path / "run"
        # preset epochs would be slow; --epochs overrides, the rest stick
        assert cli.main(["train", "synthetic", "--preset", "boston-gcp",
                         "--epochs", "5", "--n", "60", "--test-n", "20",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["learning_rate"] == 1e-4
        assert cfg["dropout"] == 0.3
        assert cfg["batch_size"] == 5
        assert cfg["epochs"] == 5

    def test_every_setting_flag_lands_in_manifest(self, tmp_path):
        flags = {"--lr": ("learning_rate", "0.002"),
                 "--dropout": ("dropout", "0.1"),
                 "--epochs": ("epochs", "1"),
                 "--batch-size": ("batch_size", "10"),
                 "--hidden": ("hidden", "4"), "--seed": ("seed", "3"),
                 "--n": ("n", "40"), "--test-n": ("test_n", "20"),
                 "--train-fraction": ("train_fraction", "0.9"),
                 "--contamination": ("contamination", "0.05"),
                 "--outlier-prob": ("outlier_prob", "0.01"),
                 "--members": ("members", "2")}
        assert sorted(key for key, _ in flags.values()) == sorted(
            cli.TRAIN_DEFAULTS)
        argv = ["train", "synthetic", "--out", str(tmp_path)]
        for flag, (_, value) in flags.items():
            argv += [flag, value]
        assert cli.main(argv) == 0
        cfg = json.loads((tmp_path / "manifest.json").read_text())["config"]
        for key, value in flags.values():
            kind = type(cli.TRAIN_DEFAULTS[key])
            assert type(cfg[key]) is kind and cfg[key] == kind(value), key

    def test_preset_table_matches_protocol(self):
        assert cli.PRESETS["boston-gcp"] == {
            "learning_rate": 1e-4, "dropout": 0.3, "epochs": 700,
            "batch_size": 5}
        assert cli.PRESETS["power-gcp"]["batch_size"] == 10
        assert cli.PRESETS["kin8nm-gcp"]["learning_rate"] == 7e-4
        assert cli.PRESETS["yacht-gcp"]["epochs"] == 1000

    def test_baseline_and_ensemble_flags(self, tmp_path):
        out_b = tmp_path / "base"
        assert cli.main(["train", "synthetic", "--baseline", "--epochs", "15",
                         "--n", "80", "--test-n", "20",
                         "--out", str(out_b)]) == 0
        ckpt = json.loads((out_b / "checkpoint.json").read_text())
        assert ckpt["kind"] == "gaussian"
        header, rows = read_csv(out_b / "predictions.csv")
        assert all(math.isnan(float(r[4])) for r in rows)

        out_e = tmp_path / "ens"
        assert cli.main(["train", "synthetic", "--ensemble", "--members", "2",
                         "--epochs", "10", "--n", "60", "--test-n", "20",
                         "--out", str(out_e)]) == 0
        ckpt = json.loads((out_e / "checkpoint.json").read_text())
        assert ckpt["kind"] == "ensemble"
        assert len(ckpt["members"]) == 2

    def test_csv_dataset_roundtrip(self, tmp_path):
        ds = dat.generate_synthetic(dat.SyntheticSpec(n=120, seed=4))
        path = tmp_path / "toy.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "y"])
            for x, y in zip(ds.features[:, 0].tolist(), ds.targets.tolist()):
                writer.writerow([repr(x), repr(y)])
        out = tmp_path / "run"
        assert cli.main(["train", str(path), "--epochs", "15",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["source"] == str(path)

    def test_malformed_csv_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n1,zap\n")
        assert cli.main(["train", str(bad), "--epochs", "5",
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bad.csv:3" in err and "zap" in err

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 8, "seed": 17}))
        out = tmp_path / "run"
        assert cli.main(["train", "synthetic", "--config", str(cfg),
                         "--n", "60", "--test-n", "20",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 8
        assert manifest["config"]["seed"] == 17

    def test_config_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rat": 1.0}))
        assert cli.main(["train", "synthetic", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("overrides", [
        {"members": "3"}, {"learning_rate": None}, {"epochs": 2.7},
        ["epochs", 8]])
    def test_config_rejects_mistyped_values(self, tmp_path, capsys,
                                            overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        out = tmp_path / "o"
        assert cli.main(["train", "synthetic", "--config", str(cfg),
                         "--n", "60", "--test-n", "20", "--epochs", "1",
                         "--out", str(out)]) == 2
        assert "config" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_hidden_below_one_is_usage_error(self, tmp_path, capsys, how):
        argv = ["train", "synthetic", "--epochs", "2", "--n", "40",
                "--out", str(tmp_path / "o")]
        if how == "flag":
            argv += ["--hidden", "0"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"hidden": 0}))
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == 2
        assert "hidden" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_divergent_training_exits_numeric(self, tmp_path):
        # a step this size overflows the heads, so the next loss is non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["train", "synthetic", "--lr", "1e308",
                             "--epochs", "40", "--n", "60", "--test-n", "20",
                             "--out", str(tmp_path / "o")])
        assert code == 3


class TestDynamics:
    def test_equilibrium_json(self, capsys, tmp_path):
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "0.04",
                         "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["alpha"], 1.5905134103872898,
                                   rtol=1e-6)
        assert payload["converged"] is True
        assert 0.0 <= payload["step_bound"] < 1e-10
        saved = json.loads((tmp_path / "equilibrium.json").read_text())
        assert saved == payload

    def test_guess_at_infinity_is_not_certified(self, capsys):
        # residuals fade toward alpha = sigma = infinity; a start beyond the
        # solver's box must fail instead of walking out along that channel
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "0.04",
                         "--guess", "0,1e9,1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric failure" in captured.err

    @pytest.mark.parametrize("guess", ["0,-1,1", "0,1,0", "0,nan,1",
                                       "0,1,inf", "nan,1,1"])
    def test_guess_outside_domain_is_usage_error(self, capsys, guess):
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "0.04",
                         f"--guess={guess}"]) == 2
        assert "--guess" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["equilibrium", "--epsilon", "0.04"],
        ["sweep", "--eps", "0.04"],
        ["field", "--epsilon", "0.04"],
        ["simulate", "--epsilon", "0.04"],
    ])
    def test_nodes_below_two_is_usage_error(self, tmp_path, capsys, command):
        argv = ["dynamics"] + command + ["--nodes", "1"]
        if command[0] != "equilibrium":
            argv += ["--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "--nodes" in capsys.readouterr().err

    def test_equilibrium_refuses_epsilon_zero(self, capsys):
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "0"]) == 4
        assert "refused" in capsys.readouterr().err

    def test_equilibrium_refuses_unfilterable_outliers(self):
        # near-coincident outlier component drives the indicator negative
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "0.05",
                         "--gaussian-outliers", "1,0.5"]) == 4

    def test_epsilon_out_of_range_is_usage(self):
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "1.5"]) == 2

    def test_sweep_ratio_trends_toward_one(self, tmp_path, capsys):
        assert cli.main(["dynamics", "sweep",
                         "--eps", "0.08,0.04,0.02,0.01,0.005",
                         "--gaussian-outliers", "5,1",
                         "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 5
        ratio = [float(r[header.index("eps_alpha_ratio")]) for r in rows]
        # approaches 1 from above as the contamination shrinks
        assert all(a > b for a, b in zip(ratio, ratio[1:]))
        assert all(r > 1.0 for r in ratio)
        gaps = [r - 1.0 for r in ratio]
        assert gaps[-1] < gaps[0] / 3.0
        mean_ratio = [float(r[header.index("mean_ratio")]) for r in rows]
        assert all(0.0 < r < 1.0 for r in mean_ratio)
        assert all(a < b for a, b in zip(mean_ratio, mean_ratio[1:]))
        assert header[-1] == "step_bound"
        assert all(0.0 <= float(r[-1]) < 1e-9 for r in rows)

    def test_sweep_with_zero_epsilon_refused(self, tmp_path):
        assert cli.main(["dynamics", "sweep", "--eps", "0.04,0",
                         "--out", str(tmp_path)]) == 4

    def test_field_at_zero_epsilon_never_vanishes(self, tmp_path):
        assert cli.main(["dynamics", "field", "--epsilon", "0",
                         "--alpha-range", "0.5:20:6",
                         "--sigma-range", "0.5:20:6",
                         "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "field.csv")
        assert len(rows) == 36
        for row in rows:
            da, ds = float(row[2]), float(row[3])
            assert math.hypot(da, ds) > 1e-4

    @pytest.mark.parametrize("flag", ["--alpha-range", "--sigma-range"])
    def test_field_infinite_range_is_usage_error(self, tmp_path, capsys,
                                                 flag):
        assert cli.main(["dynamics", "field", "--epsilon", "0.05",
                         flag, "1:inf:2", "--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err

    def test_simulate_writes_trajectory(self, tmp_path):
        assert cli.main(["dynamics", "simulate", "--epsilon", "0.05",
                         "--t-end", "30", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "m", "nu", "alpha", "beta", "sigma"]
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 30.0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # every accepted step costs at least 11 flow evaluations
        assert manifest["evaluations"] >= 11 * (len(rows) - 1)
        assert manifest["rejected"] >= 0

    def test_simulate_warns_but_proceeds_when_indicator_negative(
            self, tmp_path, capsys):
        assert cli.main(["dynamics", "simulate", "--epsilon", "0.05",
                         "--gaussian-outliers", "1,0.5", "--t-end", "5",
                         "--out", str(tmp_path)]) == 0
        assert "c_go" in capsys.readouterr().err
        assert (tmp_path / "trajectory.csv").exists()

    def test_simulate_custom_state(self, tmp_path):
        assert cli.main(["dynamics", "simulate", "--epsilon", "0.1",
                         "--state", "0.2,1.0,2.0,1.5", "--t-end", "10",
                         "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert float(rows[0][3]) == 2.0

    @pytest.mark.parametrize("t_end", ["-5", "0", "nan"])
    def test_simulate_rejects_nonpositive_horizon(self, tmp_path, capsys,
                                                   t_end):
        assert cli.main(["dynamics", "simulate", "--epsilon", "0.05",
                         "--t-end", t_end, "--out", str(tmp_path)]) == 2
        assert "--t-end" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    # --state value -> the field its error must name
    BAD_STATES = {"0,-1,2,1": "nu", "nan,1,1,1": "m", "1,1,1,inf": "beta"}

    @pytest.mark.parametrize("state", BAD_STATES)
    def test_simulate_rejects_bad_state(self, tmp_path, capsys, state):
        assert cli.main(["dynamics", "simulate", "--epsilon", "0.1",
                         "--state", state, "--t-end", "5",
                         "--out", str(tmp_path)]) == 2
        field = self.BAD_STATES[state]
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()


class TestBench:
    def test_small_bench_outputs(self, tmp_path):
        out = tmp_path / "bench"
        assert cli.main(["bench", "synthetic", "--epochs", "12", "--n", "80",
                         "--test-n", "30", "--fractions", "0,0.1",
                         "--repeats", "2", "--seed", "3",
                         "--out", str(out)]) == 0
        header, rows = read_csv(out / "bench.csv")
        assert header == ["fraction", "repeat", "seed", "model", "rmse", "auc"]
        # 2 fractions x 2 repeats x 3 models
        assert len(rows) == 12
        sheader, srows = read_csv(out / "summary.csv")
        assert len(srows) == 6
        models = {r[sheader.index("model")] for r in srows}
        assert models == {"gcp", "gcp_st", "baseline"}

    def test_jobs_flag_reproduces_serial_results(self, tmp_path):
        argv = ["bench", "synthetic", "--epochs", "10", "--n", "60",
                "--test-n", "20", "--fractions", "0,0.1", "--repeats", "2",
                "--seed", "7"]
        assert cli.main(argv + ["--out", str(tmp_path / "serial")]) == 0
        assert cli.main(argv + ["--jobs", "3",
                                "--out", str(tmp_path / "par")]) == 0
        assert ((tmp_path / "serial" / "bench.csv").read_bytes()
                == (tmp_path / "par" / "bench.csv").read_bytes())

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "bench"
        assert cli.main(["bench", "synthetic", "--epochs", "2", "--n", "40",
                         "--fractions", "0", "--repeats", "1",
                         "--jobs", jobs, "--out", str(out)]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_clean_fraction_rmse_parity(self, tmp_path):
        out = tmp_path / "bench"
        assert cli.main(["bench", "synthetic", "--epochs", "60", "--n", "200",
                         "--test-n", "60", "--fractions", "0",
                         "--repeats", "2", "--seed", "0",
                         "--out", str(out)]) == 0
        header, rows = read_csv(out / "summary.csv")
        vals = {r[header.index("model")]: float(r[header.index("rmse_mean")])
                for r in rows}
        assert vals["gcp"] < vals["baseline"] * 1.3
        assert vals["baseline"] < vals["gcp"] * 1.3

    def test_bad_fraction_is_usage_error(self, tmp_path):
        assert cli.main(["bench", "synthetic", "--fractions", "0,1.5",
                         "--out", str(tmp_path)]) == 2


def test_parser_is_built_once(monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        assert cli.main(["solve-a", "--alpha", "2"]) == 0
        assert cli.main(["solve-a", "--alpha", "3"]) == 0
    finally:
        cli._build_parser.cache_clear()
    assert progs.count("gcpnet") == 1


def test_cli_import_skips_heavy_modules():
    # every command pays the import of gcpnet.cli; scipy.interpolate (and
    # the scipy.optimize it imports) and dynamics would add about 0.3 s
    src = str(pathlib.Path(gcpnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, gcpnet.cli\n"
             "print(' '.join(m for m in ('scipy.interpolate', "
             "'scipy.optimize', 'gcpnet.dynamics') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""
