"""End-to-end tests of the command-line surface and its exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcpnet
from gcpnet import cli
from gcpnet import data as dat
from gcpnet import dynamics as dyn


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

    @pytest.mark.parametrize("flags", [["--alpha", "1.7976931348623157e308"],
                                       ["--grid", "1e3:1e300:50"]])
    def test_top_of_float_range_is_finite(self, flags, capsys):
        assert cli.main(["solve-a", *flags]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == (1 if flags[0] == "--alpha" else 50)
        assert all(math.isfinite(float(cell))
                   for row in rows for cell in row.split(","))

    def test_large_alpha_matches_high_precision(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        assert cli.main(["solve-a", "--alpha", "1e8"]) == 0
        a_value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        with mpmath.workdps(50):
            alpha = mpmath.mpf(10) ** 8

            def residual(a):
                x = mpmath.sqrt(alpha - a)
                r = (mpmath.sqrt(mpmath.pi) * x * mpmath.exp(x * x)
                     * mpmath.erfc(x))
                return (2 * alpha + 1) * (1 - r) - 1

            exact = mpmath.findroot(residual, 1 - 1.5 / alpha)
        assert abs(a_value / float(exact) - 1.0) <= 1e-15

    def test_negative_alpha_is_usage_error(self):
        assert cli.main(["solve-a", "--alpha", "-1"]) == 2

    @pytest.mark.parametrize("flags", [["--alpha", "inf"],
                                       ["--grid", "1:inf:3"],
                                       ["--grid", "-inf:1:3"]])
    def test_infinite_alpha_is_usage_error(self, flags, capsys):
        assert cli.main(["solve-a", *flags]) == 2
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("grid", ["0:10:3", "1:10", "1:x:3"])
    def test_malformed_grid_is_usage_error(self, capsys, grid):
        assert cli.main(["solve-a", "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert "--grid" in err and "Traceback" not in err

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

    def test_config_floats_land_as_floats(self, tmp_path):
        # a JSON integer for a float setting is widened, not kept an int
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.002, "dropout": 0}))
        out = tmp_path / "run"
        assert cli.main(["train", "synthetic", "--config", str(cfg),
                         "--epochs", "1", "--n", "40", "--test-n", "20",
                         "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert type(config["learning_rate"]) is float
        assert config["learning_rate"] == 0.002
        assert type(config["dropout"]) is float and config["dropout"] == 0.0

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

    def test_divergent_training_exits_numeric(self, tmp_path, capsys):
        # a step this size overflows the heads, so the next loss is
        # non-finite; no numpy overflow warning may come first, since
        # warnings are errors here
        out = tmp_path / "o"
        assert cli.main(["train", "synthetic", "--lr", "1e308",
                         "--epochs", "40", "--n", "60", "--test-n", "20",
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numeric failure")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "train synthetic", "train synthetic --baseline",
        "train synthetic --ensemble --members 2",
        "bench synthetic --fractions 0 --repeats 1",
        # finite outputs whose squared errors overflow in the RMSE
        "train synthetic --baseline --lr 1e100"])
    def test_overflowing_prediction_exits_numeric(self, tmp_path, capsys,
                                                  argv):
        # one epoch at --lr 1e308 leaves weights whose outputs overflow;
        # the training loop's checks came before that step.  No numpy
        # warning may come first, since warnings are errors here.  An
        # argv's own --lr comes later and wins
        out = tmp_path / "o"
        assert cli.main([*argv.split()[:2], "--epochs", "1", "--n", "20",
                         "--test-n", "10", "--lr", "1e308",
                         *argv.split()[2:], "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numeric failure")
        assert not out.exists()


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

    def test_equilibrium_far_from_origin(self, capsys):
        # the default mixture shifted by m_g solves in the generative frame
        def solve(m_g):
            assert cli.main(["dynamics", "equilibrium", "--epsilon", "0.04",
                             "--m-g", repr(m_g), "--gaussian-outliers",
                             f"{m_g + 5.0!r},1"]) == 0
            return json.loads(capsys.readouterr().out)

        base, far = solve(0.0), solve(1e7)
        assert abs((far["m"] - 1e7) - base["m"]) < 1e-8
        for key in ("alpha", "sigma"):
            np.testing.assert_allclose(far[key], base[key], rtol=1e-9)
        assert solve(1e12)["converged"] is True

    def test_equilibrium_with_uniform_outliers(self, capsys):
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "0.04",
                         "--uniform-outliers=-4,16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert max(payload["residuals"]) < 1e-9

    # argv after "dynamics" -> the start of its error, naming the field
    UNREPRESENTABLE = {
        "equilibrium --epsilon 0.04 --m-g 1e300": "m_g must be finite",
        "sweep --eps 0.04 --gaussian-outliers 5,1e300": "v_o must be finite",
        "simulate --epsilon 0 --m-g 1e300": "m_g must be finite",
        "equilibrium --epsilon 0.04 --v-g inf": "v_g must be finite",
        "equilibrium --epsilon 0.04 --gaussian-outliers inf,1":
            "m_o must be finite",
        "simulate --epsilon 0.05 --v-g 1e300": "v_g must be finite",
        # v_g**3 in the asymptotic guess underflowed to a ZeroDivisionError
        "equilibrium --epsilon 0.04 --v-g 1e-300": "v_g must be at least 1e-50",
        "sweep --eps 0.04 --v-g 1e-300": "v_g must be at least 1e-50",
    }

    @pytest.mark.parametrize("argv", UNREPRESENTABLE)
    def test_unrepresentable_mixture_is_usage_error(self, tmp_path, capsys,
                                                    argv):
        out = tmp_path / "out"
        assert cli.main(["dynamics", *argv.split(), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {self.UNREPRESENTABLE[argv]}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_equilibrium_refuses_epsilon_zero(self, capsys):
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "0"]) == 4
        assert "refused" in capsys.readouterr().err

    def test_equilibrium_refuses_unfilterable_outliers(self):
        # near-coincident outlier component drives the indicator negative
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "0.05",
                         "--gaussian-outliers", "1,0.5"]) == 4

    def test_epsilon_out_of_range_is_usage(self):
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "1.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["dynamics", "equilibrium", "--epsilon", "1e-320"],
        ["dynamics", "sweep", "--eps", "1e-320"]])
    def test_subnormal_epsilon_is_numeric_failure(self, tmp_path, capsys,
                                                  argv):
        # the asymptotic start's alpha ~ 1/eps overflows: no solve can
        # begin, which is a numeric failure naming the start
        assert cli.main(argv + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numeric failure: asymptotic start alpha = inf" in err

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
        bound = header.index("step_bound")
        assert all(0.0 <= float(r[bound]) < 1e-9 for r in rows)
        # the continuation's Newton iterations close each row
        assert header[-1] == "iterations"
        assert all(1 <= int(r[-1]) <= 30 for r in rows)

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

    def test_field_nonpositive_range_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["dynamics", "field", "--epsilon", "0.05",
                         "--alpha-range=-1:5:3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--alpha-range" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--nodes", "7"], ["--nodes", "3", "--uniform-outliers=-4,16"]])
    def test_odd_and_one_node_rules_end_typed(self, capsys, flags):
        # odd Hermite orders (7, and 14 to certify) and the one-node
        # Legendre rule are too coarse for a root; Newton reports it
        assert cli.main(["dynamics", "equilibrium", "--epsilon", "0.04",
                         *flags]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_simulate_writes_trajectory(self, tmp_path):
        assert cli.main(["dynamics", "simulate", "--epsilon", "0.05",
                         "--t-end", "30", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "m", "nu", "alpha", "beta", "sigma"]
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 30.0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # the start costs one flow evaluation and every attempted step six
        attempts = len(rows) - 1 + manifest["rejected"]
        assert manifest["evaluations"] == 1 + 6 * attempts

    def test_simulate_manifest_records_stop_settings(self, tmp_path):
        argv = ["dynamics", "simulate", "--epsilon", "0.05", "--t-end", "5"]
        stops = ["--settle-tol", "1e-3", "--escape-bound", "1e9"]
        manifests = []
        for extra, out in (([], tmp_path / "unset"), (stops, tmp_path / "set")):
            assert cli.main(argv + extra + ["--out", str(out)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        unset, given = manifests
        assert unset["settle_tol"] is None and unset["escape_bound"] is None
        assert given["settle_tol"] == 1e-3 and given["escape_bound"] == 1e9

    @pytest.mark.parametrize("command", [["sweep", "--eps", "0.04,0.02"],
                                         ["equilibrium", "--epsilon", "0.04"]])
    def test_manifest_records_the_node_count(self, tmp_path, command):
        blobs = []
        for extra, out in (([], tmp_path / "default"),
                           (["--nodes", "64"], tmp_path / "n64")):
            assert cli.main(["dynamics", *command, *extra,
                             "--out", str(out)]) == 0
            blobs.append((out / "manifest.json").read_bytes())
        default, n64 = (json.loads(blob)["spec"]["nodes"] for blob in blobs)
        assert blobs[0] != blobs[1]
        assert (default, n64) == (dyn.DYNAMICS_NODES_DEFAULT, 64)

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

    @pytest.mark.parametrize("argv, code", [
        # a rejected trial stage overflows in fgh and the step is retried
        (["simulate", "--epsilon", "0.04", "--state", "0,1,1,1e-300",
          "--t-end", "1"], 0),
        (["field", "--epsilon", "0.04", "--m", "1e300"], 3),
    ])
    def test_overflow_ends_without_numpy_warning(self, tmp_path, capsys,
                                                 argv, code):
        # pytest turns a RuntimeWarning into an error that escapes cli.main
        assert cli.main(["dynamics", *argv, "--out", str(tmp_path)]) == code
        if code == 3:
            assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end", ["-5", "0", "nan"])
    def test_simulate_rejects_nonpositive_horizon(self, tmp_path, capsys,
                                                   t_end):
        assert cli.main(["dynamics", "simulate", "--epsilon", "0.05",
                         "--t-end", t_end, "--out", str(tmp_path)]) == 2
        assert "--t-end" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("flag", ["--settle-tol", "--escape-bound"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_simulate_rejects_bad_stop_threshold(self, tmp_path, capsys,
                                                 flag, value):
        # nan never settled (the run went on to --t-end) and -5 reported
        # an escape after two steps; both now fail before integrating
        assert cli.main(["dynamics", "simulate", "--epsilon", "0.05",
                         "--t-end", "5", flag, value,
                         "--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err
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

    def test_ensemble_leaves_the_other_rows_unchanged(self, tmp_path):
        # the ensemble's first member is the gcp network itself
        argv = ["bench", "synthetic", "--epochs", "4", "--n", "50",
                "--test-n", "20", "--fractions", "0,0.1", "--repeats", "2",
                "--seed", "5", "--dropout", "0.1"]
        assert cli.main(argv + ["--out", str(tmp_path / "lone")]) == 0
        assert cli.main(argv + ["--ensemble", "--members", "3",
                                "--out", str(tmp_path / "ens")]) == 0
        lone = (tmp_path / "lone" / "bench.csv").read_text().splitlines()
        ens = (tmp_path / "ens" / "bench.csv").read_text().splitlines()
        assert len(ens) - len(lone) == 4
        assert [row for row in ens if ",ens_gcp," not in row] == lone

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

    def test_outlier_prob_is_honoured(self, tmp_path):
        argv = ["bench", "synthetic", "--epochs", "2", "--n", "40",
                "--test-n", "20", "--fractions", "0", "--repeats", "1"]
        runs = {}
        for name, extra in (("default", []), ("wild", ["--outlier-prob", "0.3"])):
            out = tmp_path / name
            assert cli.main(argv + extra + ["--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            runs[name] = (manifest["config"]["outlier_prob"],
                          (out / "bench.csv").read_bytes())
        assert runs["default"][0] == 0.0 and runs["wild"][0] == 0.3
        assert runs["default"][1] != runs["wild"][1]

    def test_bad_fraction_is_usage_error(self, tmp_path):
        assert cli.main(["bench", "synthetic", "--fractions", "0,1.5",
                         "--out", str(tmp_path)]) == 2

    def test_repeated_fraction_is_usage_error(self, tmp_path, capsys):
        # a repeated fraction used to write each summary row twice, each
        # claiming twice the repeats
        out = tmp_path / "bench"
        assert cli.main(["bench", "synthetic", "--epochs", "2", "--n", "40",
                         "--fractions", "0.5,0.5", "--repeats", "1",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--fractions" in err and "0.5" in err
        assert not (out / "manifest.json").exists()


# argv ({tmp} is the test's directory) -> the flag or config key its error
# must name
USAGE_ERRORS = {
    "dynamics sweep --eps 0.04 --gaussian-outliers 5,x": "--gaussian-outliers",
    "dynamics sweep --eps 0.04 --gaussian-outliers 5,1,2": "--gaussian-outliers",
    "dynamics sweep --eps ,": "--eps",
    "dynamics sweep --eps 0.04,1.5": "--eps",
    "train synthetic --preset nope": "preset",
    "train synthetic --config {tmp}/missing.json": "--config",
    "train synthetic --config {tmp}/text.json": "--config",
    "train synthetic --config {tmp}/nan.json": "learning_rate",
    "train synthetic --contamination 1.5": "contamination",
    "train synthetic --ensemble --members 0": "members",
    "bench synthetic --repeats 0": "--repeats",
    "train synthetic --dropout 1": "dropout",
    "bench synthetic --dropout -0.5": "dropout",
    "train {tmp}/missing.csv": "missing.csv",
    "bench {tmp}/missing.csv": "missing.csv",
    "train {tmp}/header.csv": "no data rows",
    "train {tmp}/constant.csv": "no informative feature",
    "train {tmp}/mixed.csv": "columns [1]",
    "train {tmp}/nancell.csv": "nancell.csv:3",
    "train {tmp}/rows20.csv": "train_fraction",
    "train synthetic --train-fraction nan": "train_fraction",
    "bench synthetic --train-fraction nan": "train_fraction",
    "train synthetic --train-fraction 1": "train_fraction",
    "train synthetic --lr inf": "learning_rate",
    "train synthetic --seed -1": "seed",
    "bench synthetic --seed -1": "seed",
    "train synthetic --test-n 1": "test_n",
    "train synthetic --test-n 0": "test_n",
    "train synthetic --n 1": "n must be at least 2",
    "train {tmp}/rows3.csv --train-fraction 0.4": "leaves 1 of 3 rows for "
                                                  "training",
    # refused while parsing, so argparse names the flag; the library used
    # to refuse these only after generating the data
    "train synthetic --epochs 0": "argument --epochs: epochs must be",
    "train synthetic --batch-size 0": "argument --batch-size: batch_size",
    "train synthetic --outlier-prob 1": "argument --outlier-prob: outlier_prob",
}


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_names_its_flag(tmp_path, capsys, argv):
    (tmp_path / "text.json").write_text("learning_rate = 0.1")
    (tmp_path / "nan.json").write_text('{"learning_rate": NaN}')
    (tmp_path / "header.csv").write_text("x,y\n")
    (tmp_path / "constant.csv").write_text("x,y\n1,2\n1,3\n1,5\n")
    (tmp_path / "mixed.csv").write_text("x0,x1,y\n" + "".join(
        f"{i},7,{i * i}\n" for i in range(40)))
    (tmp_path / "nancell.csv").write_text("x,y\n1,2\nnan,3\n2,5\n")
    (tmp_path / "rows3.csv").write_text("x,y\n1,2\n2,3\n3,5\n")
    (tmp_path / "rows20.csv").write_text("x,y\n" + "".join(
        f"{i},{i * i}\n" for i in range(20)))
    out = tmp_path / "out"
    tokens = [tok.replace("{tmp}", str(tmp_path)) for tok in argv.split()]
    assert cli.main(tokens + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert USAGE_ERRORS[argv] in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["solve-a", "--grid", "0.01:100:7"], "solve_a.csv"),
    (["dynamics", "sweep", "--eps", "0.04,0.02"], "sweep.csv"),
])
def test_printed_rows_equal_written_csv(tmp_path, capsys, argv, name):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    printed = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    header, rows = read_csv(tmp_path / name)
    assert printed == [header] + rows


def test_dynamics_without_subcommand_prints_usage(capsys):
    assert cli.main(["dynamics"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: gcpnet") and captured.out == ""


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


def test_cli_import_skips_heavy_modules(tmp_path):
    # every command pays the import of gcpnet.cli, and dynamics would add
    # to it; scipy.special alone costs about 0.2 s, so only the commands
    # that train (through gcpnet.net) may load any of scipy
    src = str(pathlib.Path(gcpnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"""
import contextlib, io, sys
import gcpnet.cli as cli
from gcpnet.special import alpha_table

def loaded(prefixes):
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))

print(loaded(["scipy", "gcpnet.dynamics", "gcpnet.net"]))
alpha_table()
print(loaded(["scipy", "gcpnet.net"]))
for argv in (["solve-a", "--alpha", "2"],
             ["dynamics", "equilibrium", "--epsilon", "0.04"],
             ["dynamics", "sweep", "--eps", "0.04,0.02",
              "--uniform-outliers=-4,16", "--out", {str(tmp_path / "s")!r}],
             ["dynamics", "simulate", "--epsilon", "0.05", "--t-end", "5",
              "--out", {str(tmp_path / "t")!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(argv[:2], code, loaded(["scipy", "gcpnet.net"]))
"""
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    assert lines[:2] == ["[]", "[]"]
    assert all(line.endswith(" 0 []") for line in lines[2:]), lines
    assert len(lines) == 6


# each mixture flag's edge values: zero, 1e-300 (its cube underflows),
# 1/MIXTURE_LIMIT, 1 and MIXTURE_LIMIT of both signs, and the non-finite ones
MIXTURE_EDGES = st.sampled_from(["0", "1e-300", "-1e-300", "1e-50", "-1e-50",
                                 "1", "-1", "1e50", "-1e50", "inf", "-inf",
                                 "nan"])


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(command=st.sampled_from([
           ["equilibrium", "--epsilon", "0.04"],
           ["field", "--epsilon", "0.04", "--alpha-range", "0.5:50:3",
            "--sigma-range", "0.5:50:3"]]),
       m_g=MIXTURE_EDGES, v_g=MIXTURE_EDGES,
       outliers=st.sampled_from(["--gaussian-outliers", "--uniform-outliers"]),
       pair=st.tuples(MIXTURE_EDGES, MIXTURE_EDGES))
def test_mixture_flags_end_in_a_typed_exit(command, m_g, v_g, outliers, pair):
    # "=" keeps argparse from reading a negative value as a flag
    with tempfile.TemporaryDirectory() as tmp:
        _typed_run(["dynamics", *command, f"--m-g={m_g}", f"--v-g={v_g}",
                    f"{outliers}={','.join(pair)}"], pathlib.Path(tmp) / "out")


def _typed_run(argv, out):
    """cli.main(argv + --out) under the exit contract: exit 0, 2, 3 or 4,
    no traceback, and no output directory after a usage error.  A numpy
    RuntimeWarning fails the caller through the pytest filter.  Returns
    (exit code, stdout)."""
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(out)])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert code != 2 or not out.exists(), err.getvalue()
    return code, stdout.getvalue()


def _commands(parser, path=()):
    """(subcommand path, parser) for every leaf command of the tree."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _commands(child, path + (name,))


COMMANDS = dict(_commands(cli._build_parser()))

# flags each command always gets, so a run stays tiny (epochs, sizes,
# repeats) or can run at all (required flags); a drawn flag overrides
# them, and drops those of its mutually exclusive group
SMALL_TRAIN = {"data": "synthetic", "--epochs": "1", "--n": "20",
               "--test-n": "10", "--members": "2"}
BASE_ARGV = {
    ("solve-a",): {"--alpha": "2"},
    ("train",): SMALL_TRAIN,
    ("bench",): {**SMALL_TRAIN, "--fractions": "0", "--repeats": "1"},
    ("dynamics", "simulate"): {"--epsilon": "0.05", "--t-end": "1"},
    ("dynamics", "equilibrium"): {"--epsilon": "0.04"},
    ("dynamics", "sweep"): {"--eps": "0.04,0.02"},
    ("dynamics", "field"): {"--epsilon": "0.04", "--alpha-range": "0.5:50:3",
                            "--sigma-range": "0.5:50:3"},
}

EDGES = ["0", "1", "-1", "2", "1e-320", "1e308", "-1e308", "inf", "-inf",
         "nan"]
EDGE = st.sampled_from(EDGES)
# --config values: each JSON type, and numbers a float cannot hold
CONFIG_VALUES = [0, 1, -1, 2, 0.5, 1e-320, 1e308, -1e308, math.inf,
                 math.nan, 10**400, True, None, "1", [1], {}]

# file -> the columns whose nan is documented: the baseline has no alpha,
# and mean_ratio is 0/0 when the outlier mean equals m_g
NAN_CELLS = {"predictions.csv": {"alpha"}, "sweep.csv": {"mean_ratio"}}


def _flags(parser):
    """flag -> action for every flag the command takes but --out."""
    return {a.option_strings[0]: a for a in parser._actions
            if a.option_strings and a.option_strings[0] not in ("-h",
                                                                 "--out")}


def _argv(path, drawn):
    """The command's argv: BASE_ARGV updated by `drawn`, flag -> its text,
    or None for a switch."""
    parser, argv = COMMANDS[path], dict(BASE_ARGV[path])
    for flag in drawn:
        for group in parser._mutually_exclusive_groups:
            if _flags(parser)[flag] in group._group_actions:
                for other in group._group_actions:
                    argv.pop(other.option_strings[0], None)
    argv.update(drawn)
    tokens = [*path, *([argv.pop("data")] if "data" in argv else [])]
    # "=" keeps argparse from reading a negative value as a flag
    return tokens + [flag if value is None else f"{flag}={value}"
                     for flag, value in argv.items()]


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _nan_cells(name, blob, argv):
    """(file, column) of each nan cell outside NAN_CELLS, and (file, NaN)
    for a NaN in a JSON file."""
    if name.endswith(".json"):
        found = []
        json.loads(blob, parse_constant=found.append)
        return [(name, c) for c in found if c == "NaN"]
    header, *rows = list(csv.reader(io.StringIO(blob.decode())))
    allowed = set(NAN_CELLS.get(name, ()))
    if name == "predictions.csv" and "--baseline" not in argv:
        allowed.discard("alpha")
    return sorted({(name, col) for row in rows
                   for col, cell in zip(header, row)
                   if cell.lower() == "nan" and col not in allowed})


def _check(argv, config=None, rerun=False):
    """The contract of one invocation: a typed exit (see _typed_run); on
    exit 0 no undocumented nan; with `rerun`, the same bytes again.  A
    horizon of 1e308 would run integrate's 100,000-step cap, about 50 s;
    like the epochs, the cap is kept tiny here."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            dyn, "MAX_STEPS", 50):
        tmp = pathlib.Path(tmp)
        if config is not None:
            (tmp / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp / "cfg.json")]
        out = tmp / "out"
        code, stdout = _typed_run(argv, out)
        if code != 0:
            return
        artifacts = _artifacts(out)
        assert not [hit for name, blob in artifacts.items()
                    for hit in _nan_cells(name, blob, argv)], argv
        if rerun:
            shutil.rmtree(out)
            assert _typed_run(argv, out) == (code, stdout), argv
            assert _artifacts(out) == artifacts, argv


def test_every_flag_edge_ends_in_a_typed_exit():
    # each edge in turn for every flag that takes a value and each value
    # type for every --config key: one sweep of about 900 tiny runs
    for path, parser in COMMANDS.items():
        for flag, action in _flags(parser).items():
            if action.nargs != 0 and flag != "--config":
                for edge in EDGES:
                    _check(_argv(path, {flag: edge}))
    for key in cli.TRAIN_DEFAULTS:
        for value in CONFIG_VALUES:
            _check(_argv(("train",), {}), config={key: value})


def _flag_value(action):
    """Edge values for one flag: a choice or not; else mostly the shape it
    parses, one edge, a comma list of them (empty, duplicated, of up to 4)
    or lo:hi:n, and sometimes another shape."""
    if action.choices:
        return st.sampled_from([*action.choices, "nope"])
    shapes = {"edge": EDGE, "list": st.lists(EDGE, max_size=4).map(",".join),
              "grid": st.tuples(EDGE, EDGE, st.sampled_from(
                  ["0", "1", "2", "x"])).map(":".join)}
    shape = ("list" if isinstance(action.type, cli.Numbers)
             else "grid" if action.help == cli.GRID else "edge")
    return st.one_of(shapes[shape], shapes[shape], *shapes.values())


@st.composite
def _invocations(draw):
    """(argv, --config dict or None): one command with one or two of its
    flags drawn, so a new flag is fuzzed as soon as the parser has it."""
    path = draw(st.sampled_from(sorted(COMMANDS)))
    flags = _flags(COMMANDS[path])
    drawn, config = {}, None
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), min_size=1,
                              max_size=2, unique=True)):
        if flag == "--config":
            config = draw(st.dictionaries(
                st.sampled_from([*cli.TRAIN_DEFAULTS, "learning_rat"]),
                st.sampled_from(CONFIG_VALUES), max_size=2))
        else:
            drawn[flag] = (None if flags[flag].nargs == 0
                           else draw(_flag_value(flags[flag])))
    return _argv(path, drawn), config


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=_invocations(), rerun=st.integers(0, 3))
def test_flag_combinations_end_in_a_typed_exit(case, rerun):
    # one draw in four is run twice and must give the same bytes
    _check(*case, rerun=rerun == 0)
