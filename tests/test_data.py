"""Tests for dataset generation, contamination, normalization, splitting,
and CSV round trips."""

import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gcpnet import data as dat


def make_dataset(n=50, d=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = x[:, 0] * 2.0 + rng.normal(size=n)
    return dat.Dataset(features=x, targets=y)


def write_csv(path, header, rows):
    """Cells are written with repr (floats) or str (ints), both of which
    load_csv must read back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v)
                             for v in row])


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            dat.Dataset(features=np.zeros(3), targets=np.zeros(3))
        with pytest.raises(ValueError):
            dat.Dataset(features=np.zeros((3, 1)), targets=np.zeros(4))
        with pytest.raises(ValueError):
            dat.Dataset(features=np.zeros((3, 1)), targets=np.zeros(3),
                        outlier_mask=np.zeros(2, dtype=bool))

    def test_shape_properties(self):
        ds = make_dataset(10, 3)
        assert ds.n == 10 and ds.dim == 3


class TestGenerateSynthetic:
    def test_same_seed_is_bitwise_identical(self):
        a = dat.generate_synthetic(dat.SyntheticSpec(seed=5))
        b = dat.generate_synthetic(dat.SyntheticSpec(seed=5))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
        np.testing.assert_array_equal(a.outlier_mask, b.outlier_mask)

    def test_clean_generator_is_unbiased(self):
        spec = dat.SyntheticSpec(n=100000, outlier_prob=0.0, seed=1)
        ds = dat.generate_synthetic(spec)
        assert not ds.outlier_mask.any()
        resid = ds.targets - np.sin(3.0 * ds.features[:, 0])
        se = resid.std(ddof=1) / math.sqrt(ds.n)
        assert abs(resid.mean()) < 3.0 * se

    def test_noise_level_at_origin(self):
        np.testing.assert_allclose(dat.conditional_noise_std(0.0), 0.5,
                                   rtol=1e-15)

    def test_heteroscedastic_profile(self):
        # bins near |x| = 1 must be quieter than bins near 0
        spec = dat.SyntheticSpec(n=200000, outlier_prob=0.0, seed=2)
        ds = dat.generate_synthetic(spec)
        x = ds.features[:, 0]
        resid = ds.targets - np.sin(3.0 * x)
        mid = np.abs(x) < 0.1
        edge = np.abs(x) > 0.9
        np.testing.assert_allclose(resid[mid].std(), 0.5, atol=0.02)
        assert resid[edge].std() < 0.1

    def test_outlier_rate_binomially_consistent(self):
        ds = dat.generate_synthetic(dat.SyntheticSpec(seed=3))
        count = int(ds.outlier_mask.sum())
        sigma = math.sqrt(400 * 0.05 * 0.95)
        assert abs(count - 20.0) <= 3.0 * sigma

    def test_outliers_drawn_from_support(self):
        ds = dat.generate_synthetic(dat.SyntheticSpec(n=5000, seed=4))
        wild = ds.targets[ds.outlier_mask]
        assert wild.min() >= -4.0 and wild.max() <= 16.0
        # clean rows stay in the plausible band of the sine process
        clean = ds.targets[~ds.outlier_mask]
        assert np.abs(clean).max() < 4.0

    def test_x_range_respected(self):
        ds = dat.generate_synthetic(dat.SyntheticSpec(seed=0))
        assert ds.features.min() >= -1.0 and ds.features.max() <= 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            dat.SyntheticSpec(n=0)
        with pytest.raises(ValueError):
            dat.SyntheticSpec(outlier_prob=1.0)


class TestContaminate:
    def test_zero_fraction_changes_nothing(self):
        ds = make_dataset()
        out = dat.contaminate(ds, 0.0, seed=1)
        np.testing.assert_array_equal(out.targets, ds.targets)
        assert not out.outlier_mask.any()

    def test_exact_floor_count(self):
        ds = make_dataset(n=1000)
        out = dat.contaminate(ds, 0.05, seed=1)
        assert int(out.outlier_mask.sum()) == 50
        changed = out.targets != ds.targets
        assert changed.sum() == 50
        np.testing.assert_array_equal(out.outlier_mask, changed)

    def test_features_untouched(self):
        ds = make_dataset()
        out = dat.contaminate(ds, 0.2, seed=2)
        np.testing.assert_array_equal(out.features, ds.features)

    def test_replacement_statistics_use_original_moments(self):
        rng = np.random.default_rng(3)
        y = rng.normal(loc=2.0, scale=1.5, size=20000)
        ds = dat.Dataset(features=np.zeros((y.size, 1)), targets=y)
        out = dat.contaminate(ds, 0.5, seed=4)
        replaced = out.targets[out.outlier_mask]
        np.testing.assert_allclose(replaced.std(), 15.0, rtol=0.2)
        np.testing.assert_allclose(replaced.mean(), 2.0, atol=0.5)

    def test_mask_accumulates(self):
        ds = dat.generate_synthetic(dat.SyntheticSpec(seed=6))
        before = int(ds.outlier_mask.sum())
        out = dat.contaminate(ds, 0.1, seed=7)
        assert int(out.outlier_mask.sum()) >= max(before, 40)

    def test_rejects_bad_fraction_and_normalized_input(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            dat.contaminate(ds, 1.0)
        with pytest.raises(ValueError):
            dat.contaminate(dat.normalize(ds), 0.1)


class TestNormalize:
    def test_zero_mean_unit_variance(self):
        out = dat.normalize(make_dataset())
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, rtol=1e-12)
        assert abs(out.targets.mean()) < 1e-12
        np.testing.assert_allclose(out.targets.std(), 1.0, rtol=1e-12)

    def test_round_trip(self):
        ds = make_dataset()
        out = dat.normalize(ds)
        stats = out.normalization
        np.testing.assert_allclose(
            out.features * stats.feature_std + stats.feature_mean,
            ds.features, atol=1e-12)
        np.testing.assert_allclose(
            out.targets * stats.target_std + stats.target_mean, ds.targets,
            atol=1e-12)

    def test_test_split_keeps_train_statistics(self):
        train = dat.normalize(make_dataset(seed=0))
        shifted = make_dataset(seed=1)
        shifted = dat.Dataset(features=shifted.features + 5.0,
                              targets=shifted.targets + 5.0)
        test = dat.apply_normalization(shifted, train.normalization)
        assert abs(test.targets.mean()) > 1.0
        stats = train.normalization
        np.testing.assert_allclose(
            test.targets * stats.target_std + stats.target_mean,
            shifted.targets, atol=1e-12)

    def test_constant_feature_column_is_named(self):
        x = np.column_stack([np.arange(30.0), np.ones(30), np.arange(30.0)])
        ds = dat.Dataset(features=x, targets=np.arange(30.0) ** 1.5)
        with pytest.raises(ValueError, match=r"columns \[1\]"):
            dat.normalize(ds)

    def test_constant_target_rejected(self):
        ds = dat.Dataset(features=np.arange(10.0).reshape(-1, 1),
                         targets=np.ones(10))
        with pytest.raises(ValueError):
            dat.normalize(ds)

    def test_mean_variance_denormalization(self):
        out = dat.normalize(make_dataset())
        stats = out.normalization
        mean, var = stats.inverse_mean_variance(0.0, 1.0)
        np.testing.assert_allclose(mean, stats.target_mean, rtol=1e-14)
        np.testing.assert_allclose(var, stats.target_std ** 2, rtol=1e-14)


class TestSplit:
    def test_sizes_and_partition(self):
        ds = make_dataset(n=100)
        train, test = dat.split(ds, 0.95, seed=0)
        assert train.n == 95 and test.n == 5
        joined = np.vstack([train.features, test.features])
        assert joined.shape == ds.features.shape
        # every original row appears exactly once
        orig = {tuple(row) for row in ds.features}
        got = {tuple(row) for row in joined}
        assert orig == got

    def test_same_seed_same_split(self):
        ds = make_dataset(n=40)
        a_train, _ = dat.split(ds, 0.8, seed=3)
        b_train, _ = dat.split(ds, 0.8, seed=3)
        np.testing.assert_array_equal(a_train.features, b_train.features)

    def test_mask_travels_with_rows(self):
        ds = dat.generate_synthetic(dat.SyntheticSpec(seed=1))
        train, test = dat.split(ds, 0.95, seed=2)
        assert int(train.outlier_mask.sum()) + int(test.outlier_mask.sum()) \
            == int(ds.outlier_mask.sum())

    def test_degenerate_split_rejected(self):
        ds = make_dataset(n=10)
        with pytest.raises(ValueError):
            dat.split(ds, 0.01, seed=0)
        with pytest.raises(ValueError):
            dat.split(ds, 1.0, seed=0)
        with pytest.raises(ValueError):
            dat.split(dat.Dataset(features=np.zeros((1, 1)),
                                  targets=np.zeros(1)), 0.5, seed=0)


class TestCsv:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        ds = dat.load_csv(p)
        assert ds.n == 2 and ds.dim == 1
        np.testing.assert_array_equal(ds.targets, [2.0, 4.0])

    def test_blank_trailing_line_ignored(self, tmp_path):
        p = tmp_path / "trail.csv"
        p.write_text("a,b\n1,2\n\n")
        assert dat.load_csv(p).n == 1

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            dat.load_csv(p)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        # float() parses the non-finite spellings, so they need their own
        # check
        p = tmp_path / "bad.csv"
        for cell in ("oops", "nan", "inf", "-inf", "1e999"):
            p.write_text(f"a,b\n1,2\n1,{cell}\n")
            with pytest.raises(ValueError, match=rf"3.*column 'b'.*'{cell}'"):
                dat.load_csv(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,2\n1,2,3\n")
        with pytest.raises(ValueError, match="3: expected 2 columns"):
            dat.load_csv(p)

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "narrow.csv"
        p.write_text("y\n1\n2\n")
        with pytest.raises(ValueError, match="at least one feature"):
            dat.load_csv(p)

    def test_roundtrip_with_outlier_column(self, tmp_path):
        ds = dat.generate_synthetic(dat.SyntheticSpec(n=50, seed=9))
        p = tmp_path / "synth.csv"
        write_csv(p, ["x0", "y", "is_outlier"],
                  zip(ds.features[:, 0].tolist(), ds.targets.tolist(),
                      ds.outlier_mask.astype(int).tolist()))
        # read back generically: x and y become features, the trailing
        # integer mask column lands in the target slot
        back = dat.load_csv(p)
        assert back.dim == 2
        np.testing.assert_array_equal(back.features[:, 0], ds.features[:, 0])
        np.testing.assert_array_equal(back.features[:, 1], ds.targets)
        np.testing.assert_array_equal(back.targets,
                                      ds.outlier_mask.astype(float))

    def test_roundtrip_is_exact(self, tmp_path):
        ds = make_dataset(n=25, d=3)
        p = tmp_path / "plain.csv"
        write_csv(p, ["x0", "x1", "x2", "y"],
                  np.column_stack([ds.features, ds.targets]).tolist())
        back = dat.load_csv(p)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.targets, ds.targets)

    def test_utf8_whatever_the_locale(self, tmp_path):
        # under a C locale without UTF-8 mode open()'s default codec is ASCII
        good, bad = tmp_path / "accent.csv", tmp_path / "latin1.csv"
        good.write_bytes("x\u00e9,y\n1,2\n3,4\n".encode("utf-8"))
        bad.write_bytes(b"x\xe9,y\n1,2\n3,4\n")
        probe = ("import sys\n"
                 "from gcpnet import data\n"
                 "print(data.load_csv(sys.argv[1]).n)\n"
                 "try:\n"
                 "    data.load_csv(sys.argv[2])\n"
                 "except ValueError as exc:\n"
                 "    print(exc)\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0", PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", probe, str(good),
                               str(bad)], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "2", f"{bad}: not UTF-8 text (invalid continuation byte)"]


class TestNormStatsSidecar:
    def test_json_roundtrip(self):
        # the statistics ride in checkpoint.json and must survive JSON exactly
        stats = dat.normalize(make_dataset()).normalization
        loaded = json.loads(json.dumps(stats.to_json()))
        np.testing.assert_array_equal(loaded["feature_mean"],
                                      stats.feature_mean)
        np.testing.assert_array_equal(loaded["feature_std"],
                                      stats.feature_std)
        assert loaded["target_mean"] == stats.target_mean
        assert loaded["target_std"] == stats.target_std
