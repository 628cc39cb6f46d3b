"""Tests for the variance-ordered rejection curve and the RMSE at its first
point."""

import math

import numpy as np
import pytest

from gcpnet import metrics as met
from gcpnet.special import NumericError


class TestRmse:
    """The RMSE every command reports is the rejection curve's first point."""

    def test_hand_value(self):
        curve = met.rejection_curve([3.0, 4.0], [0.1, 0.2], [0.0, 0.0])
        np.testing.assert_allclose(curve.rmse_at_n[0], math.sqrt(12.5),
                                   rtol=1e-15)


class TestRejectionCurve:
    @pytest.mark.parametrize("preds", [[1e200, 0.0], [1e308, -1e308]])
    def test_overflowing_errors_are_a_numeric_error(self, preds):
        # finite predictions whose squared errors overflow would give an
        # infinite RMSE after a numpy warning
        with pytest.raises(NumericError, match="overflow") as info:
            met.rejection_curve(preds, [0.1, 0.2], [0.0, 0.0])
        assert info.type is NumericError

    def test_zero_residuals_give_zero_curve(self):
        curve = met.rejection_curve([1.0, 2.0, 3.0], [0.3, 0.1, 0.2],
                                    [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(curve.rmse_at_n, np.zeros(3))
        assert curve.auc == 0.0

    def test_two_sample_hand_case(self):
        # variance ranks sample 1 as rejected first
        preds = np.array([1.0, 0.0])
        targets = np.array([0.0, 3.0])
        variances = np.array([0.1, 5.0])
        curve = met.rejection_curve(preds, variances, targets)
        r0 = math.sqrt((1.0 + 9.0) / 2.0)
        np.testing.assert_allclose(curve.rmse_at_n, [r0, 1.0], rtol=1e-15)
        np.testing.assert_allclose(curve.auc, (r0 + 1.0) / 2.0, rtol=1e-15)
        np.testing.assert_array_equal(curve.ordering, [1, 0])

    def test_first_point_is_full_rmse(self):
        rng = np.random.default_rng(0)
        p, v, t = rng.normal(size=30), rng.uniform(size=30), rng.normal(size=30)
        curve = met.rejection_curve(p, v, t)
        np.testing.assert_allclose(curve.rmse_at_n[0],
                                   np.sqrt(np.mean((p - t) ** 2)), rtol=1e-14)

    def test_auc_is_trapezoid_of_stored_curve(self):
        rng = np.random.default_rng(1)
        p, v, t = rng.normal(size=17), rng.uniform(size=17), rng.normal(size=17)
        curve = met.rejection_curve(p, v, t)
        manual = np.sum((curve.rmse_at_n[:-1] + curve.rmse_at_n[1:]) / 2.0)
        np.testing.assert_allclose(curve.auc, manual / 16.0, rtol=1e-14)

    def test_informative_variances_give_non_increasing_curve(self):
        # when the ordering matches residual magnitude the curve can't rise
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = rng.normal(size=12)
            p = t + rng.normal(size=12)
            v = (p - t) ** 2
            curve = met.rejection_curve(p, v, t)
            assert np.all(np.diff(curve.rmse_at_n) <= 1e-12)

    def test_permutation_invariance_with_distinct_variances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            t = rng.normal(size=n)
            p = t + rng.normal(size=n)
            v = rng.permutation(np.arange(n, dtype=float) + rng.uniform())
            base = met.rejection_curve(p, v, t)
            perm = rng.permutation(n)
            shuffled = met.rejection_curve(p[perm], v[perm], t[perm])
            np.testing.assert_allclose(shuffled.auc, base.auc, rtol=1e-12)
            np.testing.assert_allclose(shuffled.rmse_at_n, base.rmse_at_n,
                                       rtol=1e-12)

    def test_infinite_variance_rejected_first(self):
        p = np.array([0.0, 0.0, 0.0])
        t = np.array([1.0, 5.0, 1.0])
        v = np.array([2.0, math.inf, 3.0])
        curve = met.rejection_curve(p, v, t)
        assert curve.ordering[0] == 1
        # after dropping the wild sample only unit residuals remain
        np.testing.assert_allclose(curve.rmse_at_n[1], 1.0, rtol=1e-14)

    def test_variance_ties_break_by_original_index(self):
        v = np.array([1.0, 1.0, 1.0, 2.0])
        curve = met.rejection_curve(np.zeros(4), v, np.zeros(4))
        np.testing.assert_array_equal(curve.ordering, [3, 0, 1, 2])
        v_inf = np.array([math.inf, 1.0, math.inf])
        curve2 = met.rejection_curve(np.zeros(3), v_inf, np.zeros(3))
        np.testing.assert_array_equal(curve2.ordering, [0, 2, 1])

    def test_auc_bounded_by_curve_maximum(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            t = rng.normal(size=n)
            p = t + rng.normal(size=n) * rng.uniform(0.1, 3.0)
            v = rng.uniform(size=n)
            curve = met.rejection_curve(p, v, t)
            assert 0.0 <= curve.auc <= curve.rmse_at_n.max() + 1e-14

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            met.rejection_curve([1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            met.rejection_curve([1.0, 2.0], [1.0, math.nan], [0.0, 0.0])
        with pytest.raises(ValueError):
            met.rejection_curve([1.0, 2.0], [1.0], [0.0, 0.0])

    def test_curve_csv_export(self, tmp_path):
        curve = met.rejection_curve([1.0, 0.0], [0.1, 5.0], [0.0, 3.0])
        path = tmp_path / "curve.csv"
        met.write_curve_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,rmse"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1"]
        np.testing.assert_allclose(float(lines[1].split(",")[1]),
                                   curve.rmse_at_n[0], rtol=1e-15)

    def test_summary_payload(self):
        curve = met.rejection_curve([1.0, 0.0], [0.1, 5.0], [0.0, 3.0])
        s = met.curve_summary(curve)
        assert s == {"rmse": curve.rmse_at_n[0], "auc": curve.auc,
                     "n_samples": 2}
