"""Tests for the four-head network, its baseline, the seeded training loop,
and checkpoint serialization."""

import math
import os

import numpy as np
import pytest

from gcpnet import gcp
from gcpnet import net as nn


def tiny_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    y = np.sin(3.0 * x[:, 0]) + 0.05 * rng.normal(size=n)
    return x, y


class TestSoftplus:
    def test_value_at_zero_includes_floor(self):
        np.testing.assert_allclose(nn.softplus(np.array([0.0])),
                                   math.log(2.0) + nn.POSITIVE_FLOOR,
                                   rtol=1e-15)

    def test_large_negative_input_stays_positive(self):
        out = nn.softplus(np.array([-800.0]))
        assert out[0] >= nn.POSITIVE_FLOOR
        assert np.isfinite(out).all()

    def test_large_positive_input_is_linear(self):
        np.testing.assert_allclose(nn.softplus(np.array([800.0])),
                                   800.0 + nn.POSITIVE_FLOOR, rtol=1e-15)

    def test_gradient_matches_finite_differences(self):
        xs = np.array([-3.0, -0.2, 0.0, 1.7, 12.0])
        h = 1e-6
        fd = (nn.softplus(xs + h) - nn.softplus(xs - h)) / (2.0 * h)
        np.testing.assert_allclose(nn.softplus_grad(xs), fd, atol=1e-9)


class TestMlpHead:
    def test_initialization_layout(self):
        rng = np.random.default_rng(0)
        head = nn.MlpHead(3, 50, rng)
        lim = math.sqrt(6.0 / 3)
        assert head.w1.shape == (3, 50)
        assert np.all(np.abs(head.w1) <= lim)
        assert np.all(head.b1 == 0.0)
        assert np.all(np.abs(head.w2) <= 0.01)
        assert head.b2 == 0.0

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        head = nn.MlpHead(2, 7, rng)
        x = rng.normal(size=(5, 2))
        dout = rng.normal(size=5)
        out, cache = head.forward(x)
        grads = head.backward(x, cache, dout)
        h = 1e-6
        for name in ("w1", "b1", "w2"):
            value = getattr(head, name)
            flat = value.ravel()
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for k in idx:
                orig = flat[k]
                flat[k] = orig + h
                up = float(head.forward(x)[0] @ dout)
                flat[k] = orig - h
                dn = float(head.forward(x)[0] @ dout)
                flat[k] = orig
                np.testing.assert_allclose(grads[name].ravel()[k],
                                           (up - dn) / (2.0 * h),
                                           rtol=1e-4, atol=1e-7)
        head.b2 += h
        up = float(head.forward(x)[0] @ dout)
        head.b2 -= 2 * h
        dn = float(head.forward(x)[0] @ dout)
        head.b2 += h
        np.testing.assert_allclose(grads["b2"], (up - dn) / (2.0 * h),
                                   rtol=1e-6)

    def test_first_adam_step_is_signed_learning_rate(self):
        # with bias correction the first update is lr * g/(|g| + eps)
        rng = np.random.default_rng(2)
        head = nn.MlpHead(2, 4, rng)
        w2_before = head.w2.copy()
        grads = {"w1": np.zeros((2, 4)), "b1": np.zeros(4),
                 "w2": np.full(4, 0.25), "b2": 0.0}
        head.adam_step(grads, lr=1e-3)
        np.testing.assert_allclose(w2_before - head.w2,
                                   1e-3 * 0.25 / (0.25 + 1e-8), rtol=1e-12)

    def test_zero_gradient_leaves_params_unchanged(self):
        rng = np.random.default_rng(3)
        head = nn.MlpHead(2, 4, rng)
        before = {k: np.copy(v) for k, v in head.params().items()}
        zeros = {"w1": np.zeros((2, 4)), "b1": np.zeros(4),
                 "w2": np.zeros(4), "b2": 0.0}
        for _ in range(3):
            head.adam_step(zeros, lr=0.1)
        for k, v in head.params().items():
            np.testing.assert_array_equal(v, before[k])


class TestGcpNetwork:
    def test_forward_returns_valid_belief(self):
        # a single 1-d input row is promoted to a one-row batch
        netw = nn.GcpNetwork(1, hidden=10, rng=np.random.default_rng(0))
        m, nu, alpha, beta = netw.predict_arrays(np.array([0.3]))
        p = gcp.GcpParams(m=float(m[0]), nu=float(nu[0]),
                          alpha=float(alpha[0]), beta=float(beta[0]))
        assert p.nu > 0 and p.alpha > 0 and p.beta > 0

    def test_eval_equals_train_without_dropout(self):
        netw = nn.GcpNetwork(1, hidden=10, rng=np.random.default_rng(1))
        x = np.array([[0.2], [-0.4]])
        a, _ = netw.forward_raw(x, train=False)
        b, _ = netw.forward_raw(x, train=True)
        for name in netw.HEAD_NAMES:
            np.testing.assert_array_equal(a[name], b[name])

    def test_train_mode_with_dropout_requires_rng(self):
        netw = nn.GcpNetwork(1, hidden=10, dropout=0.3,
                             rng=np.random.default_rng(2))
        with pytest.raises(ValueError):
            netw.forward_raw(np.array([[0.1]]), train=True)

    def test_dropout_preserves_expectation(self):
        # inverted scaling keeps E[h] equal to the undropped activation
        rng = np.random.default_rng(3)
        netw = nn.GcpNetwork(1, hidden=20, dropout=0.4, rng=rng)
        x = np.array([[0.5]])
        clean, _ = netw.forward_raw(x, train=False)
        draws = np.empty(10000)
        drop_rng = np.random.default_rng(4)
        for i in range(draws.size):
            raws, _ = netw.forward_raw(x, train=True, rng=drop_rng)
            draws[i] = raws["m"][0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - clean["m"][0]) < 3.0 * se + 1e-12

    def test_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        netw = nn.GcpNetwork(2, hidden=6, rng=rng)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=4)
        raws, caches = netw.forward_raw(x)
        nll, head_grads = netw.loss_and_head_grads(raws, y)
        h = 1e-5
        for name in netw.HEAD_NAMES:
            for i in range(4):
                bumped = {k: v.copy() for k, v in raws.items()}
                bumped[name][i] += h
                up = netw.loss_and_head_grads(bumped, y)[0][i]
                bumped[name][i] -= 2 * h
                dn = netw.loss_and_head_grads(bumped, y)[0][i]
                np.testing.assert_allclose(head_grads[name][i],
                                           (up - dn) / (2.0 * h),
                                           rtol=1e-4, atol=1e-7)

    def test_full_parameter_gradient_by_finite_differences(self):
        # end to end: d(mean batch NLL)/d(theta) through relu, softplus
        rng = np.random.default_rng(6)
        netw = nn.GcpNetwork(2, hidden=5, rng=rng)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)

        def batch_nll():
            raws, _ = netw.forward_raw(x)
            return float(np.mean(netw.loss_and_head_grads(raws, y)[0]))

        raws, caches = netw.forward_raw(x)
        _, head_grads = netw.loss_and_head_grads(raws, y)
        checked = 0
        for name in netw.HEAD_NAMES:
            cache, mask = caches[name]
            grads = netw.heads[name].backward(x, cache,
                                              head_grads[name] / 6.0, mask)
            w1 = netw.heads[name].w1
            for k in rng.choice(w1.size, size=6, replace=False):
                orig = w1.ravel()[k]
                h = 1e-6 * max(1.0, abs(orig))
                w1.ravel()[k] = orig + h
                up = batch_nll()
                w1.ravel()[k] = orig - h
                dn = batch_nll()
                w1.ravel()[k] = orig
                np.testing.assert_allclose(grads["w1"].ravel()[k],
                                           (up - dn) / (2.0 * h),
                                           rtol=2e-4, atol=1e-7)
                checked += 1
        assert checked == 24


class TestGaussianNet:
    def test_nll_is_gaussian_formula(self):
        netw = nn.GaussianNet(1, hidden=8, rng=np.random.default_rng(0))
        x = np.array([[0.3]])
        y = np.array([0.7])
        raws, _ = netw.forward_raw(x)
        nll, _ = netw.loss_and_head_grads(raws, y)
        mean, logvar = raws["mean"][0], raws["logvar"][0]
        ref = 0.5 * (math.log(2.0 * math.pi) + logvar
                     + (y[0] - mean) ** 2 * math.exp(-logvar))
        np.testing.assert_allclose(nll[0], ref, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        netw = nn.GaussianNet(1, hidden=8, rng=rng)
        x = rng.normal(size=(5, 1))
        y = rng.normal(size=5)
        raws, _ = netw.forward_raw(x)
        _, grads = netw.loss_and_head_grads(raws, y)
        h = 1e-6
        for name in netw.HEAD_NAMES:
            for i in range(5):
                bumped = {k: v.copy() for k, v in raws.items()}
                bumped[name][i] += h
                up = netw.loss_and_head_grads(bumped, y)[0][i]
                bumped[name][i] -= 2 * h
                dn = netw.loss_and_head_grads(bumped, y)[0][i]
                np.testing.assert_allclose(grads[name][i], (up - dn) / (2 * h),
                                           rtol=1e-5, atol=1e-9)


class TestTraining:
    def test_same_seed_reproduces_bitwise(self):
        x, y = tiny_dataset()
        cfg = nn.TrainConfig(learning_rate=1e-3, epochs=5, batch_size=10, seed=7)
        nets = []
        for _ in range(2):
            netw = nn.GcpNetwork(1, hidden=10, dropout=0.2,
                                 rng=np.random.Generator(np.random.PCG64(42)))
            nn.train(netw, x, y, cfg)
            nets.append(netw)
        for name in nets[0].HEAD_NAMES:
            for key, val in nets[0].heads[name].params().items():
                np.testing.assert_array_equal(
                    val, nets[1].heads[name].params()[key])

    def test_loss_decreases_on_learnable_data(self):
        x, y = tiny_dataset()
        netw = nn.GcpNetwork(1, hidden=20, rng=np.random.Generator(np.random.PCG64(1)))
        cfg = nn.TrainConfig(learning_rate=1e-2, epochs=40, batch_size=20, seed=1)
        trace = nn.train(netw, x, y, cfg).epoch_nll
        assert trace[-1] < trace[0]
        # after the burn-in the trace should be mostly monotone
        tail = trace[8:]
        worsenings = sum(1 for a, b in zip(tail, tail[1:]) if b > a * 1.05)
        assert worsenings <= len(tail) // 5

    def test_divergence_reports_location(self):
        x = np.array([[1.0], [1.0]])
        y = np.array([1e155, -1e155])
        netw = nn.GcpNetwork(1, hidden=4, rng=np.random.Generator(np.random.PCG64(0)))
        cfg = nn.TrainConfig(learning_rate=1e308, epochs=50, batch_size=2, seed=0)
        with pytest.raises(nn.TrainingDiverged) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            nn.train(netw, x, y, cfg)
        assert info.value.epoch >= 0
        assert info.value.batch >= 0
        assert info.value.sample_index in (0, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            nn.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            nn.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            nn.TrainConfig(learning_rate=0.0)

    def test_shape_mismatch_rejected(self):
        netw = nn.GcpNetwork(1, hidden=4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.train(netw, np.zeros((3, 1)), np.zeros(4), nn.TrainConfig())


class TestEnsemble:
    def test_members_differ_and_kind_detected(self):
        x, y = tiny_dataset(40)
        cfg = nn.TrainConfig(epochs=2, batch_size=20, seed=0)
        ens, traces = nn.train_ensemble(1, x, y, cfg, n_members=3, hidden=6)
        assert all(isinstance(m, nn.GcpNetwork) for m in ens.members)
        assert len(traces) == 3
        w = [m.heads["m"].w1 for m in ens.members]
        assert not np.array_equal(w[0], w[1])
        assert not np.array_equal(w[1], w[2])

    def test_mixture_mean_and_variance(self):
        x, y = tiny_dataset(40)
        cfg = nn.TrainConfig(epochs=2, batch_size=20, seed=0)
        ens, _ = nn.train_ensemble(1, x, y, cfg, n_members=3, hidden=6)
        xq = np.array([[0.1], [-0.3]])
        mean, v_p, v_st, alpha = nn.ensemble_prognostic_arrays(ens, xq)
        per = [nn.prognostic_arrays(m, xq) for m in ens.members]
        means = np.stack([p[0] for p in per])
        vs = np.stack([p[1] for p in per])
        np.testing.assert_allclose(mean, means.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            v_p, (vs + means**2).mean(axis=0) - mean**2, rtol=1e-12)

    def test_student_variance_infinity_propagates(self):
        netw = nn.GcpNetwork(1, hidden=4, rng=np.random.Generator(np.random.PCG64(0)))
        # a fresh net has alpha = softplus(~0) < 1 everywhere
        _, _, v_st, alpha = nn.prognostic_arrays(netw, np.array([[0.0]]))
        assert alpha[0] < 1.0
        assert v_st[0] == math.inf
        ens = nn.Ensemble(members=[netw])
        _, _, v_st_mix, _ = nn.ensemble_prognostic_arrays(ens, np.array([[0.0]]))
        assert v_st_mix[0] == math.inf

class TestCheckpoint:
    def test_single_network_roundtrip_is_bitwise(self, tmp_path):
        x, y = tiny_dataset(30)
        netw = nn.GcpNetwork(1, hidden=6, dropout=0.1,
                             rng=np.random.Generator(np.random.PCG64(0)))
        nn.train(netw, x, y, nn.TrainConfig(epochs=2, batch_size=10, seed=1))
        path = os.path.join(tmp_path, "net.json")
        nn.save_checkpoint(path, netw, extra={"note": "roundtrip"})
        loaded, extra = nn.load_checkpoint(path)
        assert extra["note"] == "roundtrip"
        assert isinstance(loaded, nn.GcpNetwork)
        assert loaded.dropout == netw.dropout
        for name in netw.HEAD_NAMES:
            for key, val in netw.heads[name].params().items():
                np.testing.assert_array_equal(
                    val, loaded.heads[name].params()[key])

    def test_ensemble_roundtrip(self, tmp_path):
        x, y = tiny_dataset(30)
        cfg = nn.TrainConfig(epochs=1, batch_size=10, seed=2)
        ens, _ = nn.train_ensemble(1, x, y, cfg, n_members=2, hidden=5)
        path = os.path.join(tmp_path, "ens.json")
        nn.save_checkpoint(path, ens)
        loaded, _ = nn.load_checkpoint(path)
        assert isinstance(loaded, nn.Ensemble)
        assert all(isinstance(m, nn.GcpNetwork) for m in loaded.members)
        xq = np.array([[0.4]])
        np.testing.assert_array_equal(
            nn.ensemble_prognostic_arrays(ens, xq)[0],
            nn.ensemble_prognostic_arrays(loaded, xq)[0])

    def test_predictions_survive_roundtrip_exactly(self, tmp_path):
        netw = nn.GcpNetwork(2, hidden=7, rng=np.random.Generator(np.random.PCG64(4)))
        path = os.path.join(tmp_path, "net.json")
        nn.save_checkpoint(path, netw)
        loaded, _ = nn.load_checkpoint(path)
        xq = np.random.default_rng(0).normal(size=(9, 2))
        a = netw.predict_arrays(xq)
        b = loaded.predict_arrays(xq)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)
