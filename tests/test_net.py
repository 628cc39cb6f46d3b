"""Tests for the four-head network, its baseline, the seeded training loop,
and checkpoint serialization."""

import json
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
        head = nn.MlpHead(4, 3, 50, rng)
        lim = math.sqrt(6.0 / 3)
        assert head.w1.shape == (4, 3, 50)
        assert head.b1.shape == head.w2.shape == (4, 50)
        assert head.b2.shape == (4,)
        assert np.all(np.abs(head.w1) <= lim)
        assert np.all(head.b1 == 0.0)
        assert np.all(np.abs(head.w2) <= 0.01)
        assert np.all(head.b2 == 0.0)
        for value in head.params().values():
            assert np.shares_memory(value, head.flat)

    def test_initial_draws_follow_head_order(self):
        # w1 then w2 for each head in turn, as one head per object drew them
        head = nn.MlpHead(3, 2, 5, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        lim = math.sqrt(6.0 / 2)
        for k in range(3):
            np.testing.assert_array_equal(
                head.w1[k], rng.uniform(-lim, lim, size=(2, 5)))
            np.testing.assert_array_equal(
                head.w2[k], rng.uniform(-0.01, 0.01, size=5))

    def test_rejects_empty_layers(self):
        with pytest.raises(ValueError):
            nn.MlpHead(4, 2, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.MlpHead(4, 0, 5, np.random.default_rng(0))

    def test_block_matches_per_head_loop(self):
        # the per-head arithmetic the block replaced is the reference, and
        # the block must reproduce it bitwise
        rng = np.random.default_rng(4)
        head = nn.MlpHead(3, 4, 6, rng)
        x = rng.normal(size=(9, 4))
        mask = (rng.random((3, 9, 6)) < 0.7) / 0.7
        dout = rng.normal(size=(3, 9))
        ref = {name: value.copy() for name, value in head.params().items()}
        out, cache = head.forward(x, mask)
        head.backward(x, cache, dout, mask)
        head.adam_step(lr=1e-2)
        for k in range(3):
            w1, b1, w2, b2 = (ref[name][k] for name in nn.PARAM_NAMES)
            pre = x @ w1 + b1
            h = np.maximum(pre, 0.0) * mask[k]
            np.testing.assert_array_equal(out[k], h @ w2 + b2)
            dpre = np.outer(dout[k], w2) * mask[k] * (pre > 0.0)
            grads = {"w1": x.T @ dpre, "b1": dpre.sum(axis=0),
                     "w2": h.T @ dout[k], "b2": np.sum(dout[k])}
            for name, g in grads.items():
                np.testing.assert_array_equal(head.grads[name][k], g)
                m = 0.9 * 0.0 + (1.0 - 0.9) * g
                v = 0.999 * 0.0 + (1.0 - 0.999) * (g * g)
                mhat = m / (1.0 - 0.9**1)
                vhat = v / (1.0 - 0.999**1)
                np.testing.assert_array_equal(
                    head.params()[name][k],
                    ref[name][k] - 1e-2 * mhat / (np.sqrt(vhat) + 1e-8))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        head = nn.MlpHead(3, 2, 7, rng)
        x = rng.normal(size=(5, 2))
        dout = rng.normal(size=(3, 5))
        out, cache = head.forward(x)
        assert out.shape == (3, 5)
        head.backward(x, cache, dout)
        grads = {k: v.copy() for k, v in head.grads.items()}
        h = 1e-6

        def objective():
            return float(np.sum(head.forward(x)[0] * dout))

        for name in ("w1", "b1", "w2"):
            flat = getattr(head, name).ravel()
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for k in idx:
                orig = flat[k]
                flat[k] = orig + h
                up = objective()
                flat[k] = orig - h
                dn = objective()
                flat[k] = orig
                np.testing.assert_allclose(grads[name].ravel()[k],
                                           (up - dn) / (2.0 * h),
                                           rtol=1e-4, atol=1e-7)
        for k in range(3):
            head.b2[k] += h
            up = objective()
            head.b2[k] -= 2 * h
            dn = objective()
            head.b2[k] += h
            np.testing.assert_allclose(grads["b2"][k], (up - dn) / (2.0 * h),
                                       rtol=1e-6)

    def test_first_adam_step_is_signed_learning_rate(self):
        # with bias correction the first update is lr * g/(|g| + eps)
        rng = np.random.default_rng(2)
        head = nn.MlpHead(2, 2, 4, rng)
        before = head.flat.copy()
        w2_before = head.w2.copy()
        head.grads["w2"][:] = 0.25
        head.adam_step(lr=1e-3)
        np.testing.assert_allclose(w2_before - head.w2,
                                   1e-3 * 0.25 / (0.25 + 1e-8), rtol=1e-12)
        moved = head.flat != before
        np.testing.assert_array_equal(moved, head.grad != 0.0)

    def test_zero_gradient_leaves_params_unchanged(self):
        rng = np.random.default_rng(3)
        head = nn.MlpHead(2, 2, 4, rng)
        before = head.flat.copy()
        for _ in range(3):
            head.adam_step(lr=0.1)
        np.testing.assert_array_equal(head.flat, before)


class TestGcpNetwork:
    def test_forward_returns_valid_belief(self):
        # a single 1-d input row is promoted to a one-row batch
        netw = nn.GcpNetwork(1, hidden=10, rng=np.random.default_rng(0))
        m, nu, alpha, beta = netw.predict_arrays(np.array([0.3]))
        p = gcp.GcpParams(m=float(m[0]), nu=float(nu[0]),
                          alpha=float(alpha[0]), beta=float(beta[0]))
        assert p.nu > 0 and p.alpha > 0 and p.beta > 0

    def test_weights_need_an_explicit_rng(self):
        # an unseeded default would break the same-seed-same-model contract
        with pytest.raises(TypeError):
            nn.GcpNetwork(1)

    def test_eval_equals_train_without_dropout(self):
        netw = nn.GcpNetwork(1, hidden=10, rng=np.random.default_rng(1))
        x = np.array([[0.2], [-0.4]])
        a, _ = netw.forward_raw(x, train=False)
        b, _ = netw.forward_raw(x, train=True)
        assert a.shape == (len(netw.HEAD_NAMES), 2)
        np.testing.assert_array_equal(a, b)

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
            draws[i] = raws[0, 0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - clean[0, 0]) < 3.0 * se + 1e-12

    def test_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        netw = nn.GcpNetwork(2, hidden=6, rng=rng)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=4)
        raws, _ = netw.forward_raw(x)
        nll, head_grads = netw.loss_and_head_grads(raws, y)
        h = 1e-5
        for k in range(len(netw.HEAD_NAMES)):
            for i in range(4):
                bumped = raws.copy()
                bumped[k, i] += h
                up = netw.loss_and_head_grads(bumped, y)[0][i]
                bumped[k, i] -= 2 * h
                dn = netw.loss_and_head_grads(bumped, y)[0][i]
                np.testing.assert_allclose(head_grads[k, i],
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

        raws, (cache, mask) = netw.forward_raw(x)
        _, head_grads = netw.loss_and_head_grads(raws, y)
        netw.block.backward(x, cache, head_grads / 6.0, mask)
        grads = netw.block.grads["w1"].copy()
        checked = 0
        for head in range(len(netw.HEAD_NAMES)):
            w1 = netw.block.w1[head]
            for k in rng.choice(w1.size, size=6, replace=False):
                orig = w1.ravel()[k]
                h = 1e-6 * max(1.0, abs(orig))
                w1.ravel()[k] = orig + h
                up = batch_nll()
                w1.ravel()[k] = orig - h
                dn = batch_nll()
                w1.ravel()[k] = orig
                np.testing.assert_allclose(grads[head].ravel()[k],
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
        mean, logvar = raws[0, 0], raws[1, 0]
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
        for k in range(len(netw.HEAD_NAMES)):
            for i in range(5):
                bumped = raws.copy()
                bumped[k, i] += h
                up = netw.loss_and_head_grads(bumped, y)[0][i]
                bumped[k, i] -= 2 * h
                dn = netw.loss_and_head_grads(bumped, y)[0][i]
                np.testing.assert_allclose(grads[k, i], (up - dn) / (2 * h),
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
        np.testing.assert_array_equal(nets[0].block.flat, nets[1].block.flat)

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

    def test_nonfinite_gradient_blames_its_sample(self, monkeypatch):
        # the NLL stays finite; one sample's gradient column turns NaN
        x, y = tiny_dataset(12)
        netw = nn.GcpNetwork(1, hidden=4, rng=np.random.default_rng(0))
        clean = netw.loss_and_head_grads
        poisoned = []

        def poison(raw, yb):
            nll, dout = clean(raw, yb)
            dout[2, -1] = math.nan
            poisoned.append(yb[-1])
            return nll, dout

        monkeypatch.setattr(netw, "loss_and_head_grads", poison)
        with pytest.raises(nn.TrainingDiverged, match="alpha") as info:
            nn.train(netw, x, y, nn.TrainConfig(epochs=1, batch_size=6))
        assert (info.value.epoch, info.value.batch) == (0, 0)
        assert y[info.value.sample_index] == poisoned[0]

    def test_overflowed_gradient_blames_largest_sample(self, monkeypatch):
        # every gradient entry is finite, but large activations overflow
        # the w2 gradient of head m
        x, y = tiny_dataset(12)
        netw = nn.GcpNetwork(1, hidden=4, rng=np.random.default_rng(0))
        netw.block.b1[0] = 1e4
        clean = netw.loss_and_head_grads
        largest = []

        def inflate(raw, yb):
            nll, dout = clean(raw, yb)
            dout[0, 0] = 1e300
            dout[0, 3] = 1e307
            largest.append(yb[3])
            return nll, dout

        monkeypatch.setattr(netw, "loss_and_head_grads", inflate)
        with pytest.raises(nn.TrainingDiverged, match="'m'") as info, \
                np.errstate(over="ignore", invalid="ignore"):
            nn.train(netw, x, y, nn.TrainConfig(epochs=1, batch_size=6))
        assert y[info.value.sample_index] == largest[0]

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
        w = [m.block.w1[0] for m in ens.members]
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
        np.testing.assert_array_equal(loaded.block.flat, netw.block.flat)

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

    @staticmethod
    def corrupted(tmp_path, edit):
        netw = nn.GcpNetwork(2, hidden=3, rng=np.random.default_rng(0))
        path = os.path.join(tmp_path, "net.json")
        nn.save_checkpoint(path, netw)
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
        edit(state["heads"]["nu"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        return path

    def test_truncated_tensor_rejected(self, tmp_path):
        path = self.corrupted(tmp_path, lambda head: head["w1"].pop())
        with pytest.raises(ValueError, match="head 'nu' tensor 'w1'"):
            nn.load_checkpoint(path)

    def test_nonfinite_entry_rejected(self, tmp_path):
        def poison(head):
            head["b1"][1] = math.nan
        path = self.corrupted(tmp_path, poison)
        with pytest.raises(ValueError, match="head 'nu' tensor 'b1'"):
            nn.load_checkpoint(path)

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
