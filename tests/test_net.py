"""Tests for the four-head network, its baseline, the seeded training loop,
and the checkpoint export."""

import json
import math
import os

import numpy as np
import pytest
import scipy.special as sc

from gcpnet import gcp
from gcpnet import net as nn
from gcpnet.special import NumericError


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


def stacked(n_heads, in_dim, hidden, rng, dropout=0.0):
    """An MlpHead network of `n_heads` anonymous heads."""
    names = tuple(f"h{k}" for k in range(n_heads))
    cls = type("Stacked", (nn.MlpHead,), {"HEAD_NAMES": names})
    return cls(in_dim, hidden, dropout, rng=rng)


class TestMlpHead:
    def test_initialization_layout(self):
        rng = np.random.default_rng(0)
        head = stacked(4, 3, 50, rng)
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
        head = stacked(3, 2, 5, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        lim = math.sqrt(6.0 / 2)
        for k in range(3):
            np.testing.assert_array_equal(
                head.w1[k], rng.uniform(-lim, lim, size=(2, 5)))
            np.testing.assert_array_equal(
                head.w2[k], rng.uniform(-0.01, 0.01, size=5))

    def test_rejects_empty_layers(self):
        with pytest.raises(ValueError):
            stacked(4, 2, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            stacked(4, 0, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("dropout", [-0.1, 1.0])
    def test_rejects_dropout_outside_unit_interval(self, dropout):
        with pytest.raises(ValueError, match="dropout"):
            stacked(2, 2, 4, np.random.default_rng(0), dropout=dropout)

    @pytest.mark.parametrize("in_dim", [1, 4])
    def test_block_matches_per_head_loop(self, in_dim):
        # the per-head arithmetic the block replaced is the reference, and
        # the block must reproduce it bitwise; in_dim 1 takes the broadcast
        # product in place of matmul, signed zeros included
        rng = np.random.default_rng(4)
        head = stacked(3, in_dim, 6, rng, dropout=0.3)
        x = rng.normal(size=(9, in_dim))
        x[2, 0], x[5, 0] = 0.0, -0.0
        dout = rng.normal(size=(3, 9))
        ref = {name: value.copy() for name, value in head.params().items()}
        out, cache = head.forward(x, train=True, rng=np.random.default_rng(8))
        # one (K, B, H) draw, scaled by 1/keep, makes every head's mask
        keep = 1.0 - 0.3
        mask = (np.random.default_rng(8).random((3, 9, 6)) < keep) / keep
        np.testing.assert_array_equal(cache[2], mask)
        head.backward(x, cache, dout)
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
        head = stacked(3, 2, 7, rng)
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
        head = stacked(2, 2, 4, rng)
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
        head = stacked(2, 2, 4, rng)
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
        a, _ = netw.forward(x, train=False)
        b, _ = netw.forward(x, train=True)
        assert a.shape == (len(netw.HEAD_NAMES), 2)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("in_dim, width", [(3, 1), (1, 3)])
    def test_input_width_must_match(self, in_dim, width):
        # a one-column input once broadcast against any in_dim
        netw = nn.GcpNetwork(in_dim, hidden=4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError,
                           match=f"{width} columns, the network expects "
                                 f"{in_dim}"):
            netw.predict_arrays(np.full((2, width), 0.5))

    @pytest.mark.parametrize("cls, head", [(nn.GcpNetwork, "beta"),
                                           (nn.GaussianNet, "logvar")])
    def test_non_finite_head_output_is_a_numeric_error(self, cls, head):
        netw = cls(1, hidden=4, rng=np.random.default_rng(0))
        netw.b2[cls.HEAD_NAMES.index(head)] = np.inf
        with pytest.raises(NumericError, match=f"non-finite {head} head"):
            netw.predict_arrays(np.array([[0.5]]))

    def test_train_mode_with_dropout_requires_rng(self):
        netw = nn.GcpNetwork(1, hidden=10, dropout=0.3,
                             rng=np.random.default_rng(2))
        with pytest.raises(ValueError):
            netw.forward(np.array([[0.1]]), train=True)

    def test_dropout_preserves_expectation(self):
        # inverted scaling keeps E[h] equal to the undropped activation
        rng = np.random.default_rng(3)
        netw = nn.GcpNetwork(1, hidden=20, dropout=0.4, rng=rng)
        x = np.array([[0.5]])
        clean, _ = netw.forward(x, train=False)
        draws = np.empty(10000)
        drop_rng = np.random.default_rng(4)
        for i in range(draws.size):
            raws, _ = netw.forward(x, train=True, rng=drop_rng)
            draws[i] = raws[0, 0]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - clean[0, 0]) < 3.0 * se + 1e-12

    def test_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        netw = nn.GcpNetwork(2, hidden=6, rng=rng)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=4)
        raws, _ = netw.forward(x)
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
            raws, _ = netw.forward(x)
            return float(np.mean(netw.loss_and_head_grads(raws, y)[0]))

        raws, cache = netw.forward(x)
        _, head_grads = netw.loss_and_head_grads(raws, y)
        netw.backward(x, cache, head_grads / 6.0)
        grads = netw.grads["w1"].copy()
        checked = 0
        for head in range(len(netw.HEAD_NAMES)):
            w1 = netw.w1[head]
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
        raws, _ = netw.forward(x)
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
        raws, _ = netw.forward(x)
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


def _reference_loss(model, raw, y):
    """The losses as written before they filled dout in place and shared
    their repeated subexpressions."""
    if isinstance(model, nn.GaussianNet):
        mean, logvar = raw
        z = y - mean
        inv = np.exp(-logvar)
        nll = 0.5 * (gcp.LOG_2PI + logvar + z * z * inv)
        return nll, np.stack((-z * inv, 0.5 * (1.0 - z * z * inv)))
    m = raw[0]
    nu, alpha, beta = nn.softplus(raw[1:])
    sigma = beta * (nu + 1.0) / nu
    z = y - m
    den = 2.0 * sigma + z * z
    core = (alpha * z * z - sigma) / den
    log_term = np.log1p(z * z / (2.0 * sigma))
    nll = (sc.gammaln(alpha) - sc.gammaln(alpha + 0.5)
           + 0.5 * gcp.LOG_2PI + 0.5 * np.log(sigma)
           + (alpha + 0.5) * log_term)
    dm = -(2.0 * alpha + 1.0) * z / den
    dnu = core / (nu * (nu + 1.0))
    dalpha = sc.psi(alpha) - sc.psi(alpha + 0.5) + log_term
    dbeta = -core / beta
    dout = np.empty_like(raw)
    dout[0] = dm
    dout[1:] = np.stack((dnu, dalpha, dbeta)) * nn.softplus_grad(raw[1:])
    return nll, dout


def _reference_train(model, x, y, config):
    """The training loop and block arithmetic as written before the in-place
    step: a gathered copy per batch, matmul for every input width and a
    fresh array at each stage; Adam is the block's own."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    block, g = model, model.grads
    n = len(y)
    epoch_nll = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], y[idx]
            mask = None
            if model.dropout > 0.0:
                keep = 1.0 - model.dropout
                shape = (len(model.HEAD_NAMES), len(idx), model.hidden)
                mask = (rng.random(shape) < keep) / keep
            pre = xb @ block.w1 + block.b1[:, None, :]
            h = np.maximum(pre, 0.0)
            if mask is not None:
                h = h * mask
            raw = (h @ block.w2[:, :, None])[:, :, 0] + block.b2[:, None]
            nll, dout = _reference_loss(model, raw, yb)
            dout *= 1.0 / len(idx)
            np.matmul(h.transpose(0, 2, 1), dout[:, :, None],
                      out=g["w2"][:, :, None])
            np.sum(dout, axis=1, out=g["b2"])
            dh = dout[:, :, None] * block.w2[:, None, :]
            if mask is not None:
                dh = dh * mask
            dpre = dh * (pre > 0.0)
            np.matmul(xb.T, dpre, out=g["w1"])
            np.sum(dpre, axis=1, out=g["b1"])
            block.adam_step(config.learning_rate)
            total += float(np.sum(nll))
        epoch_nll.append(total / n)
    return epoch_nll


class TestTraining:
    @pytest.mark.parametrize("cls", [nn.GcpNetwork, nn.GaussianNet])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("in_dim", [1, 3])
    def test_train_matches_reference_loop_bitwise(self, cls, dropout, in_dim):
        # 53 rows leave a short last batch of 13; heavy-tailed targets and
        # exact signed zeros in x exercise the loss and the in_dim 1 path
        rng = np.random.default_rng(in_dim)
        x = rng.normal(size=(53, in_dim))
        x[4, 0], x[9, 0] = 0.0, -0.0
        y = np.sin(x.sum(axis=1)) + 0.3 * rng.standard_t(2, size=53)
        cfg = nn.TrainConfig(learning_rate=1e-2, epochs=6, batch_size=20,
                             seed=5)
        nets = [cls(in_dim, hidden=9, dropout=dropout,
                    rng=np.random.default_rng(11)) for _ in range(2)]
        trace = nn.train(nets[0], x, y, cfg).epoch_nll
        ref_trace = _reference_train(nets[1], x, y, cfg)
        assert np.array(trace).tobytes() == np.array(ref_trace).tobytes()
        assert nets[0].flat.tobytes() == nets[1].flat.tobytes()

    def test_same_seed_reproduces_bitwise(self):
        x, y = tiny_dataset()
        cfg = nn.TrainConfig(learning_rate=1e-3, epochs=5, batch_size=10, seed=7)
        nets = []
        for _ in range(2):
            netw = nn.GcpNetwork(1, hidden=10, dropout=0.2,
                                 rng=np.random.Generator(np.random.PCG64(42)))
            nn.train(netw, x, y, cfg)
            nets.append(netw)
        np.testing.assert_array_equal(nets[0].flat, nets[1].flat)

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
        netw.b1[0] = 1e4
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
        for lr in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="learning_rate"):
                nn.TrainConfig(learning_rate=lr)

    def test_shape_mismatch_rejected(self):
        netw = nn.GcpNetwork(1, hidden=4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.train(netw, np.zeros((3, 1)), np.zeros(4), nn.TrainConfig())


class TestEnsemble:
    def test_members_differ_and_kind_detected(self):
        x, y = tiny_dataset(40)
        cfg = nn.TrainConfig(epochs=2, batch_size=20, seed=0)
        ens, traces = nn.train_ensemble(1, x, y, cfg, n_members=3, hidden=6)
        assert all(isinstance(m, nn.GcpNetwork) for m in ens)
        assert len(ens) == len(traces) == 3
        w = [m.w1[0] for m in ens]
        assert not np.array_equal(w[0], w[1])
        assert not np.array_equal(w[1], w[2])

    def test_first_member_is_the_lone_network_of_the_seed(self):
        x, y = tiny_dataset(40)
        cfg = nn.TrainConfig(epochs=3, batch_size=15, seed=9)
        ens, traces = nn.train_ensemble(1, x, y, cfg, n_members=2, hidden=6,
                                        dropout=0.2)
        lone = nn.GcpNetwork(1, hidden=6, dropout=0.2,
                             rng=np.random.Generator(np.random.PCG64(9)))
        trace = nn.train(lone, x, y, cfg).epoch_nll
        assert ens[0].flat.tobytes() == lone.flat.tobytes()
        assert (np.array(traces[0].epoch_nll).tobytes()
                == np.array(trace).tobytes())

    def test_members_nest(self):
        x, y = tiny_dataset(40)
        cfg = nn.TrainConfig(epochs=2, batch_size=20, seed=4)
        small, small_traces = nn.train_ensemble(1, x, y, cfg, n_members=2,
                                                hidden=5)
        big, big_traces = nn.train_ensemble(1, x, y, cfg, n_members=3,
                                            hidden=5)
        for a, b, ta, tb in zip(small, big, small_traces, big_traces):
            assert a.flat.tobytes() == b.flat.tobytes()
            assert (np.array(ta.epoch_nll).tobytes()
                    == np.array(tb.epoch_nll).tobytes())

    @pytest.mark.parametrize("n_members", [0, -1])
    def test_needs_a_member(self, n_members):
        x, y = tiny_dataset(20)
        with pytest.raises(ValueError, match="at least one member"):
            nn.train_ensemble(1, x, y, nn.TrainConfig(epochs=1),
                              n_members=n_members)

    def test_mixture_variance_does_not_cancel(self, monkeypatch):
        # members given as their prognostic arrays (mean, v_p, v_st,
        # alpha); the second moments 1e16 + 1.547 would round to 2.0
        members = [tuple(np.array([v]) for v in (mean, 1.547, 1.547, 2.0))
                   for mean in (1e8, 1e8 + 1.0)]
        monkeypatch.setattr(nn, "prognostic_arrays", lambda member, x: member)
        mean, v_p, v_st, alpha = nn.ensemble_prognostic_arrays(members, None)
        assert mean[0] == 1e8 + 0.5 and alpha[0] == 2.0
        assert v_p[0] == v_st[0] == 1.547 + 0.25

    def test_mixture_mean_and_variance(self):
        x, y = tiny_dataset(40)
        cfg = nn.TrainConfig(epochs=2, batch_size=20, seed=0)
        ens, _ = nn.train_ensemble(1, x, y, cfg, n_members=3, hidden=6)
        xq = np.array([[0.1], [-0.3]])
        mean, v_p, v_st, alpha = nn.ensemble_prognostic_arrays(ens, xq)
        per = [nn.prognostic_arrays(m, xq) for m in ens]
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
        _, _, v_st_mix, _ = nn.ensemble_prognostic_arrays([netw],
                                                          np.array([[0.0]]))
        assert v_st_mix[0] == math.inf

class TestCheckpoint:
    """checkpoint.json is an export gcpnet does not read back: json.load of
    it gives each head's tensors bitwise, with the network's fields."""

    @staticmethod
    def written(tmp_path, model, extra=None):
        path = os.path.join(tmp_path, "net.json")
        nn.save_checkpoint(path, model, extra=extra)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def assert_net_state(state, netw, kind):
        assert state["kind"] == kind
        assert (state["in_dim"], state["hidden"], state["dropout"]) == (
            netw.in_dim, netw.hidden, netw.dropout)
        assert list(state["heads"]) == list(netw.HEAD_NAMES)
        for k, name in enumerate(netw.HEAD_NAMES):
            for key, value in netw.params().items():
                np.testing.assert_array_equal(
                    np.asarray(state["heads"][name][key]), value[k])

    def test_single_network_roundtrip_is_bitwise(self, tmp_path):
        x, y = tiny_dataset(30)
        netw = nn.GcpNetwork(1, hidden=6, dropout=0.1,
                             rng=np.random.Generator(np.random.PCG64(0)))
        nn.train(netw, x, y, nn.TrainConfig(epochs=2, batch_size=10, seed=1))
        state = self.written(tmp_path, netw, extra={"note": "export"})
        self.assert_net_state(state, netw, "gcp")
        assert state["extra"] == {"note": "export"}

    def test_gaussian_network_roundtrip(self, tmp_path):
        netw = nn.GaussianNet(2, hidden=7,
                              rng=np.random.Generator(np.random.PCG64(4)))
        state = self.written(tmp_path, netw)
        self.assert_net_state(state, netw, "gaussian")
        assert "extra" not in state

    def test_ensemble_roundtrip(self, tmp_path):
        x, y = tiny_dataset(30)
        cfg = nn.TrainConfig(epochs=1, batch_size=10, seed=2)
        ens, _ = nn.train_ensemble(1, x, y, cfg, n_members=2, hidden=5)
        state = self.written(tmp_path, ens)
        assert state["kind"] == "ensemble" and len(state["members"]) == 2
        for member_state, member in zip(state["members"], ens):
            self.assert_net_state(member_state, member, "gcp")
