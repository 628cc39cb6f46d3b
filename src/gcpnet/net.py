"""Single-hidden-layer regression heads with manual backprop and Adam.

Four independent ReLU MLP heads, stacked in one block whose weights share a
flat buffer, predict the raw outputs; a shifted softplus maps the raw values
for the precision-carrying outputs onto (0, inf).  The Gaussian baseline
shares the same machinery with a mean head and a raw log-variance head.
Initial weights come only from the generator the caller passes, and Adam
runs with fixed constants, so a seed pins a trained model bitwise.
Everything is plain numpy so a trained model serializes losslessly to JSON.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .gcp import (LOG_2PI, STUDENT_VARIANCE_INFINITE, nll_terms_arrays,
                  prognostic_variances)

POSITIVE_FLOOR = 1e-6
PARAM_NAMES = ("w1", "b1", "w2", "b2")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def softplus(x):
    """Numerically safe ln(1 + e^x) plus the positivity floor."""
    return np.logaddexp(0.0, x) + POSITIVE_FLOOR


def softplus_grad(x):
    return expit(x)


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite mid-training."""

    def __init__(self, epoch, batch, sample_index, message):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.sample_index = sample_index


class MlpHead:
    """K scalar-output MLPs stacked in one block: x -> relu(x W1 + b1) W2 + b2.

    The parameters w1 (K, D, H), b1 (K, H), w2 (K, H) and b2 (K,) are views
    into one flat buffer; the gradients and the Adam moments are flat
    buffers of the same layout, so one vectorized update steps every head.
    """

    def __init__(self, n_heads: int, in_dim: int, hidden: int,
                 rng: np.random.Generator):
        if in_dim < 1 or hidden < 1:
            raise ValueError("in_dim and hidden must be at least 1")
        self.shape = (n_heads, in_dim, hidden)
        self.flat = np.zeros(n_heads * (in_dim * hidden + 2 * hidden + 1))
        self.grad = np.zeros_like(self.flat)
        self._adam_m = np.zeros_like(self.flat)
        self._adam_v = np.zeros_like(self.flat)
        self._adam_t = 0
        self.w1, self.b1, self.w2, self.b2 = self._views(self.flat)
        self.grads = dict(zip(PARAM_NAMES, self._views(self.grad)))
        lim = math.sqrt(6.0 / in_dim)
        for k in range(n_heads):
            self.w1[k] = rng.uniform(-lim, lim, size=(in_dim, hidden))
            self.w2[k] = rng.uniform(-0.01, 0.01, size=hidden)

    def _views(self, buf):
        k, d, h = self.shape
        w1, b1, w2, b2 = np.split(buf, np.cumsum([k * d * h, k * h, k * h]))
        return w1.reshape(k, d, h), b1.reshape(k, h), w2.reshape(k, h), b2

    def params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def forward(self, x, mask=None):
        """(K, B) outputs; `mask` is a pre-scaled (K, B, H) dropout mask."""
        pre = x @ self.w1 + self.b1[:, None, :]
        h = np.maximum(pre, 0.0)
        if mask is not None:
            h = h * mask
        out = (h @ self.w2[:, :, None])[:, :, 0] + self.b2[:, None]
        return out, (pre, h)

    def backward(self, x, cache, dout, mask=None):
        """Fill `grad` with the gradient of sum(dout * out); `mask` must
        match the forward pass."""
        pre, h = cache
        g = self.grads
        np.matmul(h.transpose(0, 2, 1), dout[:, :, None],
                  out=g["w2"][:, :, None])
        np.sum(dout, axis=1, out=g["b2"])
        dh = dout[:, :, None] * self.w2[:, None, :]
        if mask is not None:
            dh = dh * mask
        dpre = dh * (pre > 0.0)
        np.matmul(x.T, dpre, out=g["w1"])
        np.sum(dpre, axis=1, out=g["b1"])

    def finite_heads(self):
        """Per head, whether every entry of its gradient is finite."""
        return [all(np.isfinite(g[k]).all() for g in self.grads.values())
                for k in range(self.shape[0])]

    def adam_step(self, lr):
        """One bias-corrected Adam update of every head, applied in place."""
        self._adam_t += 1
        t = self._adam_t
        g, m, v = self.grad, self._adam_m, self._adam_v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        mhat = m / (1.0 - ADAM_BETA1**t)
        vhat = v / (1.0 - ADAM_BETA2**t)
        self.flat -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


class HeadNetwork:
    """One MlpHead block with a head per name in HEAD_NAMES, on a shared
    input."""

    HEAD_NAMES = ()

    def __init__(self, in_dim: int, hidden: int = 50, dropout: float = 0.0,
                 *, rng: np.random.Generator):
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        self.in_dim = in_dim
        self.hidden = hidden
        self.dropout = dropout
        self.block = MlpHead(len(self.HEAD_NAMES), in_dim, hidden, rng)

    def forward_raw(self, x, train=False, rng=None):
        """(K, B) raw head outputs plus (cache, mask); dropout only when
        train=True.

        Each head gets its own inverted-dropout mask, scaled by 1/keep; one
        (K, B, H) draw from `rng` fills them in head order.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mask = None
        if train and self.dropout > 0.0:
            if rng is None:
                raise ValueError("training-mode forward with dropout needs "
                                 "an rng")
            keep = 1.0 - self.dropout
            shape = (len(self.HEAD_NAMES), x.shape[0], self.hidden)
            mask = (rng.random(shape) < keep) / keep
        raw, cache = self.block.forward(x, mask)
        return raw, (cache, mask)


class GcpNetwork(HeadNetwork):
    """Four-head network producing a normal-gamma belief per input."""

    HEAD_NAMES = ("m", "nu", "alpha", "beta")

    def predict_arrays(self, x):
        """Eval-mode belief parameters as four aligned arrays."""
        raw, _ = self.forward_raw(x, train=False)
        nu, alpha, beta = softplus(raw[1:])
        return raw[0], nu, alpha, beta

    def loss_and_head_grads(self, raw, y):
        """Per-sample NLL plus its (K, B) gradient with respect to the raw
        head outputs."""
        nu, alpha, beta = softplus(raw[1:])
        nll, dm, dnu, dalpha, dbeta = nll_terms_arrays(raw[0], nu, alpha,
                                                       beta, y)
        dout = np.empty_like(raw)
        dout[0] = dm
        dout[1:] = np.stack((dnu, dalpha, dbeta)) * softplus_grad(raw[1:])
        return nll, dout


class GaussianNet(HeadNetwork):
    """Mean/log-variance baseline trained on the Gaussian NLL."""

    HEAD_NAMES = ("mean", "logvar")

    def predict_arrays(self, x):
        """Eval-mode (mean, variance) arrays."""
        raw, _ = self.forward_raw(x, train=False)
        return raw[0], np.exp(raw[1])

    def loss_and_head_grads(self, raw, y):
        mean, logvar = raw
        z = y - mean
        inv = np.exp(-logvar)
        nll = 0.5 * (LOG_2PI + logvar + z * z * inv)
        return nll, np.stack((-z * inv, 0.5 * (1.0 - z * z * inv)))


@dataclass
class TrainConfig:
    """Optimizer and schedule settings for the minibatch loop."""

    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainResult:
    epoch_nll: list = field(default_factory=list)


def _blamed_column(dout):
    """Batch column behind a non-finite gradient: the first with a
    non-finite entry, else (only a reduction overflowed) the largest."""
    bad = ~np.isfinite(dout).all(axis=0)
    if bad.any():
        return int(np.argmax(bad))
    return int(np.argmax(np.abs(dout).max(axis=0)))


def train(model, features, targets, config: TrainConfig) -> TrainResult:
    """Seeded minibatch training; returns the per-epoch mean NLL trace.

    The same seed reproduces the run bitwise: one generator drives the
    per-epoch shuffles and every dropout mask in order.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("features must be 2-d and aligned with 1-d targets")
    n = x.shape[0]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    result = TrainResult()
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], y[idx]
            raw, (cache, mask) = model.forward_raw(xb, train=True, rng=rng)
            nll, dout = model.loss_and_head_grads(raw, yb)
            if not np.all(np.isfinite(nll)):
                bad = int(idx[int(np.argmax(~np.isfinite(nll)))])
                raise TrainingDiverged(
                    epoch, batch_no, bad,
                    f"non-finite loss at epoch {epoch}, batch {batch_no}, "
                    f"sample {bad}")
            dout *= 1.0 / len(idx)
            block = model.block
            block.backward(xb, cache, dout, mask)
            if not np.isfinite(block.grad).all():
                bad = int(idx[_blamed_column(dout)])
                heads = [name for name, ok in zip(model.HEAD_NAMES,
                                                  block.finite_heads())
                         if not ok]
                raise TrainingDiverged(
                    epoch, batch_no, bad,
                    f"non-finite gradient in heads {heads} at epoch "
                    f"{epoch}, batch {batch_no}, sample {bad}")
            block.adam_step(config.learning_rate)
            total += float(np.sum(nll))
        result.epoch_nll.append(total / n)
    return result


@dataclass
class Ensemble:
    """Independently initialized and trained members of one architecture."""

    members: list


def train_ensemble(in_dim, features, targets, config: TrainConfig,
                   n_members: int = 5, hidden: int = 50,
                   dropout: float = 0.0) -> tuple[Ensemble, list]:
    """Train `n_members` GcpNetworks from independently spawned seed streams."""
    seeds = np.random.SeedSequence(config.seed).spawn(n_members)
    members, traces = [], []
    for seq in seeds:
        rng = np.random.Generator(np.random.PCG64(seq))
        net = GcpNetwork(in_dim, hidden=hidden, dropout=dropout, rng=rng)
        member_config = replace(config, seed=int(seq.generate_state(1)[0]))
        traces.append(train(net, features, targets, member_config))
        members.append(net)
    return Ensemble(members), traces


def prognostic_arrays(net: GcpNetwork, x):
    """Vectorized prognostic summary: mean, corrected-family variance,
    heavy-tailed variance (inf sentinel when undefined), and alpha."""
    m, nu, alpha, beta = net.predict_arrays(x)
    v_p, v_st = prognostic_variances(nu, alpha, beta)
    return m, v_p, v_st, alpha


def ensemble_prognostic_arrays(ensemble: Ensemble, x):
    """Mixture mean/variance across members.

    Variance is the mixture second moment minus the squared mixture mean;
    the heavy-tailed column is infinite whenever any member's is.
    """
    means, v_ps, v_sts, alphas = map(np.stack, zip(
        *(prognostic_arrays(net, x) for net in ensemble.members)))
    mix_mean = means.mean(axis=0)

    def mixture_variance(variances):
        return (variances + means**2).mean(axis=0) - mix_mean**2

    finite = np.isfinite(v_sts)
    v_st_mix = np.where(finite.all(axis=0),
                        mixture_variance(np.where(finite, v_sts, 0.0)),
                        STUDENT_VARIANCE_INFINITE)
    return mix_mean, mixture_variance(v_ps), v_st_mix, alphas.mean(axis=0)


def _net_state(net):
    kind = "gcp" if isinstance(net, GcpNetwork) else "gaussian"
    params = net.block.params()
    return {
        "kind": kind, "in_dim": net.in_dim, "hidden": net.hidden,
        "dropout": net.dropout,
        "heads": {name: {key: value[k].tolist()
                         for key, value in params.items()}
                  for k, name in enumerate(net.HEAD_NAMES)},
    }


def _net_from_state(state):
    """Rebuild one network, checking every head tensor's shape against
    (in_dim, hidden) and every value for finiteness."""
    cls = GcpNetwork if state["kind"] == "gcp" else GaussianNet
    net = cls(state["in_dim"], hidden=state["hidden"], dropout=state["dropout"],
              rng=np.random.default_rng(0))
    for k, name in enumerate(net.HEAD_NAMES):
        head = state["heads"].get(name)
        if not isinstance(head, dict):
            raise ValueError(f"checkpoint head {name!r} is missing")
        for key, target in net.block.params().items():
            where = f"checkpoint head {name!r} tensor {key!r}"
            try:
                value = np.asarray(head[key], dtype=float)
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"{where} is missing or not numeric")
            if value.shape != target.shape[1:]:
                raise ValueError(f"{where} has shape {value.shape}, expected "
                                 f"{target.shape[1:]}")
            if not np.isfinite(value).all():
                raise ValueError(f"{where} holds a non-finite value")
            target[k] = value
    return net


def save_checkpoint(path, model, extra=None):
    """JSON checkpoint whose floats round-trip exactly."""
    if isinstance(model, Ensemble):
        state = {"kind": "ensemble",
                 "members": [_net_state(member) for member in model.members]}
    else:
        state = _net_state(model)
    if extra:
        state["extra"] = extra
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Rebuild the model saved by save_checkpoint; returns (model, extra)."""
    with open(path, encoding="utf-8") as fh:
        state = json.load(fh)
    extra = state.get("extra")
    if state["kind"] == "ensemble":
        return Ensemble([_net_from_state(s) for s in state["members"]]), extra
    return _net_from_state(state), extra
