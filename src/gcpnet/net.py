"""Single-hidden-layer regression networks with manual backprop and Adam.

`MlpHead` is the one network class: a ReLU MLP per output head, stacked
in one block whose weights share a flat buffer, with dropout, backprop
and Adam.  `GcpNetwork` names four heads (m, nu, alpha, beta) and maps the
raw precision-carrying outputs onto (0, inf) with a shifted softplus; the
Gaussian baseline `GaussianNet` names a mean head and a raw log-variance
head.  Each subclass adds only its predictions and its loss.
Initial weights come only from the generator the caller passes, and Adam
runs with fixed constants, so a seed pins a trained model bitwise; under
`fit`, the network of seed s draws its weights from PCG64(s).
Everything is plain numpy, so a trained model exports losslessly to JSON;
the export is not read back.
A one-column input broadcasts x * w1: matmul's rounding at half its cost.
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
from .special import NumericError, TrainingDiverged

POSITIVE_FLOOR = 1e-6
PARAM_NAMES = ("w1", "b1", "w2", "b2")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def softplus(x):
    """Numerically safe ln(1 + e^x) plus the positivity floor."""
    return np.logaddexp(0.0, x) + POSITIVE_FLOOR


class MlpHead:
    """One network: a scalar-output MLP per name in HEAD_NAMES, stacked in
    one block on a shared input: x -> relu(x W1 + b1) W2 + b2 per head.

    The parameters w1 (K, D, H), b1 (K, H), w2 (K, H) and b2 (K,) are views
    into one flat buffer; the gradients and the Adam moments are flat
    buffers of the same layout, so one vectorized update steps every head.
    Subclasses name the heads and supply the link functions and the loss.
    """

    HEAD_NAMES = ()

    def __init__(self, in_dim: int, hidden: int = 50, dropout: float = 0.0,
                 *, rng: np.random.Generator):
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if in_dim < 1 or hidden < 1:
            raise ValueError("in_dim and hidden must be at least 1")
        self.in_dim = in_dim
        self.hidden = hidden
        self.dropout = dropout
        n_heads = len(self.HEAD_NAMES)
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
        k, d, h = len(self.HEAD_NAMES), self.in_dim, self.hidden
        w1, b1, w2, b2 = np.split(buf, np.cumsum([k * d * h, k * h, k * h]))
        return w1.reshape(k, d, h), b1.reshape(k, h), w2.reshape(k, h), b2

    def params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def forward(self, x, train=False, rng=None):
        """(K, B) raw head outputs plus the cache for backward; dropout only
        when train=True.

        Each head gets its own inverted-dropout mask, scaled by 1/keep; one
        (K, B, H) draw from `rng` fills them in head order.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input has {x.shape[1]} columns, the network "
                             f"expects {self.in_dim}")
        mask = None
        if train and self.dropout > 0.0:
            if rng is None:
                raise ValueError("training-mode forward with dropout needs "
                                 "an rng")
            keep = 1.0 - self.dropout
            shape = (len(self.HEAD_NAMES), x.shape[0], self.hidden)
            mask = (rng.random(shape) < keep) / keep
        pre = x * self.w1 if self.in_dim == 1 else x @ self.w1
        pre += self.b1[:, None, :]
        h = np.maximum(pre, 0.0)
        if mask is not None:
            h *= mask
        out = (h @ self.w2[:, :, None])[:, :, 0]
        out += self.b2[:, None]
        return out, (pre, h, mask)

    def predict_heads(self, x):
        """Eval-mode (K, B) raw head outputs; a non-finite one, which
        trained weights that overflow give, is a NumericError."""
        raw, _ = self.forward(x)
        finite = np.isfinite(raw).all(axis=1)
        if not finite.all():
            raise NumericError(f"non-finite {self.HEAD_NAMES[finite.argmin()]}"
                               f" head output at prediction")
        return raw

    def backward(self, x, cache, dout):
        """Fill `grad` with the gradient of sum(dout * out) for the forward
        pass that returned `cache`."""
        pre, h, mask = cache
        g = self.grads
        np.matmul(h.transpose(0, 2, 1), dout[:, :, None],
                  out=g["w2"][:, :, None])
        dout.sum(axis=1, out=g["b2"])
        dpre = dout[:, :, None] * self.w2[:, None, :]
        if mask is not None:
            dpre *= mask
        dpre *= pre > 0.0
        np.matmul(x.T, dpre, out=g["w1"])
        dpre.sum(axis=1, out=g["b1"])

    def finite_heads(self):
        """Per head, whether every entry of its gradient is finite."""
        return [all(np.isfinite(g[k]).all() for g in self.grads.values())
                for k in range(len(self.HEAD_NAMES))]

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


class GcpNetwork(MlpHead):
    """Four-head network producing a normal-gamma belief per input."""

    HEAD_NAMES = ("m", "nu", "alpha", "beta")

    def predict_arrays(self, x):
        """Eval-mode belief parameters as four aligned arrays."""
        raw = self.predict_heads(x)
        nu, alpha, beta = softplus(raw[1:])
        return raw[0], nu, alpha, beta

    def loss_and_head_grads(self, raw, y):
        """Per-sample NLL plus its (K, B) gradient with respect to the raw
        head outputs."""
        nu, alpha, beta = softplus(raw[1:])
        nll, dm, dnu, dalpha, dbeta = nll_terms_arrays(raw[0], nu, alpha,
                                                       beta, y)
        dout = expit(raw)
        dout[0] = dm
        dout[1] *= dnu
        dout[2] *= dalpha
        dout[3] *= dbeta
        return nll, dout


class GaussianNet(MlpHead):
    """Mean/log-variance baseline trained on the Gaussian NLL."""

    HEAD_NAMES = ("mean", "logvar")

    def predict_arrays(self, x):
        """Eval-mode (mean, variance) arrays."""
        raw = self.predict_heads(x)
        return raw[0], np.exp(raw[1])

    def loss_and_head_grads(self, raw, y):
        mean, logvar = raw
        z = y - mean
        inv = np.exp(-logvar)
        r2 = z * z * inv
        nll = 0.5 * (LOG_2PI + logvar + r2)
        dout = np.empty_like(raw)
        dout[0] = -z * inv
        dout[1] = 0.5 * (1.0 - r2)
        return nll, dout


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
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")


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


# the loop checks every loss and gradient itself, so numpy's overflow
# warnings would only come before its typed error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
        xs, ys = x[order], y[order]
        total = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            stop = start + config.batch_size
            idx = order[start:stop]
            xb, yb = xs[start:stop], ys[start:stop]
            raw, cache = model.forward(xb, train=True, rng=rng)
            nll, dout = model.loss_and_head_grads(raw, yb)
            if not np.isfinite(nll).all():
                bad = int(idx[int(np.argmax(~np.isfinite(nll)))])
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}, "
                    f"sample {bad}")
            dout *= 1.0 / len(idx)
            model.backward(xb, cache, dout)
            if not np.isfinite(model.grad).all():
                bad = int(idx[_blamed_column(dout)])
                heads = [name for name, ok in zip(model.HEAD_NAMES,
                                                  model.finite_heads())
                         if not ok]
                raise TrainingDiverged(
                    f"non-finite gradient in heads {heads} at epoch "
                    f"{epoch}, batch {batch_no}, sample {bad}")
            model.adam_step(config.learning_rate)
            total += float(nll.sum())
        result.epoch_nll.append(total / n)
    return result


def fit(cls, in_dim, features, targets, config: TrainConfig, hidden=50,
        dropout=0.0):
    """The `cls` network of seed `config.seed`: initial weights from
    PCG64(seed), then `train` under `config`.  Returns (network, trace)."""
    model = cls(in_dim, hidden=hidden, dropout=dropout,
                rng=np.random.Generator(np.random.PCG64(config.seed)))
    return model, train(model, features, targets, config)


def train_ensemble(in_dim, features, targets, config: TrainConfig,
                   n_members: int = 5, hidden: int = 50,
                   dropout: float = 0.0) -> tuple[list, list]:
    """Train `n_members` GcpNetworks; the ensemble is the list of its members.

    Member 0 is the network of `config.seed`, the lone `fit` of that seed;
    members 1..k-1 are the networks of the integer seeds drawn from the
    k - 1 children spawned from SeedSequence(config.seed), in order.  So
    k members are the first k of k + 1.
    """
    if n_members < 1:
        raise ValueError("an ensemble needs at least one member")
    children = np.random.SeedSequence(config.seed).spawn(n_members - 1)
    seeds = [config.seed] + [int(seq.generate_state(1)[0])
                             for seq in children]
    members, traces = zip(*(fit(GcpNetwork, in_dim, features, targets,
                                 replace(config, seed=seed), hidden, dropout)
                             for seed in seeds))
    return list(members), list(traces)


def prognostic_arrays(net: GcpNetwork, x):
    """Vectorized prognostic summary: mean, corrected-family variance,
    heavy-tailed variance (inf sentinel when undefined), and alpha."""
    m, nu, alpha, beta = net.predict_arrays(x)
    v_p, v_st = prognostic_variances(nu, alpha, beta)
    return m, v_p, v_st, alpha


def ensemble_prognostic_arrays(members: list, x):
    """Mixture mean/variance across members.

    Variance is the mean member variance plus the mean squared deviation
    of the member means from the mixture mean, which does not cancel when
    the means are large; the heavy-tailed column is infinite whenever any
    member's is.
    """
    means, v_ps, v_sts, alphas = map(np.stack, zip(
        *(prognostic_arrays(net, x) for net in members)))
    mix_mean = means.mean(axis=0)
    spread = ((means - mix_mean)**2).mean(axis=0)

    def mixture_variance(variances):
        return variances.mean(axis=0) + spread

    finite = np.isfinite(v_sts)
    v_st_mix = np.where(finite.all(axis=0),
                        mixture_variance(np.where(finite, v_sts, 0.0)),
                        STUDENT_VARIANCE_INFINITE)
    return mix_mean, mixture_variance(v_ps), v_st_mix, alphas.mean(axis=0)


def _net_state(net):
    kind = "gcp" if isinstance(net, GcpNetwork) else "gaussian"
    params = net.params()
    return {
        "kind": kind, "in_dim": net.in_dim, "hidden": net.hidden,
        "dropout": net.dropout,
        "heads": {name: {key: value[k].tolist()
                         for key, value in params.items()}
                  for k, name in enumerate(net.HEAD_NAMES)},
    }


def save_checkpoint(path, model, extra=None):
    """Export the weights as JSON whose floats round-trip exactly; gcpnet
    does not read it back (a run is reproduced from its manifest.json)."""
    if isinstance(model, list):
        state = {"kind": "ensemble",
                 "members": [_net_state(member) for member in model]}
    else:
        state = _net_state(model)
    if extra:
        state["extra"] = extra
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    os.replace(tmp, path)
