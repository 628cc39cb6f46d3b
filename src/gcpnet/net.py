"""Single-hidden-layer regression heads with manual backprop and Adam.

Four independent ReLU MLP heads predict the raw outputs; a shifted softplus
maps the raw values for the precision-carrying outputs onto (0, inf).  The
Gaussian baseline shares the same machinery with a mean head and a raw
log-variance head.  Everything is plain numpy so a trained model serializes
losslessly to JSON.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .gcp import STUDENT_VARIANCE_INFINITE, nll_terms_arrays
from .special import alpha_table

POSITIVE_FLOOR = 1e-6


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
    """One scalar-output MLP: x -> relu(x W1 + b1) W2 + b2."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        lim = math.sqrt(6.0 / in_dim)
        self.w1 = rng.uniform(-lim, lim, size=(in_dim, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.uniform(-0.01, 0.01, size=hidden)
        self.b2 = 0.0
        self._adam_m = {}
        self._adam_v = {}
        self._adam_t = 0

    def params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def forward(self, x, mask=None):
        """Batched forward pass; `mask` is a pre-scaled inverted-dropout mask."""
        pre = x @ self.w1 + self.b1
        h = np.maximum(pre, 0.0)
        if mask is not None:
            h = h * mask
        out = h @ self.w2 + self.b2
        return out, (pre, h)

    def backward(self, x, cache, dout, mask=None):
        """Gradients of sum(dout * out); `mask` must match the forward pass."""
        pre, h = cache
        dw2 = h.T @ dout
        db2 = float(np.sum(dout))
        dh = np.outer(dout, self.w2)
        if mask is not None:
            dh = dh * mask
        dpre = dh * (pre > 0.0)
        dw1 = x.T @ dpre
        db1 = dpre.sum(axis=0)
        return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}

    def adam_step(self, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        """One bias-corrected Adam update applied in place."""
        self._adam_t += 1
        t = self._adam_t
        for name, value in self.params().items():
            g = grads[name]
            m = self._adam_m.get(name, 0.0)
            v = self._adam_v.get(name, 0.0)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            self._adam_m[name] = m
            self._adam_v[name] = v
            mhat = m / (1.0 - beta1**t)
            vhat = v / (1.0 - beta2**t)
            setattr(self, name, value - lr * mhat / (np.sqrt(vhat) + eps))


class HeadNetwork:
    """Independent MlpHeads, one per name in HEAD_NAMES, on a shared input."""

    HEAD_NAMES = ()

    def __init__(self, in_dim: int, hidden: int = 50, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng()
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        self.in_dim = in_dim
        self.hidden = hidden
        self.dropout = dropout
        self.heads = {name: MlpHead(in_dim, hidden, rng) for name in self.HEAD_NAMES}

    def forward_raw(self, x, train=False, rng=None):
        """Raw head outputs plus caches; dropout only when train=True.

        Each head gets its own inverted-dropout mask, scaled by 1/keep and
        drawn from `rng` in head order.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        drop = train and self.dropout > 0.0
        if drop and rng is None:
            raise ValueError("training-mode forward with dropout needs an rng")
        keep = 1.0 - self.dropout
        raws, caches = {}, {}
        for name in self.HEAD_NAMES:
            mask = None
            if drop:
                mask = (rng.random((x.shape[0], self.hidden)) < keep) / keep
            out, cache = self.heads[name].forward(x, mask)
            raws[name] = out
            caches[name] = (cache, mask)
        return raws, caches


class GcpNetwork(HeadNetwork):
    """Four-head network producing a normal-gamma belief per input."""

    HEAD_NAMES = ("m", "nu", "alpha", "beta")

    def predict_arrays(self, x):
        """Eval-mode belief parameters as four aligned arrays."""
        raws, _ = self.forward_raw(x, train=False)
        return (raws["m"], softplus(raws["nu"]), softplus(raws["alpha"]),
                softplus(raws["beta"]))

    def loss_and_head_grads(self, raws, y):
        """Per-sample NLL plus gradients with respect to each raw head output."""
        m = raws["m"]
        nu = softplus(raws["nu"])
        alpha = softplus(raws["alpha"])
        beta = softplus(raws["beta"])
        nll, dm, dnu, dalpha, dbeta = nll_terms_arrays(m, nu, alpha, beta, y)
        grads = {
            "m": dm,
            "nu": dnu * softplus_grad(raws["nu"]),
            "alpha": dalpha * softplus_grad(raws["alpha"]),
            "beta": dbeta * softplus_grad(raws["beta"]),
        }
        return nll, grads


class GaussianNet(HeadNetwork):
    """Mean/log-variance baseline trained on the Gaussian NLL."""

    HEAD_NAMES = ("mean", "logvar")

    def predict_arrays(self, x):
        """Eval-mode (mean, variance) arrays."""
        raws, _ = self.forward_raw(x, train=False)
        return raws["mean"], np.exp(raws["logvar"])

    def loss_and_head_grads(self, raws, y):
        mean = raws["mean"]
        logvar = raws["logvar"]
        z = y - mean
        inv = np.exp(-logvar)
        nll = 0.5 * (math.log(2.0 * math.pi) + logvar + z * z * inv)
        grads = {
            "mean": -z * inv,
            "logvar": 0.5 * (1.0 - z * z * inv),
        }
        return nll, grads


@dataclass
class TrainConfig:
    """Optimizer and schedule settings for the minibatch loop."""

    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 20
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999

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
            raws, caches = model.forward_raw(xb, train=True, rng=rng)
            nll, head_grads = model.loss_and_head_grads(raws, yb)
            if not np.all(np.isfinite(nll)):
                bad = int(idx[int(np.argmax(~np.isfinite(nll)))])
                raise TrainingDiverged(
                    epoch, batch_no, bad,
                    f"non-finite loss at epoch {epoch}, batch {batch_no}, "
                    f"sample {bad}")
            scale = 1.0 / len(idx)
            for name in model.HEAD_NAMES:
                cache, mask = caches[name]
                dout = head_grads[name] * scale
                grads = model.heads[name].backward(xb, cache, dout, mask)
                if not all(np.all(np.isfinite(g)) for g in grads.values()):
                    bad = int(idx[0])
                    raise TrainingDiverged(
                        epoch, batch_no, bad,
                        f"non-finite gradient in head '{name}' at epoch "
                        f"{epoch}, batch {batch_no}")
                model.heads[name].adam_step(
                    grads, config.learning_rate, config.beta1, config.beta2)
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
        member_config = TrainConfig(
            learning_rate=config.learning_rate, epochs=config.epochs,
            batch_size=config.batch_size, seed=int(seq.generate_state(1)[0]),
            beta1=config.beta1, beta2=config.beta2)
        traces.append(train(net, features, targets, member_config))
        members.append(net)
    return Ensemble(members), traces


def prognostic_arrays(net: GcpNetwork, x):
    """Vectorized prognostic summary: mean, corrected-family variance,
    heavy-tailed variance (inf sentinel when undefined), and alpha."""
    m, nu, alpha, beta = net.predict_arrays(x)
    sigma = beta * (nu + 1.0) / nu
    gap = alpha_table().gap_many(alpha)
    v_p = sigma / gap
    v_st = np.where(alpha > 1.0, sigma / np.maximum(alpha - 1.0, 1e-300),
                    STUDENT_VARIANCE_INFINITE)
    return m, v_p, v_st, alpha


def ensemble_prognostic_arrays(ensemble: Ensemble, x):
    """Mixture mean/variance across members.

    Variance is the mixture second moment minus the squared mixture mean;
    the heavy-tailed column is infinite whenever any member's is.
    """
    means, v_ps, v_sts, alphas = [], [], [], []
    for net in ensemble.members:
        m, v_p, v_st, alpha = prognostic_arrays(net, x)
        means.append(m)
        v_ps.append(v_p)
        v_sts.append(v_st)
        alphas.append(alpha)
    means = np.stack(means)
    mix_mean = means.mean(axis=0)
    v_p_mix = (np.stack(v_ps) + means**2).mean(axis=0) - mix_mean**2
    v_st_stack = np.stack(v_sts)
    finite = np.isfinite(v_st_stack)
    finite_part = np.where(finite, v_st_stack, 0.0)
    v_st_mix = (finite_part + means**2).mean(axis=0) - mix_mean**2
    v_st_mix = np.where(finite.all(axis=0), v_st_mix, STUDENT_VARIANCE_INFINITE)
    return mix_mean, v_p_mix, v_st_mix, np.stack(alphas).mean(axis=0)


def _head_state(head: MlpHead):
    return {name: np.asarray(value).tolist()
            for name, value in head.params().items()}


def _load_head(state, in_dim, hidden):
    head = MlpHead(in_dim, hidden, np.random.default_rng(0))
    for name, init in head.params().items():
        value = np.asarray(state[name], dtype=float).reshape(np.shape(init))
        setattr(head, name, value if value.ndim else float(value))
    return head


def _net_state(net):
    kind = "gcp" if isinstance(net, GcpNetwork) else "gaussian"
    return {
        "kind": kind, "in_dim": net.in_dim, "hidden": net.hidden,
        "dropout": net.dropout,
        "heads": {name: _head_state(net.heads[name]) for name in net.HEAD_NAMES},
    }


def _net_from_state(state):
    cls = GcpNetwork if state["kind"] == "gcp" else GaussianNet
    net = cls(state["in_dim"], hidden=state["hidden"], dropout=state["dropout"],
              rng=np.random.default_rng(0))
    for name in net.HEAD_NAMES:
        net.heads[name] = _load_head(state["heads"][name], net.in_dim, net.hidden)
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
