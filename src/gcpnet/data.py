"""Dataset plumbing for the regression experiments.

Generation of the heteroscedastic synthetic benchmark, target contamination,
train-statistics normalization, seeded splitting, and CSV ingestion.
A non-finite CSV cell and a constant feature column are errors: no value
is silently dropped or carried into training.
All operations return new values; datasets are never mutated in place.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NormStats:
    """Normalization statistics captured from a training set.

    Feature columns and the target are shifted to zero mean and scaled to
    unit variance; the same transform is applied to test data, and
    predictions are mapped back before any metric is computed.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float
    target_std: float

    def transform_features(self, x):
        return (np.asarray(x, dtype=float) - self.feature_mean) / self.feature_std

    def transform_targets(self, y):
        return (np.asarray(y, dtype=float) - self.target_mean) / self.target_std

    def inverse_mean_variance(self, mean, variance):
        """De-normalize a predictive mean and variance pair."""
        scale = self.target_std
        return (np.asarray(mean, dtype=float) * scale + self.target_mean,
                np.asarray(variance, dtype=float) * scale * scale)

    def to_json(self):
        return {"feature_mean": self.feature_mean.tolist(),
                "feature_std": self.feature_std.tolist(),
                "target_mean": self.target_mean,
                "target_std": self.target_std}


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with aligned targets.

    `outlier_mask` is only present for generated or contaminated data,
    where ground truth about which rows are corrupted exists.
    """

    features: np.ndarray
    targets: np.ndarray
    outlier_mask: np.ndarray | None = None
    normalization: NormStats | None = None

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("targets must be a vector aligned with features")
        if x.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "targets", y)
        if self.outlier_mask is not None:
            mask = np.asarray(self.outlier_mask, dtype=bool)
            if mask.shape != (x.shape[0],):
                raise ValueError("outlier_mask must align with the rows")
            object.__setattr__(self, "outlier_mask", mask)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Settings for the heteroscedastic sine benchmark with uniform outliers."""

    n: int = 400
    outlier_prob: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.outlier_prob < 1.0:
            raise ValueError("outlier_prob must lie in [0, 1)")


def conditional_noise_std(x):
    """Ground-truth noise level 0.5*cos^4(x) of the clean generator."""
    return 0.5 * np.cos(np.asarray(x, dtype=float)) ** 4


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw the benchmark: y ~ N(sin 3x, (0.5 cos^4 x)^2) at x ~ U(-1, 1),
    replaced by a U(-4, 16) outlier draw with probability outlier_prob.
    One generator drives all draws in a fixed order, so a seed pins the
    dataset bitwise."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    x = rng.uniform(-1.0, 1.0, size=spec.n)
    is_outlier = rng.random(spec.n) < spec.outlier_prob
    clean = np.sin(3.0 * x) + conditional_noise_std(x) * rng.normal(size=spec.n)
    wild = rng.uniform(-4.0, 16.0, size=spec.n)
    y = np.where(is_outlier, wild, clean)
    return Dataset(features=x.reshape(-1, 1), targets=y,
                   outlier_mask=is_outlier)


def contaminate(ds: Dataset, fraction: float, seed: int = 0) -> Dataset:
    """Replace floor(fraction*N) targets with draws centered on the ORIGINAL
    target mean with ten times the ORIGINAL target standard deviation.

    The replacement statistics are computed before any target changes, and
    features are untouched.  Must run before normalization."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction!r}")
    if ds.normalization is not None:
        raise ValueError("contaminate must be applied before normalization")
    count = int(math.floor(fraction * ds.n))
    mask = (ds.outlier_mask.copy() if ds.outlier_mask is not None
            else np.zeros(ds.n, dtype=bool))
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(ds.n, size=count, replace=False)
    mean = float(np.mean(ds.targets))
    std = float(np.std(ds.targets))
    y = ds.targets.copy()
    y[idx] = rng.normal(loc=mean, scale=10.0 * std, size=count)
    mask[idx] = True
    return Dataset(features=ds.features, targets=y, outlier_mask=mask)


def normalize(ds: Dataset) -> Dataset:
    """Shift/scale features and target to zero mean, unit variance.

    A constant feature column or an all-constant target cannot be scaled
    and is an error; the message names the constant feature columns.
    The statistics ride along on the result for test-set transforms and
    for de-normalizing predictions."""
    x, y = ds.features, ds.targets
    fstd = np.std(x, axis=0)
    constant = np.flatnonzero(fstd == 0.0).tolist()
    if constant:
        raise ValueError(f"no informative feature in columns {constant}: "
                         f"each is constant")
    tstd = float(np.std(y))
    if tstd == 0.0:
        raise ValueError("target is constant; nothing to scale")
    stats = NormStats(feature_mean=np.mean(x, axis=0), feature_std=fstd,
                      target_mean=float(np.mean(y)), target_std=tstd)
    return Dataset(features=stats.transform_features(x),
                   targets=stats.transform_targets(y),
                   outlier_mask=ds.outlier_mask, normalization=stats)


def apply_normalization(ds: Dataset, stats: NormStats) -> Dataset:
    """Carry training statistics onto another split (test means can be
    anything; only the training statistics enter)."""
    if ds.features.shape[1] != stats.feature_mean.shape[0]:
        raise ValueError("statistics were captured for a different width")
    return Dataset(features=stats.transform_features(ds.features),
                   targets=stats.transform_targets(ds.targets),
                   outlier_mask=ds.outlier_mask, normalization=stats)


def split(ds: Dataset, train_fraction: float = 0.95,
          seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded shuffle-and-cut into disjoint, exhaustive train/test parts."""
    if ds.n < 2:
        raise ValueError("need at least two rows to split")
    n_train = int(math.floor(train_fraction * ds.n))
    if n_train < 1 or n_train >= ds.n:
        raise ValueError(
            f"train_fraction {train_fraction!r} leaves a degenerate split "
            f"({n_train} of {ds.n})")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(ds.n)
    tr, te = order[:n_train], order[n_train:]

    def take(idx):
        return Dataset(
            features=ds.features[idx], targets=ds.targets[idx],
            outlier_mask=(ds.outlier_mask[idx]
                          if ds.outlier_mask is not None else None),
            normalization=ds.normalization)

    return take(tr), take(te)


def load_csv(path) -> Dataset:
    """Read a headered CSV whose last column is the target.

    The file is UTF-8 text, whatever the locale, as every file the
    commands write is.  Cells must parse as finite decimal floats; a
    malformed or non-finite cell or a ragged row fails with the 1-based
    line number and column name in the message, and an unreadable or
    undecodable file with its path.  Blank trailing lines are ignored."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    rows = [(i + 1, row) for i, row in enumerate(rows)
            if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header_line, header = rows[0]
    if len(header) < 2:
        raise ValueError(f"{path}: need at least one feature column plus "
                         f"the target, got {len(header)} columns")
    width = len(header)
    body = rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows after the header")
    values = np.empty((len(body), width))
    for r, (lineno, row) in enumerate(body):
        if len(row) != width:
            raise ValueError(
                f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: column '{header[c]}' has "
                    f"non-numeric value {cell!r}") from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        lineno, row = body[r]
        raise ValueError(f"{path}:{lineno}: column '{header[c]}' has "
                         f"non-finite value {row[c]!r}")
    return Dataset(features=values[:, :-1], targets=values[:, -1])

