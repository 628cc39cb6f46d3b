"""Evaluation metric: the variance-ordered rejection curve and its normalized
area.  The curve's first point is the test RMSE."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .special import NumericError


@dataclass(frozen=True)
class EvalCurve:
    """RMSE over the kept samples after rejecting the n most uncertain.

    `ordering` is the rejection order: descending predicted variance,
    ties broken by ascending original index.
    """

    rmse_at_n: np.ndarray
    auc: float
    ordering: np.ndarray


def rejection_curve(preds, variances, targets) -> EvalCurve:
    """RMSE(n) for n = 0 .. N-1 and its trapezoid area over 1/(N-1).

    Rejection removes the highest-variance samples first.  An infinite
    variance is a valid tag meaning "reject me first"; it only ever enters
    the sort key, never the averaged errors.  Squared errors whose sum
    overflows are a NumericError.
    """
    p = np.asarray(preds, dtype=float)
    v = np.asarray(variances, dtype=float)
    t = np.asarray(targets, dtype=float)
    if not (p.shape == v.shape == t.shape) or p.ndim != 1:
        raise ValueError("preds, variances, targets must be aligned vectors")
    n = p.size
    if n < 2:
        raise ValueError("rejection curve needs at least two samples")
    if np.any(np.isnan(v)):
        raise ValueError("variances must not contain NaN")
    # lexsort: primary key descending variance, secondary ascending index
    order = np.lexsort((np.arange(n), -v))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (p - t)[order] ** 2
        suffix = np.cumsum(sq[::-1])[::-1]
    if not np.isfinite(suffix[0]):
        raise NumericError("the squared prediction errors overflow")
    kept = n - np.arange(n)
    curve = np.sqrt(suffix / kept)
    auc = float(np.trapezoid(curve) / (n - 1))
    return EvalCurve(rmse_at_n=curve, auc=auc, ordering=order)


def write_curve_csv(curve: EvalCurve, path):
    """(n, rmse) rows matching the stored curve."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "rmse"])
        for i, val in enumerate(curve.rmse_at_n):
            writer.writerow([i, repr(float(val))])


def curve_summary(curve: EvalCurve) -> dict:
    """Summary payload for the metrics JSON artifact."""
    return {"rmse": float(curve.rmse_at_n[0]), "auc": curve.auc,
            "n_samples": int(curve.rmse_at_n.size)}
