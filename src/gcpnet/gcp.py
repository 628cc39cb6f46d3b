"""Probabilistic core: normal-gamma parameters, the two training losses,
prognostic variances, and the epsilon-correction constants.

A model output at one input point is a normal-gamma parameter vector
(m, nu, alpha, beta).  Observing y updates it conjugately; the training loss
is either the KL divergence from that posterior back to the current
parameters (kl_loss) or the negative marginal log-likelihood (student_nll).
The marginal is Student's t with 2*alpha degrees of freedom, location m and
squared scale sigma/alpha, where sigma = beta*(nu+1)/nu.  Both losses have
identical gradients, which is what training relies on.  The prognostic
variances of a fit have one array implementation, prognostic_variances.

Training runs on the array form nll_terms_arrays.  The scalar API
(GcpParams, posterior_update, kl_loss, kl_grad, student_nll,
student_nll_grad) is kept on purpose: it is acceptance criterion 2's
independent reference for the paper's KL/NLL gradient identity, against
which nll_terms_arrays is checked.  GcpParams is also the state that the
training-dynamics flow moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, psi

from .special import (alpha_table, delta_psi, gauss_weighted_integral,
                      hermite_rule, solve_A, weighted_square_mean)

LOG_2PI = math.log(2.0 * math.pi)
# Gauss-Hermite order of the log integral in correction_constants
CORRECTION_NODES = 128


@dataclass(frozen=True)
class GcpParams:
    """Normal-gamma parameter vector at one input point."""

    m: float
    nu: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("m", "nu", "alpha", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            if name != "m" and not v > 0:
                raise ValueError(f"{name} must be positive, got {v!r}")

    @property
    def sigma(self) -> float:
        return self.beta * (self.nu + 1.0) / self.nu


def posterior_update(params: GcpParams, y: float) -> GcpParams:
    """Conjugate posterior after observing y."""
    if not math.isfinite(y):
        raise ValueError(f"observation must be finite, got {y!r}")
    m, nu, alpha, beta = params.m, params.nu, params.alpha, params.beta
    return GcpParams(
        m=(nu * m + y) / (nu + 1.0),
        nu=nu + 1.0,
        alpha=alpha + 0.5,
        beta=beta + nu * (y - m) ** 2 / (2.0 * (nu + 1.0)),
    )


def kl_loss(params: GcpParams, fixed: GcpParams, y: float) -> float:
    """KL divergence from the posterior of the snapshot `fixed` after seeing
    y, back to the normal-gamma distribution with parameters `params`.

    Nonnegative, zero exactly when params equals that posterior.  Its
    gradient in (m, nu, alpha, beta) at params == fixed coincides with the
    student_nll gradient, so minimizing either drives the same dynamics.
    """
    post = posterior_update(fixed, y)
    m, nu, alpha, beta = params.m, params.nu, params.alpha, params.beta
    mp, nup, alphap, betap = post.m, post.nu, post.alpha, post.beta
    return (
        alphap * (m - mp) ** 2 * nu / (2.0 * betap)
        + nu / (2.0 * nup)
        - 0.5 * math.log(nu / nup)
        - 0.5
        - alpha * math.log(beta / betap)
        + math.lgamma(alpha) - math.lgamma(alphap)
        - (alpha - alphap) * float(psi(alphap))
        + alphap * (beta - betap) / betap
    )


def kl_grad(params: GcpParams, fixed: GcpParams, y: float):
    """Analytic gradient of kl_loss in (m, nu, alpha, beta), posterior held
    fixed (it is a function of `fixed` and y, not of `params`)."""
    post = posterior_update(fixed, y)
    m, nu, alpha, beta = params.m, params.nu, params.alpha, params.beta
    mp, nup, alphap, betap = post.m, post.nu, post.alpha, post.beta
    dm = alphap * nu * (m - mp) / betap
    dnu = alphap * (m - mp) ** 2 / (2.0 * betap) + 0.5 / nup - 0.5 / nu
    dalpha = -math.log(beta / betap) + float(psi(alpha) - psi(alphap))
    dbeta = -alpha / beta + alphap / betap
    return dm, dnu, dalpha, dbeta


def nll_terms_arrays(m, nu, alpha, beta, y):
    """Negative log density of the marginal Student's t at y and its four
    gradients, over aligned arrays; returns (nll, dm, dnu, dalpha, dbeta).

    The marginal has 2*alpha degrees of freedom, location m, and SQUARED
    scale sigma/alpha (sigma = beta*(nu+1)/nu), which simplifies to

        lnG(a) - lnG(a+1/2) + ln(2*pi)/2 + ln(sigma)/2
            + (a+1/2) * ln(1 + (y-m)^2/(2*sigma)).
    """
    sigma = beta * (nu + 1.0) / nu
    z = y - m
    den = 2.0 * sigma + z * z
    core = (alpha * z * z - sigma) / den
    log_term = np.log1p(z * z / (2.0 * sigma))
    nll = (gammaln(alpha) - gammaln(alpha + 0.5)
           + 0.5 * LOG_2PI + 0.5 * np.log(sigma)
           + (alpha + 0.5) * log_term)
    dm = -(2.0 * alpha + 1.0) * z / den
    dnu = core / (nu * (nu + 1.0))
    dalpha = psi(alpha) - psi(alpha + 0.5) + log_term
    dbeta = -core / beta
    return nll, dm, dnu, dalpha, dbeta


def _nll_terms(params: GcpParams, y: float):
    if not math.isfinite(y):
        raise ValueError(f"observation must be finite, got {y!r}")
    return nll_terms_arrays(params.m, params.nu, params.alpha, params.beta, y)


def student_nll(params: GcpParams, y: float) -> float:
    """Scalar nll_terms_arrays: the marginal Student's t NLL at y."""
    return float(_nll_terms(params, y)[0])


def student_nll_grad(params: GcpParams, y: float):
    """Scalar nll_terms_arrays: the gradient of student_nll in
    (m, nu, alpha, beta)."""
    return tuple(float(v) for v in _nll_terms(params, y)[1:])


STUDENT_VARIANCE_INFINITE = math.inf


def prognostic_variances(nu, alpha, beta):
    """(v_p, v_st) over aligned arrays: v_p = sigma/(alpha - A(alpha)), A
    from the shared table, is finite for every alpha > 0; the Student's t
    variance v_st = sigma/(alpha - 1) exists only for alpha > 1 and holds
    the infinity tag elsewhere, which must not be used in arithmetic."""
    sigma = beta * (nu + 1.0) / nu
    v_p = sigma / alpha_table().gap_many(alpha)
    v_st = np.where(alpha > 1.0, sigma / np.maximum(alpha - 1.0, 1e-300),
                    STUDENT_VARIANCE_INFINITE)
    return v_p, v_st


@dataclass(frozen=True)
class CorrectionConstants:
    """First-order contamination correction constants, functions of alpha."""

    b0: float
    b1: float
    b: float
    alpha: float


def correction_constants(alpha: float,
                         nodes: int | None = None) -> CorrectionConstants:
    """b0, b1, b at this alpha.

    The constants are exactly sigma-free: every integrand depends on y only
    through y^2/s with s = 2*(alpha - A(alpha)).  The log integral uses the
    shared Hermite rule; the normalizing integral of b uses the closed form
    of weighted_square_mean, which stays exact for extreme alpha where a
    fixed rule cannot resolve s.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    s = 2.0 * (alpha - solve_A(alpha))
    rule = hermite_rule(nodes if nodes is not None else CORRECTION_NODES)
    mean_log = gauss_weighted_integral(lambda y: np.log1p(y * y / s), rule)
    b = 2.0 * alpha / ((2.0 * alpha + 1.0) * weighted_square_mean(s))
    b0 = -mean_log - delta_psi(alpha)
    b1 = mean_log + b / (2.0 * alpha + 1.0)
    return CorrectionConstants(b0=b0, b1=b1, b=b, alpha=alpha)


def corrected_variance(v_p, alpha: float, epsilon: float,
                       constants: CorrectionConstants | None = None):
    """(1 - b(alpha)*epsilon) * v_p, the first-order recovery of the
    ground-truth variance from a fit on contaminated data."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    c = constants if constants is not None else correction_constants(alpha)
    factor = 1.0 - c.b * epsilon
    if factor <= 0.0:
        raise ValueError(
            f"epsilon={epsilon} exceeds the valid correction range "
            f"1/b = {1.0 / c.b:.6g} at alpha = {alpha:.6g}")
    return factor * v_p
