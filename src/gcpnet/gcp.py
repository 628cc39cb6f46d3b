"""Probabilistic core: normal-gamma parameters, the training loss,
prognostic variances, and the epsilon-correction constants.

A model output at one input point is a normal-gamma parameter vector
(m, nu, alpha, beta), GcpParams, which is also the state that the
training-dynamics flow moves.  The training loss is the negative marginal
log-likelihood, nll_terms_arrays: the marginal is Student's t with 2*alpha
degrees of freedom, location m and squared scale sigma/alpha, where
sigma = beta*(nu+1)/nu.  Its gradient equals that of the KL divergence
from the conjugate posterior after observing y back to the current
parameters; that KL route lives in tests/reference.py, acceptance
criterion 2's independent reference for the identity.  The prognostic
variances of a fit have one array implementation, prognostic_variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import (alpha_table, delta_psi, gauss_weighted_integral,
                      hermite_rule, log_gap_slope, solve_A)

LOG_2PI = math.log(2.0 * math.pi)
# Gauss-Hermite order of the log integral in correction_constants
CORRECTION_NODES = 512


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


def nll_terms_arrays(m, nu, alpha, beta, y):
    """Negative log density of the marginal Student's t at y and its four
    gradients, over aligned arrays; returns (nll, dm, dnu, dalpha, dbeta).

    The marginal has 2*alpha degrees of freedom, location m, and SQUARED
    scale sigma/alpha (sigma = beta*(nu+1)/nu), which simplifies to

        lnG(a) - lnG(a+1/2) + ln(2*pi)/2 + ln(sigma)/2
            + (a+1/2) * ln(1 + (y-m)^2/(2*sigma)).
    """
    # imported here so that only the commands that train load scipy; the
    # module form costs 0.5 us a call
    import scipy.special as sc

    nu1 = nu + 1.0
    sigma = beta * nu1 / nu
    z = y - m
    z2 = z * z
    two_sigma = 2.0 * sigma
    alpha_half = alpha + 0.5
    den = two_sigma + z2
    # (alpha * z) * z, not alpha * z2: the grouping fixes the rounding
    core = (alpha * z * z - sigma) / den
    log_term = np.log1p(z2 / two_sigma)
    nll = (sc.gammaln(alpha) - sc.gammaln(alpha_half)
           + 0.5 * LOG_2PI + 0.5 * np.log(sigma)
           + alpha_half * log_term)
    dm = -(2.0 * alpha + 1.0) * z / den
    dnu = core / (nu * nu1)
    dalpha = sc.psi(alpha) - sc.psi(alpha_half) + log_term
    dbeta = -core / beta
    return nll, dm, dnu, dalpha, dbeta


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


def correction_constants(alpha: float) -> CorrectionConstants:
    """b0, b1, b at this alpha.

    The constants are exactly sigma-free: every integrand depends on y only
    through y^2/s with s = 2*(alpha - A(alpha)).  The log integral uses the
    shared Hermite rule.  b is 2*alpha + 1 times log_gap_slope, the slope
    of the A table, whose closed form stays exact for extreme alpha where
    a fixed rule cannot resolve s.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    s = 2.0 * (alpha - solve_A(alpha))
    rule = hermite_rule(CORRECTION_NODES)
    mean_log = gauss_weighted_integral(lambda y: np.log1p(y * y / s), rule)
    slope = log_gap_slope(s)
    return CorrectionConstants(b0=-mean_log - delta_psi(alpha),
                               b1=mean_log + slope,
                               b=(2.0 * alpha + 1.0) * slope)


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
