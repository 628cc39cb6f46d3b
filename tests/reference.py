"""The KL route to the training gradient, kept as an independent reference.

The paper trains on the marginal Student's t NLL (gcp.nll_terms_arrays)
because its gradient equals that of the KL divergence from the conjugate
posterior after observing y back to the current normal-gamma parameters.
Acceptance criterion 2 and tests/test_gcp.py check the trainer's gradient
against kl_grad, and kl_grad against finite differences of kl_loss.  No
command computes the KL route, so it lives here rather than in src/.
"""

import math

from gcpnet.gcp import GcpParams


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
    marginal NLL gradient of gcp.nll_terms_arrays, so minimizing either
    drives the same dynamics.
    """
    import scipy.special as sc

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
        - (alpha - alphap) * float(sc.psi(alphap))
        + alphap * (beta - betap) / betap
    )


def kl_grad(params: GcpParams, fixed: GcpParams, y: float):
    """Analytic gradient of kl_loss in (m, nu, alpha, beta), posterior held
    fixed (it is a function of `fixed` and y, not of `params`)."""
    import scipy.special as sc

    post = posterior_update(fixed, y)
    m, nu, alpha, beta = params.m, params.nu, params.alpha, params.beta
    mp, nup, alphap, betap = post.m, post.nu, post.alpha, post.beta
    dm = alphap * nu * (m - mp) / betap
    dnu = alphap * (m - mp) ** 2 / (2.0 * betap) + 0.5 / nup - 0.5 / nu
    dalpha = -math.log(beta / betap) + float(sc.psi(alpha) - sc.psi(alphap))
    dbeta = -alpha / beta + alphap / betap
    return dm, dnu, dalpha, dbeta
