"""Idealized training dynamics on contaminated Gaussian data.

The network-free limit of the belief updates is a four-variable ODE driven
by three population integrals.  This module evaluates those integrals by
quadrature over node data cached per mixture component, integrates the
flow by step-doubling RK4 on plain floats (10 flow evaluations per
attempted step plus one per new state: the full step and the first half
step share their first stage), solves for equilibria (started from the
small-contamination asymptotics and certified at doubled quadrature
order), and runs the two inverse-problem verifications (first-order
variance correction, super-polynomial mean closeness).  Equilibria,
inverse problems and mean roots share one damped Newton with analytic
Jacobians, which gives up after 30 iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta

from .special import (
    ConditionError,
    NonConvergenceError,
    NumericError,
    delta_psi,
    hermite_rule,
    legendre_rule,
    solve_A,
)
from .gcp import GcpParams, correction_constants

DYNAMICS_NODES_DEFAULT = 512

ALPHA_CAP = 1e4
SOLVE_TOL = 1e-11
NEWTON_MAX_ITER = 30
SWEEP_STEP_RATIO = 2.0
CERT_TOL = 1e-9
RTOL = 1e-8
ATOL = 1e-10


def _dyn_nodes(nodes):
    return nodes if nodes is not None else DYNAMICS_NODES_DEFAULT


@dataclass(frozen=True)
class ContaminationSpec:
    """Mixture (1-eps) * N(m_g, v_g) + eps * outlier.

    `outlier` is ("gaussian", m_o, v_o) or ("uniform", lo, hi).
    """

    epsilon: float
    m_g: float = 0.0
    v_g: float = 1.0
    outlier: tuple = ("gaussian", 5.0, 1.0)

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ConditionError("epsilon must lie in [0, 1)")
        if not self.v_g > 0:
            raise ConditionError("generative variance must be positive")
        kind = self.outlier[0]
        if kind == "gaussian":
            _, m_o, v_o = self.outlier
            if not v_o > 0:
                raise ConditionError("outlier variance must be positive")
        elif kind == "uniform":
            _, lo, hi = self.outlier
            if not lo < hi:
                raise ConditionError("uniform outlier requires lo < hi")
        else:
            raise ConditionError(f"unknown outlier kind {kind!r}")

    def components(self):
        """(weight, kind, a, b) rows; gaussian rows carry (mean, variance),
        uniform rows carry (lo, hi)."""
        comps = [(1.0 - self.epsilon, "gaussian", self.m_g, self.v_g)]
        if self.epsilon > 0.0:
            comps.append((self.epsilon,) + tuple(self.outlier))
        return comps


def outlier_moments(spec: ContaminationSpec) -> dict:
    """Closed-form mean and central moments (orders 2..6) of the outlier."""
    kind = spec.outlier[0]
    if kind == "gaussian":
        _, mean, v = spec.outlier
    else:
        _, lo, hi = spec.outlier
        mean = 0.5 * (lo + hi)
        v = (hi - lo) ** 2 / 12.0
    if kind == "uniform":
        # U(lo,hi): mu4 = 9V^2/5, mu6 = 27V^3/7, odd moments vanish
        return {"mean": mean, 2: v, 3: 0.0, 4: 1.8 * v * v, 5: 0.0,
                6: 27.0 * v**3 / 7.0}
    return {"mean": mean, 2: v, 3: 0.0, 4: 3.0 * v * v, 5: 0.0, 6: 15.0 * v**3}


@dataclass(frozen=True)
class OutlierIndicators:
    c_go: float
    d_go: float


def indicators(spec: ContaminationSpec) -> OutlierIndicators:
    """Moment combinations that measure how visible the outliers are.

    c_go = d^4 + 6 dV d^2 + 3 dV^2 + (mu4 - 3 v_o^2) + 4 mu3 d and
    d_go = d^3 + 3 dV d + mu3 with d the outlier-generative mean gap and
    dV the variance gap; both are exact, no quadrature involved.
    """
    mom = outlier_moments(spec)
    d = mom["mean"] - spec.m_g
    dv = mom[2] - spec.v_g
    excess = mom[4] - 3.0 * mom[2] ** 2
    c_go = d**4 + 6.0 * dv * d * d + 3.0 * dv * dv + excess + 4.0 * mom[3] * d
    d_go = d**3 + 3.0 * dv * d + mom[3]
    return OutlierIndicators(c_go=c_go, d_go=d_go)


def mixture_mean_variance(spec: ContaminationSpec):
    mom = outlier_moments(spec)
    mean = (1.0 - spec.epsilon) * spec.m_g + spec.epsilon * mom["mean"]
    second = ((1.0 - spec.epsilon) * (spec.v_g + spec.m_g**2)
              + spec.epsilon * (mom[2] + mom["mean"] ** 2))
    return mean, second - mean * mean


@lru_cache(maxsize=32)
def _component_nodes(kind, a, b, n_nodes):
    """Read-only node data of one mixture component: the weights, then for
    a gaussian N(a, b) the offsets sqrt(b) * x of the n-node Hermite rule
    and their squares, for a uniform on [a, b] the n/2 Legendre nodes."""
    if kind == "gaussian":
        rule = hermite_rule(n_nodes)
        offsets = math.sqrt(b) * rule.nodes
        offsets_sq = offsets * offsets
        offsets.setflags(write=False)
        offsets_sq.setflags(write=False)
        return rule.weights, offsets, offsets_sq
    rule = legendre_rule(n_nodes // 2, a, b)
    return rule.weights, rule.nodes, None


def _component_fgh(m, alpha, sigma, weight, kind, a, b, n_nodes,
                   jacobian=False):
    """One mixture component's contribution to (F, G, H), and with
    `jacobian` its part of their derivatives in (m, ln alpha, ln sigma).

    Gaussian components use the n-node Hermite rule, uniform ones the
    n/2-node Legendre rule, so doubling n refines both.  The mean integrand
    is evaluated pairwise over the symmetric Hermite nodes so that the
    near-cancellation at a symmetric mixture is exact instead of
    catastrophic; the nodes are exactly antisymmetric, so the mirror
    node's denominator is `den` reversed.  Returns ((f, g, h), jac) with
    jac None unless asked for.
    """
    two_sigma = 2.0 * sigma
    weights, points, offsets_sq = _component_nodes(kind, a, b, n_nodes)
    if kind == "gaussian":
        c = a - m
        z = c + points
        density = 1.0
    else:
        z = points - m
        density = 1.0 / (b - a)
    zsq = z * z
    den = two_sigma + zsq
    if kind == "gaussian":
        pair_num = 2.0 * c * (two_sigma + c * c - offsets_sq)
        f_val = 0.5 * float(weights @ (pair_num / (den * den[::-1])))
    else:
        f_val = float(weights @ (z / den))
    g_val = float(weights @ np.log1p(zsq / two_sigma))
    h_val = float(weights @ ((alpha * zsq - sigma) / den))
    vals = (weight * (f_val * density), weight * (g_val * density),
            weight * (h_val * density))
    if not jacobian:
        return vals, None
    # with den = 2 sigma + z^2 and dz/dm = -1, every entry is one of these
    # five expectations; d/d ln alpha of G is the digamma gap's, added in fgh
    inv = 1.0 / den
    z_inv = z * inv
    zsq_inv = zsq * inv
    z_den = weights @ z_inv
    zsq_den = weights @ zsq_inv
    z_den2 = weights @ (z_inv * inv)
    zsq_den2 = weights @ (zsq_inv * inv)
    f_m = weights @ ((zsq - two_sigma) * inv * inv)
    shape = 2.0 * alpha + 1.0
    jac = np.array([
        [f_m, 0.0, -two_sigma * z_den2],
        [-2.0 * z_den, 0.0, -zsq_den],
        [-two_sigma * shape * z_den2, alpha * zsq_den, -sigma * shape * zsq_den2],
    ])
    return vals, weight * (jac * density)


def fgh(m, alpha, sigma, spec: ContaminationSpec, nodes=None, jacobian=False):
    """Population integrals driving the flow.

    F is the mean pull, H the precision imbalance, and G the evidence
    imbalance including the digamma gap, so an equilibrium is exactly
    F = G = H = 0.  With `jacobian` the result is ((f, g, h), J), J the
    3x3 derivative in (m, ln alpha, ln sigma) from the same nodes.
    """
    if not (alpha > 0 and sigma > 0):
        raise ValueError("alpha and sigma must be positive")
    n_nodes = _dyn_nodes(nodes)
    f = g = h = 0.0
    jac = np.zeros((3, 3)) if jacobian else None
    for weight, kind, a, b in spec.components():
        (df, dg, dh), djac = _component_fgh(m, alpha, sigma, weight, kind,
                                            a, b, n_nodes, jacobian)
        f += df
        g += dg
        h += dh
        if jacobian:
            jac += djac
    g += delta_psi(alpha)
    finite = math.isfinite(f) and math.isfinite(g) and math.isfinite(h)
    if jacobian:
        # the Hurwitz zeta(2, x) is the trigamma function psi'(x)
        jac[1, 1] = alpha * float(zeta(2, alpha) - zeta(2, alpha + 0.5))
        finite = finite and bool(np.isfinite(jac).all())
    if not finite:
        raise NumericError(f"non-finite flow integrals at m={m}, alpha={alpha}, "
                           f"sigma={sigma}")
    return ((f, g, h), jac) if jacobian else (f, g, h)


# the flow moves the belief point that a network outputs for one input
DynState = GcpParams


def default_state(spec: ContaminationSpec) -> GcpParams:
    """Start of a flow run: the mixture mean, nu = 1, alpha = 1.5 and the
    beta that puts sigma at the mixture variance."""
    mean_c, var_c = mixture_mean_variance(spec)
    return GcpParams(m=mean_c, nu=1.0, alpha=1.5, beta=0.5 * var_c)


def _rates(m, nu, alpha, beta, spec, nodes):
    """(dm, dnu, dalpha, dbeta) at one point, and the H they came from."""
    f, g, h = fgh(m, alpha, beta * (nu + 1.0) / nu, spec, nodes=nodes)
    return ((2.0 * alpha + 1.0) * f, -h / (nu * (nu + 1.0)), -g, h / beta), h


def flow(state: GcpParams, spec: ContaminationSpec, nodes=None):
    """Time derivatives (dm, dnu, dalpha, dbeta) plus the induced dsigma."""
    rates, h = _rates(state.m, state.nu, state.alpha, state.beta, spec, nodes)
    nu, sigma = state.nu, state.sigma
    dsigma = ((nu + 1.0) ** 2 / (nu**2 * sigma)
              + sigma / ((nu + 1.0) ** 2 * nu**2)) * h
    return rates + (dsigma,)


@dataclass
class Trajectory:
    """Accepted states of one run; `evaluations` counts the flow
    evaluations it made and `rejected` the step attempts it threw away."""

    t: np.ndarray
    m: np.ndarray
    nu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    sigma: np.ndarray
    settled: bool = False
    truncated: bool = False
    escaped: bool = False
    evaluations: int = 0
    rejected: int = 0

    def end_state(self) -> GcpParams:
        return GcpParams(m=float(self.m[-1]), nu=float(self.nu[-1]),
                         alpha=float(self.alpha[-1]),
                         beta=float(self.beta[-1]))


class _StepReject(Exception):
    """A stage left the positive orthant or produced non-finite rates."""


def _finite_rates(k):
    if k is None or not all(map(math.isfinite, k)):
        raise _StepReject
    return k


def _rk4_step(u, k1, dt, stage):
    """Classical RK4 step of size dt from u, given its first stage k1."""
    half = 0.5 * dt
    k2 = stage(tuple(x + half * k for x, k in zip(u, k1)))
    k3 = stage(tuple(x + half * k for x, k in zip(u, k2)))
    k4 = stage(tuple(x + dt * k for x, k in zip(u, k3)))
    sixth = dt / 6.0
    return tuple(x + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for x, a, b, c, d in zip(u, k1, k2, k3, k4))


def integrate(state0: GcpParams, spec: ContaminationSpec, t_end,
              nodes=None, max_steps=100000, settle_tol=None,
              escape_bound=None) -> Trajectory:
    """Adaptive RK4 with step doubling and positivity rejection.

    Each attempt takes one full step and two half steps.  The full step
    and the first half step share their first stage f(u), which is
    evaluated once per state and reused by rejected retries, so an attempt
    costs 10 flow evaluations and each new state one more.  Stops early
    when `settle_tol` is given and all normalized derivatives fall below
    it (that derivative is the next step's first stage, so the check costs
    nothing extra), or when `escape_bound` is given and both alpha and
    sigma exceed it; running out of steps or shrinking the step below
    floor marks the trajectory truncated.
    """
    evaluations = 0

    def rates(u):
        nonlocal evaluations
        m, nu, alpha, beta = u
        if nu <= 0 or alpha <= 0 or beta <= 0:
            return None
        evaluations += 1
        return _rates(m, nu, alpha, beta, spec, nodes)[0]

    def stage(u):
        return _finite_rates(rates(u))

    u = (state0.m, state0.nu, state0.alpha, state0.beta)
    k1 = None
    t = 0.0
    dt = min(1e-3, t_end) if t_end > 0 else 0.0
    ts, rows = [0.0], [u]
    settled = truncated = escaped = False
    steps = rejected = 0
    while t < t_end:
        if steps >= max_steps:
            truncated = True
            break
        steps += 1
        dt = min(dt, t_end - t)
        try:
            if k1 is None:
                k1 = rates(u)
            first = _finite_rates(k1)
            full = _rk4_step(u, first, dt, stage)
            half = _rk4_step(u, first, 0.5 * dt, stage)
            two_half = _rk4_step(half, stage(half), 0.5 * dt, stage)
            bad = (any(x <= 0 for x in full[1:] + two_half[1:])
                   or not all(map(math.isfinite, full + two_half)))
        except _StepReject:
            bad = True
        if bad:
            rejected += 1
            dt *= 0.5
            if dt < 1e-14 * max(1.0, t):
                truncated = True
                break
            continue
        err = max(abs(b - a) / (ATOL + RTOL * abs(b))
                  for a, b in zip(full, two_half)) / 15.0
        if err > 1.0:
            rejected += 1
            dt *= max(0.2, 0.9 * err**-0.2)
            continue
        u = tuple(b + (b - a) / 15.0 for a, b in zip(full, two_half))
        if any(x <= 0 for x in u[1:]):
            u = two_half
        k1 = None
        t += dt
        ts.append(t)
        rows.append(u)
        if err > 0:
            dt *= min(5.0, 0.9 * err**-0.2)
        else:
            dt *= 5.0
        m, nu, alpha, beta = u
        if escape_bound is not None:
            sigma = beta * (nu + 1.0) / nu
            if alpha > escape_bound and sigma > escape_bound:
                escaped = True
                break
        if settle_tol is not None:
            # u is positive, so these are its rates, which also serve as
            # the next attempt's first stage
            k1 = rates(u)
            scaled = [abs(k1[0]) / max(1.0, abs(m))] + [
                abs(d) / max(abs(x), 1e-12) for d, x in zip(k1[1:], u[1:])]
            if all(r < settle_tol for r in scaled):
                settled = True
                break
    arr = np.array(rows)
    return Trajectory(
        t=np.array(ts), m=arr[:, 0], nu=arr[:, 1], alpha=arr[:, 2],
        beta=arr[:, 3], sigma=arr[:, 3] * (arr[:, 1] + 1.0) / arr[:, 1],
        settled=settled, truncated=truncated, escaped=escaped,
        evaluations=evaluations, rejected=rejected)


@dataclass(frozen=True)
class Equilibrium:
    """Certified zero of (F, G, H); residuals are from the doubled rule.

    `step_bound` is max |J^-1 r| there, in (m, ln alpha, ln sigma): an
    a-posteriori estimate of how far the root may sit from the true zero,
    absolute in m and relative in alpha and sigma.
    """

    m: float
    alpha: float
    sigma: float
    residuals: tuple
    converged: bool
    nodes: int
    iterations: int
    step_bound: float

    @property
    def max_residual(self):
        return max(self.residuals)


def _admissible(x):
    """The box in (m, ln alpha, ln sigma) where roots are sought; beyond it
    the residuals fade along the escape channel toward infinity."""
    m, la, ls = x
    return abs(la) <= math.log(ALPHA_CAP) and abs(ls) <= 60.0 and abs(m) <= 1e6


def _damped_newton(evaluate, x0, tol, caps=None):
    """Damped Newton for r(x) = 0; `evaluate(x)` returns (r, J), or None
    outside the domain.  Returns (root, iterations).

    A damped step is accepted when either the natural level falls,
    |J^-1 r(x + lam dx)| < (1 - lam/4) |dx| (Deuflhard's affine-invariant
    test, which follows curved valleys where the plain residual norm is
    dominated by one component), or the residual norm falls.  `caps(x)`
    bounds each coordinate's step from x.  Raises NonConvergenceError
    when the line search stalls or after NEWTON_MAX_ITER iterations.
    """
    x = np.asarray(x0, dtype=float)
    current = evaluate(x)
    if current is None:
        raise NonConvergenceError(f"initial guess outside the domain: {x}")
    r, jac = current
    for it in range(1, NEWTON_MAX_ITER + 1):
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"singular Jacobian at {x}") from exc
        norm = float(np.max(np.abs(r)))
        if norm < tol:
            # a small residual locates the root only to |step| along an
            # ill-conditioned valley; the last full step costs no
            # evaluation and squares that error
            return x + step, it
        step_norm = float(np.linalg.norm(step))
        rnorm2 = float(np.linalg.norm(r))
        lam = 1.0
        if caps is not None:
            lam = min(lam, *(c / (abs(s) + 1e-300)
                             for c, s in zip(caps(x), step)))
        for _ in range(30):
            trial = x + lam * step
            current = evaluate(trial)
            if current is not None:
                rt, jt = current
                natural = float(np.linalg.norm(np.linalg.solve(jac, rt)))
                if (natural < (1.0 - 0.25 * lam) * step_norm
                        or float(np.linalg.norm(rt)) < rnorm2):
                    x, r, jac = trial, rt, jt
                    break
            lam *= 0.5
        else:
            raise NonConvergenceError(
                f"line search stalled at iteration {it}, residual {norm:.3e}")
    raise NonConvergenceError(f"no convergence after {NEWTON_MAX_ITER} "
                              f"iterations, residual "
                              f"{float(np.max(np.abs(r))):.3e}")


def newton_equilibrium(spec: ContaminationSpec, guess,
                       nodes=None) -> Equilibrium:
    """Newton solve from an explicit (m, alpha, sigma) guess, then certify
    the root by re-evaluating the integrals at twice the node count.

    Newton runs over (m, ln alpha, ln sigma) with the analytic Jacobian.
    Only iterates inside the admissible box are ever accepted, so no point
    out on the escape channel is certified; a failed solve raises
    NonConvergenceError.  The certificate also bounds the root's location
    by the size of the Newton step |J^-1 r| at the doubled rule.
    """
    n_nodes = _dyn_nodes(nodes)

    def evaluate(x):
        if not _admissible(x):
            return None
        values, jac = fgh(x[0], math.exp(x[1]), math.exp(x[2]), spec,
                          nodes=n_nodes, jacobian=True)
        return np.array(values), jac

    # trust caps keep iterates out of the flat residual valley that runs
    # toward alpha = infinity
    x, iters = _damped_newton(
        evaluate, (guess[0], math.log(guess[1]), math.log(guess[2])),
        SOLVE_TOL, caps=lambda x: (0.5 * (1.0 + abs(x[0])), 0.7, 0.7))
    if not _admissible(x):
        raise NonConvergenceError(f"root outside the admissible region: {x}")
    m, alpha, sigma = float(x[0]), math.exp(x[1]), math.exp(x[2])
    res2, jac2 = fgh(m, alpha, sigma, spec, nodes=2 * n_nodes, jacobian=True)
    residuals = tuple(abs(v) for v in res2)
    converged = max(residuals) < CERT_TOL
    eq = Equilibrium(m=m, alpha=alpha, sigma=sigma, residuals=residuals,
                     converged=converged, nodes=n_nodes, iterations=iters,
                     step_bound=float(np.max(np.abs(np.linalg.solve(jac2, res2)))))
    if not converged:
        raise NonConvergenceError(
            f"root failed certification at doubled nodes: residuals {eq.residuals}")
    return eq


def check_condition(spec: ContaminationSpec):
    """Raise unless the mixture admits a finite equilibrium claim."""
    if spec.epsilon <= 0.0:
        raise ConditionError("epsilon must be positive: without contamination "
                             "the flow has no finite equilibrium")
    ind = indicators(spec)
    if not ind.c_go > 0.0:
        raise ConditionError(f"outlier indicator c_go = {ind.c_go} is not "
                             "positive (Condition violated)")
    return ind


def asymptotic_guess(spec: ContaminationSpec):
    """Leading-order equilibrium location for small contamination.

    alpha ~ 3 v_g^2 / (c_go eps) and the mean picks up the first two
    epsilon orders; sigma follows the Gaussian balance at that alpha.
    """
    ind = check_condition(spec)
    mom = outlier_moments(spec)
    eps = spec.epsilon
    first = (mom["mean"] - spec.m_g) * eps
    second = -ind.c_go * ind.d_go / (6.0 * spec.v_g**3) * eps * eps
    offset = first + second
    # the eps^2 term dwarfs the linear one at moderate eps; never let it
    # flip the guess to the wrong side of the generative mean
    if first != 0.0 and (offset * first <= 0.0 or abs(offset) < 1e-3 * abs(first)):
        offset = 1e-3 * first
    alpha0 = max(3.0 * spec.v_g**2 / (ind.c_go * eps), 0.05)
    sigma0 = spec.v_g * max(alpha0 - solve_A(alpha0), 1e-3)
    return (spec.m_g + offset, alpha0, sigma0)


def equilibrium(spec: ContaminationSpec, guess=None, nodes=None) -> Equilibrium:
    """Certified equilibrium; Newton starts from the small-eps asymptotics
    when no guess is supplied."""
    check_condition(spec)
    if guess is None:
        guess = asymptotic_guess(spec)
    return newton_equilibrium(spec, guess, nodes=nodes)


def equilibrium_sweep(eps_values, m_g=0.0, v_g=1.0, outlier=("gaussian", 5.0, 1.0),
                      nodes=None):
    """Equilibria along an epsilon grid with continuation warm starts.

    Epsilons are solved in descending order; each solution seeds the next
    guess with the leading-order scalings (alpha ~ 1/eps, m - m_g ~ eps).
    Gaps wider than SWEEP_STEP_RATIO are bridged by solving unreported
    geometric midpoints so every continuation step stays well conditioned.
    Returns (eps, Equilibrium) pairs in the caller's order.
    """
    requested = [float(e) for e in eps_values]
    chain = sorted(set(requested), reverse=True)
    padded = [chain[0]]
    for nxt in chain[1:]:
        prev = padded[-1]
        ratio = prev / nxt
        if ratio > SWEEP_STEP_RATIO:
            k = math.ceil(math.log(ratio) / math.log(SWEEP_STEP_RATIO))
            for i in range(1, k):
                padded.append(prev * (nxt / prev) ** (i / k))
        padded.append(nxt)
    solved = {}
    prev = None
    for eps in padded:
        spec = ContaminationSpec(epsilon=eps, m_g=m_g, v_g=v_g, outlier=outlier)
        if prev is None:
            eq = equilibrium(spec, nodes=nodes)
        else:
            # the previous equilibrium sits below the next root in alpha,
            # the side from which Newton reliably converges
            _, eq_prev = prev
            try:
                eq = newton_equilibrium(spec, (eq_prev.m, eq_prev.alpha,
                                               eq_prev.sigma), nodes=nodes)
            except NonConvergenceError:
                eq = newton_equilibrium(spec, asymptotic_guess(spec), nodes=nodes)
        solved[eps] = eq
        prev = (eps, eq)
    return [(e, solved[e]) for e in requested]


DEFAULT_VERIFY_EPS = (0.08, 0.04, 0.02, 0.01, 0.005)


@dataclass(frozen=True)
class VarianceRow:
    epsilon: float
    v_g: float
    m_o: float
    deviation: float
    slope: float
    converged: bool


@dataclass(frozen=True)
class VarianceReport:
    alpha: float
    sigma: float
    v_p: float
    b: float
    rows: tuple

    def ratios(self):
        """deviation(eps)/deviation(2 eps) for consecutive halvings."""
        out = []
        for prev, cur in zip(self.rows, self.rows[1:]):
            if abs(prev.epsilon - 2.0 * cur.epsilon) < 1e-12 * prev.epsilon:
                out.append(cur.deviation / prev.deviation)
        return out


def variance_warm_start(alpha, sigma, eps, v_p, consts):
    """First-order generative variance and the exponential outlier location
    that keep (alpha, sigma) in balance at contamination eps."""
    v_g0 = v_p * max(1.0 - consts.b * eps, 0.05)
    m_o0 = math.sqrt(2.0 * sigma) * math.exp(0.5 * consts.b1) \
        * math.exp(0.5 * consts.b0 / eps)
    return v_g0, m_o0


def _inverse_residual(x, eps, alpha, sigma, n_nodes):
    """(G, H) at m = 0 and their Jacobian in x = (ln v_g, ln m_o) for the
    inverse problem (m_g = 0, v_o = 1); None outside its domain.

    At m = m_g the generative terms depend on v_g only through v_g / sigma,
    so their ln v_g column is minus their ln sigma column; the outlier
    terms depend on m_o - m, so their m_o column is minus their m column.
    """
    lv, lm = x
    if abs(lv) > 30.0 or lm > 700.0:
        return None
    offset = math.exp(lm)
    spec = ContaminationSpec(epsilon=eps, v_g=math.exp(lv),
                             outlier=("gaussian", offset, 1.0))
    gen, out = (_component_fgh(0.0, alpha, sigma, weight, kind, a, b,
                               n_nodes, jacobian=True)
                for weight, kind, a, b in spec.components())
    (_, g_gen, h_gen), j_gen = gen
    (_, g_out, h_out), j_out = out
    r = np.array([g_gen + g_out + delta_psi(alpha), h_gen + h_out])
    jac = np.array([[-j_gen[1, 2], -offset * j_out[1, 0]],
                    [-j_gen[2, 2], -offset * j_out[2, 0]]])
    return r, jac


def verify_variance_correction(alpha, sigma, eps_seq=DEFAULT_VERIFY_EPS,
                               nodes=None) -> VarianceReport:
    """Inverse-equilibrium check of the first-order variance correction.

    For each epsilon, solve for the generative variance v_g and the
    location m_o of a unit-variance Gaussian outlier that make the fixed
    (alpha, sigma) an equilibrium of the evidence and precision equations
    at m = m_g = 0; report the deviation of v_g from the first-order law
    (1 - b eps) v_p, whose halving ratios approach 1/4.
    """
    if not (alpha > 0 and sigma > 0):
        raise ValueError("alpha and sigma must be positive")
    n_nodes = _dyn_nodes(nodes)
    gap = alpha - solve_A(alpha)
    v_p = sigma / gap
    consts = correction_constants(alpha, nodes=n_nodes)
    rows = []
    for eps in eps_seq:
        eps = float(eps)
        if eps == 0.0:
            rows.append(VarianceRow(epsilon=0.0, v_g=v_p, m_o=math.nan,
                                    deviation=0.0, slope=math.nan,
                                    converged=True))
            continue
        v_g0, m_o0 = variance_warm_start(alpha, sigma, eps, v_p, consts)
        try:
            x, _ = _damped_newton(
                lambda x: _inverse_residual(x, eps, alpha, sigma, n_nodes),
                (math.log(v_g0), math.log(m_o0)), 1e-13)
            v_g, m_o = math.exp(x[0]), math.exp(x[1])
            deviation = abs(v_g - (1.0 - consts.b * eps) * v_p)
            slope = (v_p - v_g) / (eps * v_p)
            rows.append(VarianceRow(epsilon=eps, v_g=v_g, m_o=m_o,
                                    deviation=deviation, slope=slope,
                                    converged=True))
        except NonConvergenceError:
            rows.append(VarianceRow(epsilon=eps, v_g=math.nan, m_o=math.nan,
                                    deviation=math.nan, slope=math.nan,
                                    converged=False))
    return VarianceReport(alpha=alpha, sigma=sigma, v_p=v_p, b=consts.b,
                          rows=tuple(rows))


def solve_mean_root(spec: ContaminationSpec, alpha, sigma, nodes=None):
    """Root of the mean-pull integral near the generative mean.

    Newton from m_g with the analytic derivative of F, converged when |F|
    falls below 1e-13 |F(m_g)|; the folded evaluation keeps sub-femto roots
    meaningful when the mixture is nearly symmetric.  A failed solve
    raises NonConvergenceError.
    """
    def evaluate(x):
        (f, _, _), jac = fgh(x[0], alpha, sigma, spec, nodes=nodes,
                             jacobian=True)
        return np.array([f]), jac[:1, :1]

    r0, _ = evaluate([spec.m_g])
    if r0[0] == 0.0:
        return spec.m_g
    x, _ = _damped_newton(evaluate, [spec.m_g], 1e-13 * abs(r0[0]))
    return float(x[0])


@dataclass(frozen=True)
class MeanRow:
    epsilon: float
    v_g: float
    m_o: float
    m_p: float
    deviation: float
    converged: bool


@dataclass(frozen=True)
class MeanReport:
    alpha: float
    sigma: float
    rows: tuple

    def power_ratios(self, k):
        """deviation / eps^k per row, the sequence that must decay."""
        return [row.deviation / row.epsilon**k for row in self.rows
                if row.epsilon > 0]


def verify_mean_exponential(alpha, sigma, eps_seq=DEFAULT_VERIFY_EPS,
                            nodes=None) -> MeanReport:
    """Super-polynomial closeness of the fitted mean to the generative mean.

    Reuses the inverse-problem mixtures from the variance verification and
    solves the mean-pull root at each epsilon; the deviation |m_p - m_g|
    (m_g = 0) must fall faster than eps^2 and eps^3.
    """
    var_report = verify_variance_correction(alpha, sigma, eps_seq=eps_seq,
                                            nodes=nodes)
    rows = []
    for vr in var_report.rows:
        if vr.epsilon == 0.0:
            rows.append(MeanRow(epsilon=0.0, v_g=vr.v_g, m_o=math.nan,
                                m_p=0.0, deviation=0.0, converged=True))
            continue
        if not vr.converged:
            rows.append(MeanRow(epsilon=vr.epsilon, v_g=math.nan, m_o=math.nan,
                                m_p=math.nan, deviation=math.nan,
                                converged=False))
            continue
        spec = ContaminationSpec(epsilon=vr.epsilon, v_g=vr.v_g,
                                 outlier=("gaussian", vr.m_o, 1.0))
        try:
            m_p = solve_mean_root(spec, alpha, sigma, nodes=nodes)
        except NonConvergenceError:
            m_p = math.nan
        rows.append(MeanRow(epsilon=vr.epsilon, v_g=vr.v_g, m_o=vr.m_o,
                            m_p=m_p, deviation=abs(m_p),
                            converged=not math.isnan(m_p)))
    return MeanReport(alpha=alpha, sigma=sigma, rows=tuple(rows))


def field_grid(alpha_values, sigma_values, spec: ContaminationSpec,
               m=None, nodes=None):
    """(alpha, sigma, dalpha, dsigma) rows over a grid at fixed m, nu = 1."""
    if m is None:
        m = spec.m_g
    rows = []
    for alpha in map(float, alpha_values):
        for sigma in map(float, sigma_values):
            # beta maps back to this sigma exactly at nu = 1
            state = GcpParams(m=m, nu=1.0, alpha=alpha, beta=0.5 * sigma)
            _, _, dalpha, _, dsigma = flow(state, spec, nodes=nodes)
            rows.append((alpha, sigma, dalpha, dsigma))
    return rows
