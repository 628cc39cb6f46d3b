"""Idealized training dynamics on contaminated Gaussian data.

The network-free limit of the belief updates is a four-variable ODE driven
by three population integrals.  This module evaluates those integrals by
quadrature over node data cached per mixture component (sums in numpy's
fixed pairwise order, so no BLAS kernel changes a result), integrates the
flow by the Dormand-Prince 5(4) pair on plain floats (6 flow evaluations
per attempted step: the last stage is the next step's first, and the
step is capped at the pair's stability boundary on stiff stretches),
solves for equilibria (started from the small-contamination asymptotics
and certified at doubled quadrature order), and runs the two
inverse-problem verifications (first-order variance correction,
super-polynomial mean closeness).  Equilibria, inverse problems and mean
roots share one damped Newton with analytic Jacobians, which gives up
after 30 iterations.  The flow moves a GcpParams point, the belief that a
network outputs for one input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .special import (
    ConditionError,
    NonConvergenceError,
    NumericError,
    delta_psi,
    delta_trigamma,
    hermite_rule,
    legendre_rule,
    solve_A,
)
from .gcp import GcpParams, correction_constants, corrected_variance

DYNAMICS_NODES_DEFAULT = 512

ALPHA_CAP = 1e4
# weight each tail of a quadrature rule may drop: 2^-12 of an ulp of its mass
TAIL_MASS = 2.0 ** -64
SOLVE_TOL = 1e-11
NEWTON_MAX_ITER = 30
SWEEP_STEP_RATIO = 2.0
MAX_STEPS = 100000
CERT_TOL = 1e-9
RTOL = 1e-8
ATOL = 1e-10
# bound on |m_g|, v_g and the outlier parameters: it keeps the moments up to
# fourth order and the squared pair denominators of the mean pull finite
MIXTURE_LIMIT = 1e50


@dataclass(frozen=True)
class ContaminationSpec:
    """Mixture (1-eps) * N(m_g, v_g) + eps * outlier, integrated at
    quadrature order `nodes` (certificates use twice that).

    `outlier` is ("gaussian", m_o, v_o) or ("uniform", lo, hi).
    """

    epsilon: float
    m_g: float = 0.0
    v_g: float = 1.0
    outlier: tuple = ("gaussian", 5.0, 1.0)
    nodes: int = DYNAMICS_NODES_DEFAULT

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ConditionError("epsilon must lie in [0, 1)")
        if type(self.nodes) is not int or self.nodes < 2:
            raise ConditionError(f"nodes must be an int >= 2: {self.nodes!r}")
        # a smaller v_g underflows the asymptotic guess's v_g**3 to zero
        if not self.v_g >= 1.0 / MIXTURE_LIMIT:
            raise ConditionError(f"v_g must be at least "
                                 f"{1.0 / MIXTURE_LIMIT:g}, got {self.v_g!r}")
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
        names = ("m_o", "v_o") if kind == "gaussian" else ("lo", "hi")
        for name, value in zip(("m_g", "v_g", *names),
                               (self.m_g, self.v_g, *self.outlier[1:])):
            if not abs(value) <= MIXTURE_LIMIT:
                raise ConditionError(f"{name} must be finite with magnitude "
                                     f"<= {MIXTURE_LIMIT:g}, got {value!r}")

    def components(self):
        """(weight, kind, a, b) rows; gaussian rows carry (mean, variance),
        uniform rows carry (lo, hi)."""
        comps = [(1.0 - self.epsilon, "gaussian", self.m_g, self.v_g)]
        if self.epsilon > 0.0:
            comps.append((self.epsilon,) + tuple(self.outlier))
        return comps


def outlier_moments(spec: ContaminationSpec) -> dict:
    """Closed-form mean and central moments (orders 2..4) of the outlier."""
    kind, a, b = spec.outlier
    if kind == "uniform":
        # U(lo,hi): mu4 = 9V^2/5, mu3 vanishes
        v = (b - a) ** 2 / 12.0
        return {"mean": 0.5 * (a + b), 2: v, 3: 0.0, 4: 1.8 * v * v}
    return {"mean": a, 2: b, 3: 0.0, 4: 3.0 * b * b}


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
    """Read-only node data of one mixture component as an expectation
    about its center: (center, weights, offsets, offsets^2).  A gaussian
    N(a, b) is the n-node Hermite rule times sqrt(b) around a, a uniform
    on [a, b] the n/2-node Legendre rule times its half-width around its
    midpoint, so doubling n refines both.

    The rule drops its outermost node pairs while the weights dropped on
    one side sum to at most TAIL_MASS, at most 2^-63 of the unit mass in
    all (512 Hermite nodes keep 130, 1024 keep 186, 16 keep all; Legendre
    rules keep every node), and stays exactly antisymmetric."""
    if kind == "gaussian":
        center, scale, rule = a, math.sqrt(b), hermite_rule(n_nodes)
    else:
        center, scale = 0.5 * (a + b), 0.5 * (b - a)
        rule = legendre_rule(n_nodes // 2)
    n = len(rule.nodes)
    tail = np.cumsum(rule.weights[:n // 2])
    k = int(np.searchsorted(tail, TAIL_MASS, side="right"))
    kept = slice(k, n - k)
    offsets = scale * rule.nodes[kept]
    offsets_sq = offsets * offsets
    offsets.setflags(write=False)
    offsets_sq.setflags(write=False)
    return center, rule.weights[kept], offsets, offsets_sq


def _component_sums(m, alpha, sigma, weight, nodes, jacobian=False):
    """One mixture component's expectations, as Python floats times
    `weight`: of F's pair integrand, ln(1 + z^2 / 2 sigma) and (alpha z^2 -
    sigma) / den, and with `jacobian` of z / den, z^2 / den, z / den^2,
    z^2 / den^2 and (z^2 - 2 sigma) / den^2, where den = 2 sigma + z^2.

    `nodes` is the component's node data as `_component_nodes` returns
    it: z = c + offsets with c its center less m.  F's integrand is z / den
    averaged over a node and its mirror, c (2 sigma + c^2 - offsets^2) /
    (den den_mirror), so F is exactly odd in c and vanishes exactly at a
    symmetric mixture; the nodes are exactly antisymmetric, so the mirror's
    den is `den` reversed.  Each weighted row is summed by numpy's pairwise
    reduction, whose order no BLAS kernel changes.
    """
    two_sigma = 2.0 * sigma
    center, weights, offsets, offsets_sq = nodes
    c = center - m
    rows = np.empty((8 if jacobian else 3, len(weights)))
    f, g, h = rows[0], rows[1], rows[2]
    z = c + offsets
    zsq = z * z
    den = two_sigma + zsq
    # out and axis by position: keywords cost more than these small ufuncs
    np.subtract(two_sigma + c * c, offsets_sq, f)
    f *= c
    f /= den * den[::-1]
    np.divide(zsq, two_sigma, g)
    np.log1p(g, g)
    np.multiply(zsq, alpha, h)
    h -= sigma
    h /= den
    if jacobian:
        z_den, zsq_den, z_den2, zsq_den2, f_m = rows[3:]
        np.divide(z, den, z_den)
        np.divide(zsq, den, zsq_den)
        np.divide(z_den, den, z_den2)
        np.divide(zsq_den, den, zsq_den2)
        np.subtract(zsq, two_sigma, f_m)
        f_m /= den
        f_m /= den
    rows *= weights
    return [weight * v for v in np.add.reduce(rows, 1).tolist()]


def _flow_jacobian(alpha, sigma, g_alpha, sums):
    """d(F, G, H) / d(m, ln alpha, ln sigma) as three rows of Python floats
    from the five Jacobian `sums` of `_component_sums` and G's ln alpha
    entry `g_alpha`, the digamma gap's (dz/dm = -1)."""
    z_den, zsq_den, z_den2, zsq_den2, f_m = sums
    two_sigma, shape = 2.0 * sigma, 2.0 * alpha + 1.0
    return [[f_m, 0.0, -two_sigma * z_den2],
            [-2.0 * z_den, g_alpha, -zsq_den],
            [-two_sigma * shape * z_den2, alpha * zsq_den,
             -sigma * shape * zsq_den2]]


def fgh(m, alpha, sigma, spec: ContaminationSpec, jacobian=False):
    """Population integrals driving the flow, at the spec's node count.

    F is the mean pull, H the precision imbalance, and G the evidence
    imbalance including the digamma gap, so an equilibrium is exactly
    F = G = H = 0.  With `jacobian` the result is ((f, g, h), J), J the
    3x3 derivative in (m, ln alpha, ln sigma) from the same nodes, a list
    of three rows of Python floats.
    """
    if not (alpha > 0 and sigma > 0):
        raise ValueError("alpha and sigma must be positive")
    f = g = h = 0.0
    sums = [0.0] * 5
    for weight, kind, a, b in spec.components():
        part = _component_sums(m, alpha, sigma, weight,
                               _component_nodes(kind, a, b, spec.nodes),
                               jacobian)
        f, g, h = f + part[0], g + part[1], h + part[2]
        if jacobian:
            sums = [s + p for s, p in zip(sums, part[3:])]
    g += delta_psi(alpha)
    finite = math.isfinite(f) and math.isfinite(g) and math.isfinite(h)
    if jacobian:
        jac = _flow_jacobian(alpha, sigma, alpha * delta_trigamma(alpha),
                             sums)
        finite = finite and all(map(math.isfinite, jac[0] + jac[1] + jac[2]))
    if not finite:
        raise NumericError(f"non-finite flow integrals at m={m}, "
                           f"alpha={alpha}, sigma={sigma}")
    return ((f, g, h), jac) if jacobian else (f, g, h)


def default_state(spec: ContaminationSpec) -> GcpParams:
    """Start of a flow run: the mixture mean, nu = 1, alpha = 1.5 and the
    beta that puts sigma at the mixture variance."""
    mean_c, var_c = mixture_mean_variance(spec)
    return GcpParams(m=mean_c, nu=1.0, alpha=1.5, beta=0.5 * var_c)


def _rates(m, nu, alpha, beta, spec):
    """(dm, dnu, dalpha, dbeta) at one point, and the H they came from."""
    f, g, h = fgh(m, alpha, beta * (nu + 1.0) / nu, spec)
    return ((2.0 * alpha + 1.0) * f, -h / (nu * (nu + 1.0)), -g, h / beta), h


def flow(state: GcpParams, spec: ContaminationSpec):
    """Time derivatives (dm, dnu, dalpha, dbeta) plus the induced dsigma."""
    rates, h = _rates(state.m, state.nu, state.alpha, state.beta, spec)
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


class _StepReject(Exception):
    """A stage left the positive orthant or produced non-finite rates."""


def _finite_rates(k):
    if k is None or not all(map(math.isfinite, k)):
        raise _StepReject
    return k


# Dormand & Prince's 5(4) pair (J. Comput. Appl. Math. 6, 1980) as exact
# fractions: row i holds stage i+2's weights on the earlier stages, so its
# sum is that stage's time c; the last row is the fifth-order solution, whose
# rates are the seventh stage and the next step's first (FSAL).  DP_ERROR is
# the fifth- less the fourth-order weights on all seven stages.
DP_TABLEAU = (
    (Fraction(1, 5),),
    (Fraction(3, 40), Fraction(9, 40)),
    (Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)),
    (Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561),
     Fraction(-212, 729)),
    (Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247),
     Fraction(49, 176), Fraction(-5103, 18656)),
    (Fraction(35, 384), Fraction(0), Fraction(500, 1113), Fraction(125, 192),
     Fraction(-2187, 6784), Fraction(11, 84)),
)
DP_ERROR = (Fraction(71, 57600), Fraction(0), Fraction(-71, 16695),
            Fraction(71, 1920), Fraction(-17253, 339200), Fraction(22, 525),
            Fraction(-1, 40))
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_B1, _, _B3, _B4, _B5, _B6)) = (
    tuple(map(float, row)) for row in DP_TABLEAU)
_E1, _, _E3, _E4, _E5, _E6, _E7 = map(float, DP_ERROR)
# |h lambda| just inside where the pair's stability region meets the
# negative real axis (about 3.3).  Near a rest point the error control alone
# lets the step sit on that boundary, where the stiff modes oscillate at the
# tolerance level and the run never settles, so each accepted step caps the
# next at STIFF_BOUND over the stiffness estimate rho (Hairer & Wanner,
# Solving ODEs II, IV.2)
STIFF_BOUND = 3.25


def _dp5_step(u, k1, h, stage):
    """One Dormand-Prince step of size h from u, given its first stage k1.

    Returns the fifth-order state y7, its rates k7 (the next first stage),
    the max-norm error against the fourth-order solution in units of the
    tolerance, and the step cap STIFF_BOUND / rho, where rho = |k7 - k6| /
    |y7 - y6| estimates the stiffest rate from the two stages at the
    step's end (inf when they coincide)."""
    k2 = stage(tuple(x + h * (_A21 * a) for x, a in zip(u, k1)))
    k3 = stage(tuple(x + h * (_A31 * a + _A32 * b)
                     for x, a, b in zip(u, k1, k2)))
    k4 = stage(tuple(x + h * (_A41 * a + _A42 * b + _A43 * c)
                     for x, a, b, c in zip(u, k1, k2, k3)))
    k5 = stage(tuple(x + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                     for x, a, b, c, d in zip(u, k1, k2, k3, k4)))
    y6 = tuple(x + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
               for x, a, b, c, d, e in zip(u, k1, k2, k3, k4, k5))
    k6 = stage(y6)
    y7 = tuple(x + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
               for x, a, c, d, e, f in zip(u, k1, k3, k4, k5, k6))
    if not all(map(math.isfinite, y7)):
        raise _StepReject
    k7 = stage(y7)
    err = max(abs(h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f
                       + _E7 * g)) / (ATOL + RTOL * abs(y))
              for y, a, c, d, e, f, g in zip(y7, k1, k3, k4, k5, k6, k7))
    # y7 == y6 gives k7 == k6, which leaves rho undefined and the step free
    dk = math.dist(k7, k6)
    cap = STIFF_BOUND * math.dist(y7, y6) / dk if dk > 0.0 else math.inf
    return y7, k7, err, cap


# fgh raises on non-finite integrals and a non-finite stage rejects its
# step, so numpy's overflow warnings would only come before those checks
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate(state0: GcpParams, spec: ContaminationSpec, t_end,
              settle_tol=None, escape_bound=None) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) with positivity rejection.

    The seventh stage of an attempt is the rates at its new state and so
    the next attempt's first: a run costs one flow evaluation for the
    start and 6 per attempted step.  A stage that leaves the positive
    orthant or has non-finite rates halves the step.  After each accepted
    step the next one is capped where the stiffest mode would leave the
    pair's stability region.  Stops early when `settle_tol` is given and
    all normalized derivatives fall below it (that derivative is the
    seventh stage, so the check costs nothing extra), or when
    `escape_bound` is given and both alpha and sigma exceed it; running
    out of MAX_STEPS attempts or shrinking the step below floor marks the
    trajectory truncated.
    """
    evaluations = 0

    def rates(u):
        nonlocal evaluations
        m, nu, alpha, beta = u
        if nu <= 0 or alpha <= 0 or beta <= 0:
            return None
        evaluations += 1
        return _rates(m, nu, alpha, beta, spec)[0]

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
        if steps >= MAX_STEPS:
            truncated = True
            break
        steps += 1
        dt = min(dt, t_end - t)
        try:
            if k1 is None:
                k1 = rates(u)
            new, k_new, err, cap = _dp5_step(u, _finite_rates(k1), dt, stage)
        except _StepReject:
            rejected += 1
            dt *= 0.5
            if dt < 1e-14 * max(1.0, t):
                truncated = True
                break
            continue
        if not err <= 1.0:  # a NaN estimate rejects too
            rejected += 1
            dt *= max(0.2, 0.9 * err**-0.2)
            continue
        u, k1 = new, k_new
        t += dt
        ts.append(t)
        rows.append(u)
        if err > 0:
            dt *= min(5.0, 0.9 * err**-0.2)
        else:
            dt *= 5.0
        if 0.0 < cap < dt:
            dt = cap
        m, nu, alpha, beta = u
        if escape_bound is not None:
            sigma = beta * (nu + 1.0) / nu
            if alpha > escape_bound and sigma > escape_bound:
                escaped = True
                break
        if settle_tol is not None:
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
    """The box in (m - m_g, ln alpha, ln sigma) where roots are sought;
    beyond it the residuals fade along the escape channel toward infinity."""
    m, la, ls = x
    return abs(la) <= math.log(ALPHA_CAP) and abs(ls) <= 60.0 and abs(m) <= 1e6


def _solve(jac, rhs, x):
    """s with jac s = rhs for a 1x1 to 3x3 system of Python floats (`jac`
    a list of rows), by Gaussian elimination with partial pivoting; a zero
    pivot raises NonConvergenceError naming the point x."""
    n = len(rhs)
    rows = [[*row, v] for row, v in zip(jac, rhs)]
    s = [0.0] * n
    try:
        for k in range(n):
            p = k
            for i in range(k + 1, n):
                if abs(rows[i][k]) > abs(rows[p][k]):
                    p = i
            rows[k], rows[p] = rows[p], rows[k]
            pivot = rows[k]
            for row in rows[k + 1:]:
                f = row[k] / pivot[k]
                for j in range(k + 1, n + 1):
                    row[j] -= f * pivot[j]
        for k in reversed(range(n)):
            row = rows[k]
            acc = row[n]
            for j in range(k + 1, n):
                acc -= row[j] * s[j]
            s[k] = acc / row[k]
    except ZeroDivisionError:
        raise NonConvergenceError(f"singular Jacobian at {x}") from None
    return s


def _damped_newton(evaluate, x0, tol, caps=None):
    """Damped Newton for r(x) = 0 on Python floats; `evaluate(x)` returns
    (r, J), J a list of rows of Python floats, or None outside the domain.
    Returns (root, iterations), the root a tuple.

    A damped step is accepted when either the residual norm falls, tested
    first because it costs no solve, or the natural level falls,
    |J^-1 r(x + lam dx)| < (1 - lam/4) |dx| (Deuflhard's affine-invariant
    test, which follows curved valleys where the plain residual norm is
    dominated by one component).  `caps(x)` bounds each coordinate's step
    from x.  Raises NonConvergenceError when the line search stalls or
    after NEWTON_MAX_ITER iterations.
    """
    x = tuple(map(float, x0))
    current = evaluate(x)
    if current is None:
        raise NonConvergenceError(f"initial guess outside the domain: {x}")
    r, jac = current
    for it in range(1, NEWTON_MAX_ITER + 1):
        step = _solve(jac, [-v for v in r], x)
        norm = max(map(abs, r))
        if norm < tol:
            # a small residual locates the root only to |step| along an
            # ill-conditioned valley; the last full step costs no
            # evaluation and squares that error
            return tuple(a + s for a, s in zip(x, step)), it
        step_norm = math.hypot(*step)
        rnorm2 = math.hypot(*r)
        lam = 1.0
        if caps is not None:
            lam = min(lam, *(c / (abs(s) + 1e-300)
                             for c, s in zip(caps(x), step)))
        for _ in range(30):
            trial = tuple(a + lam * s for a, s in zip(x, step))
            current = evaluate(trial)
            if current is not None:
                rt, jt = current
                if (math.hypot(*rt) < rnorm2
                        or math.hypot(*_solve(jac, rt, x))
                        < (1.0 - 0.25 * lam) * step_norm):
                    x, r, jac = trial, rt, jt
                    break
            lam *= 0.5
        else:
            raise NonConvergenceError(
                f"line search stalled at iteration {it}, residual {norm:.3e}")
    raise NonConvergenceError(f"no convergence after {NEWTON_MAX_ITER} "
                              f"iterations, residual "
                              f"{max(map(abs, r)):.3e}")


def newton_equilibrium(spec: ContaminationSpec, guess) -> Equilibrium:
    """Newton solve from an explicit (m, alpha, sigma) guess, then certify
    the root by re-evaluating the integrals at twice the node count.

    Newton runs over (m - m_g, ln alpha, ln sigma) with the analytic
    Jacobian on the mixture translated to m_g = 0, so the admissible box,
    the trust cap and the roundoff in m do not grow with |m_g|.  Only
    iterates inside the box are ever accepted, so no point out on the
    escape channel is certified; a failed solve raises NonConvergenceError.
    The certificate also bounds the root's location by the size of the
    Newton step |J^-1 r| at the doubled rule.
    """
    shift = spec.m_g
    kind, a, b = spec.outlier
    spec = replace(spec, m_g=0.0, outlier=(
        kind, a - shift, b - shift if kind == "uniform" else b))

    def evaluate(x):
        return fgh(x[0], math.exp(x[1]), math.exp(x[2]), spec,
                   jacobian=True) if _admissible(x) else None

    # trust caps keep iterates out of the flat residual valley that runs
    # toward alpha = infinity
    x, iters = _damped_newton(
        evaluate, (guess[0] - shift, math.log(guess[1]), math.log(guess[2])),
        SOLVE_TOL, caps=lambda x: (0.5 * (1.0 + abs(x[0])), 0.7, 0.7))
    if not _admissible(x):
        raise NonConvergenceError(f"root outside the admissible region: {x}")
    m, alpha, sigma = x[0], math.exp(x[1]), math.exp(x[2])
    res2, jac2 = fgh(m, alpha, sigma, replace(spec, nodes=2 * spec.nodes),
                     jacobian=True)
    residuals = tuple(abs(v) for v in res2)
    converged = max(residuals) < CERT_TOL
    eq = Equilibrium(m=m + shift, alpha=alpha, sigma=sigma,
                     residuals=residuals, converged=converged,
                     nodes=spec.nodes, iterations=iters,
                     step_bound=max(map(abs, _solve(jac2, res2, x))))
    if not converged:
        raise NonConvergenceError(
            f"root failed certification at doubled nodes: residuals "
            f"{eq.residuals}")
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
    if first != 0.0 and (offset * first <= 0.0
                         or abs(offset) < 1e-3 * abs(first)):
        offset = 1e-3 * first
    alpha0 = max(3.0 * spec.v_g**2 / (ind.c_go * eps), 0.05)
    if not alpha0 <= ALPHA_CAP:
        raise NonConvergenceError(
            f"asymptotic start alpha = {alpha0:.6g} at epsilon = {eps:g} lies "
            f"beyond the admissible alpha <= {ALPHA_CAP:g}")
    sigma0 = spec.v_g * (alpha0 - solve_A(alpha0))
    return (spec.m_g + offset, alpha0, sigma0)


def equilibrium(spec: ContaminationSpec, guess=None) -> Equilibrium:
    """Certified equilibrium; Newton starts from the small-eps asymptotics
    when no guess is supplied."""
    check_condition(spec)
    if guess is None:
        guess = asymptotic_guess(spec)
    return newton_equilibrium(spec, guess)


def equilibrium_sweep(eps_values, **mixture):
    """Equilibria along an epsilon grid with continuation warm starts;
    `mixture` holds the ContaminationSpec fields other than epsilon.

    Epsilons are solved in descending order.  The first starts from the
    asymptotic guess, the second from the first root, and every later one
    from the secant through the two previous roots in ln eps, linear in m
    and geometric in alpha and sigma, which follows the leading-order
    scalings (alpha ~ 1/eps, m - m_g ~ eps); a failed start falls back to
    the asymptotic guess.  Gaps wider than
    SWEEP_STEP_RATIO are bridged by solving unreported geometric midpoints
    so every continuation step stays well conditioned.
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
    for i, eps in enumerate(padded):
        spec = ContaminationSpec(epsilon=eps, **mixture)
        if i == 0:
            solved[eps] = equilibrium(spec)
            continue
        prev = solved[padded[i - 1]]
        guess = (prev.m, prev.alpha, prev.sigma)
        if i > 1:
            older = solved[padded[i - 2]]
            t = math.log(eps / padded[i - 1]) / math.log(padded[i - 1]
                                                         / padded[i - 2])
            guess = (prev.m + t * (prev.m - older.m),
                     prev.alpha * (prev.alpha / older.alpha) ** t,
                     prev.sigma * (prev.sigma / older.sigma) ** t)
        try:
            eq = newton_equilibrium(spec, guess)
        except NonConvergenceError:
            eq = newton_equilibrium(spec, asymptotic_guess(spec))
        solved[eps] = eq
    return [(e, solved[e]) for e in requested]


DEFAULT_VERIFY_EPS = (0.08, 0.04, 0.02, 0.01, 0.005)


@dataclass(frozen=True)
class InverseRow:
    """One epsilon of the inverse problem; the fitted mean m_p stays NaN
    until `verify_mean_exponential` solves it."""

    epsilon: float
    v_g: float
    m_o: float
    deviation: float
    slope: float
    converged: bool
    m_p: float = math.nan


@dataclass(frozen=True)
class InverseReport:
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

    def power_ratios(self, k):
        """|m_p - m_g| / eps^k per row (m_g = 0), the sequence that must
        decay."""
        return [abs(row.m_p) / row.epsilon**k for row in self.rows
                if row.epsilon > 0]


def _inverse_residual(x, eps, alpha, sigma, n_nodes):
    """(G, H) at m = 0 and their Jacobian in x = (ln v_g, ln m_o) for the
    inverse problem on (1 - eps) N(0, v_g) + eps N(m_o, 1); None outside
    its domain |ln v_g| <= 30, m_o <= MIXTURE_LIMIT.

    At m = m_g the generative terms depend on v_g only through v_g / sigma,
    so their ln v_g column is minus their ln sigma column; the outlier
    terms depend on m_o - m, so their m_o column is minus their m column.
    Both components are the cached unit Hermite rule, the generative one
    scaled by sqrt(v_g) here, so no Newton iterate builds node data.
    """
    lv, lm = x
    # exp(ln 1e50) rounds above 1e50, so the bound is checked on m_o, its
    # log capped below exp's overflow
    offset = math.exp(min(lm, 709.0))
    if abs(lv) > 30.0 or not offset <= MIXTURE_LIMIT:
        return None
    _, weights, unit, unit_sq = _component_nodes("gaussian", 0.0, 1.0, n_nodes)
    spread = math.sqrt(math.exp(lv)) * unit
    _, g_gen, h_gen, *sums_gen = _component_sums(
        0.0, alpha, sigma, 1.0 - eps, (0.0, weights, spread, spread * spread),
        jacobian=True)
    _, g_out, h_out, *sums_out = _component_sums(
        0.0, alpha, sigma, eps, (offset, weights, unit, unit_sq),
        jacobian=True)
    r = (g_gen + g_out + delta_psi(alpha), h_gen + h_out)
    j_gen = _flow_jacobian(alpha, sigma, 0.0, sums_gen)
    j_out = _flow_jacobian(alpha, sigma, 0.0, sums_out)
    jac = [[-j_gen[1][2], -offset * j_out[1][0]],
           [-j_gen[2][2], -offset * j_out[2][0]]]
    return r, jac


def verify_variance_correction(alpha, sigma,
                               eps_seq=DEFAULT_VERIFY_EPS) -> InverseReport:
    """Inverse-equilibrium check of the first-order variance correction.

    For each epsilon, solve for the generative variance v_g and the
    location m_o of a unit-variance Gaussian outlier that make the fixed
    (alpha, sigma) an equilibrium of the evidence and precision equations
    at m = m_g = 0; report the deviation of v_g from the first-order law
    (1 - b eps) v_p, whose halving ratios approach 1/4, and NaN where
    b eps >= 1 leaves the law no positive variance.
    """
    if not (alpha > 0 and sigma > 0):
        raise ValueError("alpha and sigma must be positive")
    eps_seq = [float(eps) for eps in eps_seq]
    if not all(0.0 <= eps < 1.0 for eps in eps_seq):
        raise ConditionError("epsilon must lie in [0, 1)")
    v_p = sigma / (alpha - solve_A(alpha))
    consts = correction_constants(alpha)
    rows = []
    for eps in eps_seq:
        if eps == 0.0:
            rows.append(InverseRow(epsilon=0.0, v_g=v_p, m_o=math.nan,
                                   deviation=0.0, slope=math.nan,
                                   converged=True, m_p=0.0))
            continue
        # start from the first-order v_g and the exponential outlier location
        # that keep (alpha, sigma) in balance; its log cannot overflow
        v_g0 = v_p * max(1.0 - consts.b * eps, 0.05)
        ln_m_o0 = 0.5 * (math.log(2.0 * sigma) + consts.b1 + consts.b0 / eps)
        try:
            x, _ = _damped_newton(
                lambda x: _inverse_residual(x, eps, alpha, sigma,
                                            DYNAMICS_NODES_DEFAULT),
                (math.log(v_g0), ln_m_o0), 1e-13)
        except NonConvergenceError:
            rows.append(InverseRow(epsilon=eps, v_g=math.nan, m_o=math.nan,
                                   deviation=math.nan, slope=math.nan,
                                   converged=False))
            continue
        v_g, m_o = math.exp(x[0]), math.exp(x[1])
        try:
            deviation = abs(v_g - corrected_variance(v_p, alpha, eps, consts))
        except ValueError:
            deviation = math.nan
        rows.append(InverseRow(epsilon=eps, v_g=v_g, m_o=m_o,
                               deviation=deviation,
                               slope=(v_p - v_g) / (eps * v_p),
                               converged=True))
    return InverseReport(v_p=v_p, b=consts.b, rows=tuple(rows))


def solve_mean_root(spec: ContaminationSpec, alpha, sigma):
    """Root of the mean-pull integral near the generative mean.

    Newton from m_g with the analytic derivative of F, converged when |F|
    falls below 1e-13 |F(m_g)|; the folded evaluation keeps sub-femto roots
    meaningful when the mixture is nearly symmetric.  A failed solve
    raises NonConvergenceError.
    """
    def evaluate(x):
        (f, _, _), jac = fgh(x[0], alpha, sigma, spec, jacobian=True)
        return (f,), [[jac[0][0]]]

    r0, _ = evaluate([spec.m_g])
    if r0[0] == 0.0:
        return spec.m_g
    x, _ = _damped_newton(evaluate, [spec.m_g], 1e-13 * abs(r0[0]))
    return float(x[0])


def verify_mean_exponential(alpha, sigma,
                            eps_seq=DEFAULT_VERIFY_EPS) -> InverseReport:
    """Super-polynomial closeness of the fitted mean to the generative mean.

    Solves the mean-pull root in each converged inverse-problem mixture of
    the variance verification and returns that report with m_p filled in;
    the deviation |m_p - m_g| (m_g = 0) must fall faster than eps^2 and
    eps^3.  A failed root leaves m_p NaN and marks its row unconverged.
    """
    report = verify_variance_correction(alpha, sigma, eps_seq=eps_seq)
    rows = []
    for row in report.rows:
        if row.epsilon > 0.0 and row.converged:
            spec = ContaminationSpec(epsilon=row.epsilon, v_g=row.v_g,
                                     outlier=("gaussian", row.m_o, 1.0))
            try:
                row = replace(row, m_p=solve_mean_root(spec, alpha, sigma))
            except NonConvergenceError:
                row = replace(row, converged=False)
        rows.append(row)
    return replace(report, rows=tuple(rows))


# as in integrate: fgh's own check reports a non-finite integral
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def field_grid(alpha_values, sigma_values, spec: ContaminationSpec, m=None):
    """(alpha, sigma, dalpha, dsigma) rows over a grid at fixed m, nu = 1."""
    if m is None:
        m = spec.m_g
    rows = []
    for alpha in map(float, alpha_values):
        for sigma in map(float, sigma_values):
            # beta maps back to this sigma exactly at nu = 1
            state = GcpParams(m=m, nu=1.0, alpha=alpha, beta=0.5 * sigma)
            _, _, dalpha, _, dsigma = flow(state, spec)
            rows.append((alpha, sigma, dalpha, dsigma))
    return rows
