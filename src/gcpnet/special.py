"""Special functions and Gaussian quadrature shared by the numeric modules.

The central object is the function A(alpha), defined for every alpha > 0 as
the unique root of

    (2*alpha + 1) * E[y^2 / (2*(alpha - A) + y^2)] - 1 = 0,    y ~ N(0, 1),

which enters the prognostic variance sigma / (alpha - A(alpha)).  A(alpha)
increases monotonically from 0 to 1 and always satisfies A(alpha) < alpha.

With s = 2*(alpha - A) the expectation collapses to 1 - R(s), where

    R(s) = sqrt(pi*s/2) * exp(s/2) * erfc(sqrt(s/2)),

so the root solve reduces to a scalar bisection on a residual evaluated via
erfcx with no quadrature error at all.  A Gauss-Hermite evaluation of
the same residual is kept alongside for cross-checking; the closed form is
what production code uses because a fixed Hermite rule loses the integrand
once s leaves the node range (128 nodes resolve it only for alpha roughly in
[1, 200], while the table below spans [1e-3, 1e3]).

Predictions read alpha - A(alpha) from `AlphaTable`, a cubic Hermite
over 512 solves whose knot slopes come from differentiating the defining
equation (log_gap_slope).  It stays within 1.4e-10 relative of the solver
between knots and strictly increasing on a 400,001-point scan.  Nothing
here imports scipy, so `solve-a` and the dynamics commands start on numpy
alone.  The error types the command line maps to exit codes live here
too, so it need not import `dynamics` or `net`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class NumericError(RuntimeError):
    """A quadrature or solver produced a non-finite or uncertifiable result."""


class ConditionError(ValueError):
    """A precondition on the contamination mixture is violated."""


class NonConvergenceError(RuntimeError):
    """A Newton solve failed; the message carries the iterate diagnostics."""


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite mid-training."""

    def __init__(self, epoch, batch, sample_index, message):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.sample_index = sample_index


def _psi_tail(x: float) -> float:
    """ln(x) - Psi(x) by its asymptotic series, exact to roundoff for x >= 20."""
    inv2 = 1.0 / (x * x)
    return 0.5 / x + inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (
        1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))


def delta_psi(alpha: float) -> float:
    """Psi(alpha) - Psi(alpha + 1/2); strictly negative, increasing to 0.

    Subtracting two digammas loses about 1e-15 absolute, up to 4e-11 of
    the gap itself at alpha = 1e4.  Instead the recurrence
    Psi(x) = Psi(x + 1) - 1/x lifts x to 20, where the gap is a log1p plus
    the difference of two asymptotic tails, with no cancellation.
    """
    if not alpha > 0:
        raise ValueError(f"delta_psi requires alpha > 0, got {alpha!r}")
    x, gap = float(alpha), 0.0
    while x < 20.0:
        gap -= 0.5 / (x * (x + 0.5))
        x += 1.0
    return gap - math.log1p(0.5 / x) - _psi_tail(x) + _psi_tail(x + 0.5)


def _trigamma_tail(x: float) -> float:
    """Psi'(x) - 1/x by its asymptotic series, exact to roundoff for x >= 20."""
    inv = 1.0 / x
    inv2 = inv * inv
    return inv2 * (0.5 + inv * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (
        1.0 / 42.0 - inv2 * (1.0 / 30.0 - inv2 * 5.0 / 66.0)))))


def delta_trigamma(alpha: float) -> float:
    """Psi'(alpha) - Psi'(alpha + 1/2), the derivative of delta_psi, with no
    subtraction of two trigammas: Psi'(x) = Psi'(x + 1) + 1/x^2 lifts x to
    20, then the gap is 1/2 / (x (x + 1/2)) plus two asymptotic tails."""
    if not alpha > 0:
        raise ValueError(f"delta_trigamma requires alpha > 0, got {alpha!r}")
    x, gap = float(alpha), 0.0
    while x < 20.0:
        gap += (x + 0.25) / (x * (x + 0.5)) ** 2
        x += 1.0
    return gap + 0.5 / (x * (x + 0.5)) + _trigamma_tail(x) - _trigamma_tail(x + 0.5)


def erfcx(x: float) -> float:
    """exp(x^2) erfc(x) for a float x >= 0, within a few ulp: Cody's (1969)
    rational forms from CALERF on [0, 0.46875], (0.46875, 4] and beyond,
    written out because solve_A calls it about 60 times per solve."""
    if x <= 0.46875:
        z = x * x
        top = ((((1.85777706184603153e-1 * z + 3.16112374387056560e00) * z
                 + 1.13864154151050156e02) * z + 3.77485237685302021e02) * z
               + 3.20937758913846947e03)
        bottom = ((((z + 2.36012909523441209e01) * z + 2.44024637934444173e02)
                   * z + 1.28261652607737228e03) * z + 2.84423683343917062e03)
        return math.exp(z) * (1.0 - x * top / bottom)
    if x <= 4.0:
        top = ((((((((2.15311535474403846e-8 * x + 5.64188496988670089e-1) * x
                     + 8.88314979438837594e00) * x + 6.61191906371416295e01) * x
                   + 2.98635138197400131e02) * x + 8.81952221241769090e02) * x
                 + 1.71204761263407058e03) * x + 2.05107837782607147e03) * x
               + 1.23033935479799725e03)
        bottom = ((((((((x + 1.57449261107098347e01) * x + 1.17693950891312499e02)
                       * x + 5.37181101862009858e02) * x + 1.62138957456669019e03)
                     * x + 3.29079923573345963e03) * x + 4.36261909014324716e03)
                   * x + 3.43936767414372164e03) * x + 1.23033935480374942e03)
        return top / bottom
    z = 1.0 / (x * x)
    top = (((((1.63153871373020978e-2 * z + 3.05326634961232344e-1) * z
              + 3.60344899949804439e-1) * z + 1.25781726111229246e-1) * z
            + 1.60837851487422766e-2) * z + 6.58749161529837803e-4)
    bottom = (((((z + 2.56852019228982242e00) * z + 1.87295284992346725e00) * z
                + 5.27905102951428412e-1) * z + 6.05183413124413191e-2) * z
              + 2.33520497626869185e-3)
    return (0.56418958354775628695 - z * top / bottom) / x


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight pair.

    A `hermite_rule` integrates against the standard normal density
    (weights sum to 1); a `legendre_rule` integrates dy over [lo, hi]
    (weights sum to hi - lo).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


# Newton passes allowed from the asymptotic starts; for every n up to 1024
# Hermite nodes need 2 and Legendre nodes at most 4
_RULE_NEWTON_CAP = 8


def _mirrored(half, weights, zero_weight, n) -> QuadratureRule:
    """The exactly antisymmetric rule from its positive nodes, ascending;
    an odd n adds the zero node with `zero_weight`."""
    mid = [0.0] if n % 2 else []
    return QuadratureRule(
        np.concatenate((-half[::-1], mid, half)),
        np.concatenate((weights[::-1], [zero_weight] if n % 2 else [], weights)))


def _hermite_ratio(x, n, weights):
    """rho_n = H_n / H_{n-1} at x > 0 by rho_{k+1} = 2x - 2k / rho_k, whose
    coefficients are exact, so no rounded constant biases every weight
    alike; with `weights` also 1 / (n prod_{k<n} rho_k^2 / (2k)), as a
    mantissa and a power of two that underflow cleanly to 0."""
    two_x = 2.0 * x
    rho = two_x
    mantissa, exponent = np.ones_like(x), np.zeros(x.shape, dtype=int)
    for k in range(1, n):
        if weights:
            mantissa, shift = np.frexp(mantissa * (rho * rho / (2 * k)))
            exponent += shift
        rho = two_x - 2 * k / rho
    return rho, np.ldexp(1.0 / (n * mantissa), -exponent) if weights else None


@lru_cache(maxsize=32)
def hermite_rule(n: int) -> QuadratureRule:
    """Standardized Gauss-Hermite rule: exact for E[p(y)], y ~ N(0,1).

    Tricomi's interior approximation (Townsend, Trogdon & Olver 2016)
    starts Newton on psi_n = H_n exp(-x^2/2) / norm, whose psi'' vanishes
    at a root, so it converges cubically, over the positive nodes at once.
    """
    if n < 1:
        raise ValueError("node count must be positive")
    half, nu = n // 2, 2.0 * n + 1.0
    # t - sin t = c from cbrt(6c), below the root of this convex function
    c = (4.0 * half - 4.0 * np.arange(1, half + 1) + 3.0) * math.pi / nu
    t = np.cbrt(6.0 * c)
    for _ in range(6):
        t = t - (t - np.sin(t) - c) / (1.0 - np.cos(t))
    sig = np.cos(0.5 * t) ** 2
    x = np.sqrt(nu * sig - (1.25 / (1.0 - sig) ** 2 - 1.0 / (1.0 - sig)
                            - 0.25) / (3.0 * nu))
    for _ in range(_RULE_NEWTON_CAP):
        rho, _ = _hermite_ratio(x, n, weights=False)
        # psi_n / psi_n' with psi_n' = sqrt(2n) psi_{n-1} - x psi_n
        step = rho / (2 * n - x * rho)
        x = x - step
        if np.all(np.abs(step) <= 1e-8 * x):
            break
    else:
        raise NumericError(f"Hermite nodes did not converge at n={n}")
    rho, weights = _hermite_ratio(x, n, weights=True)
    # d log(weight)/dx = -4x at a root: the weight at the exact root, to
    # first order in the rounded node's residual step
    weights = weights * (1.0 + 4.0 * x * rho / (2 * n - x * rho))
    j = (n - 1) // 2
    return _mirrored(math.sqrt(2.0) * x, weights,
                     4 ** j / (n * math.comb(2 * j, j)), n)


def legendre_rule(n: int, lo: float, hi: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped onto [lo, hi]; weights carry the dy measure.

    Newton on the three-term recurrence from Tricomi's approximation, over
    the positive nodes at once.  The weight 2/((1-x^2) P_n'^2) moves by
    2x/(1-x^2) per unit of node error, 5e-12 for the end node of n = 512
    rounded to a double, so it is taken to first order at the exact root.
    """
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1)
                                                   / (4 * n + 2))
    for _ in range(_RULE_NEWTON_CAP):
        p_prev, p = np.ones_like(x), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        slope = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        step = p / slope
        if np.all(np.abs(step) <= 1e-15):
            break
        x = x - step
    else:
        raise NumericError(f"Legendre nodes did not converge at n={n}")
    one_minus_sq = (1.0 - x) * (1.0 + x)
    weights = 2.0 / (one_minus_sq * slope * slope) * (
        1.0 + 2.0 * x * step / one_minus_sq)
    j = (n - 1) // 2
    std = _mirrored((x - step)[::-1], weights[::-1],
                    2 * 16 ** j / (n * math.comb(2 * j, j)) ** 2, n)
    half = 0.5 * (hi - lo)
    return QuadratureRule(0.5 * (lo + hi) + half * std.nodes, std.weights * half)


def gauss_weighted_integral(f, rule: QuadratureRule) -> float:
    """Sum w_i f(y_i); for a hermite rule this approximates E[f(y)], y~N(0,1)."""
    vals = np.asarray(f(rule.nodes), dtype=float)
    acc = float(np.dot(rule.weights, vals))
    if not math.isfinite(acc):
        raise NumericError("integrand produced a non-finite value at a node")
    return acc


def rational_mean_complement(s: float) -> float:
    """R(s) = s * E[1/(s + y^2)] = sqrt(pi s/2) erfcx(sqrt(s/2)), so that
    E[y^2/(s + y^2)] = 1 - R(s).  Monotone increasing from 0 to 1."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return math.sqrt(0.5 * math.pi * s) * erfcx(math.sqrt(0.5 * s))


def weighted_square_mean(s: float) -> float:
    """E[s*y^2/(s + y^2)^2] for y ~ N(0,1), via d/ds of the mean above:
    equals (R(s)*(1+s) - s)/2 exactly."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    r = rational_mean_complement(s)
    return 0.5 * (r * (1.0 + s) - s)


def log_gap_slope(alpha: float, s: float) -> float:
    """d ln(alpha - A) / d ln alpha at s = 2*(alpha - A(alpha)), from
    differentiating the defining equation: 2 alpha over (2 alpha + 1)^2
    times weighted_square_mean(s).  It falls from 2 at small alpha to 1."""
    return 2.0 * alpha / ((2.0 * alpha + 1.0) ** 2 * weighted_square_mean(s))


def a_equation_residual(alpha: float, a: float, rule: QuadratureRule | None = None) -> float:
    """Residual of the defining equation of A(alpha) at the trial value a.

    (2*alpha+1) * E[y^2/(2(alpha-a)+y^2)] - 1, strictly increasing in a.
    With no rule the expectation is evaluated in closed form; passing a
    hermite rule evaluates it by quadrature instead (cross-check path).
    """
    s = 2.0 * (alpha - a)
    if rule is None:
        mean = 1.0 - rational_mean_complement(s)
    else:
        mean = gauss_weighted_integral(lambda y: y * y / (s + y * y), rule)
    return (2.0 * alpha + 1.0) * mean - 1.0


def solve_A(alpha: float) -> float:
    """Solve for A(alpha) by bisection on (0, min(1, alpha)).

    The residual is negative at 0+ and positive at the cap, so plain
    bisection cannot fail; the upper endpoint is guarded with a shrinking
    offset to keep the initial bracket strict.  Resolution is driven to the
    floating-point limit (far below the 1e-12 contract on A).
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"solve_A requires a finite alpha > 0, got {alpha!r}")
    cap = min(1.0, alpha)
    delta = 1e-6 * cap
    while a_equation_residual(alpha, cap - delta) <= 0.0:
        delta *= 0.5
        if delta < 1e-300:
            raise NumericError(f"bisection bracket failure at alpha={alpha}")
    lo, hi = 0.0, cap - delta
    if a_equation_residual(alpha, lo) >= 0.0:
        raise NumericError(f"bisection bracket failure at alpha={alpha}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if a_equation_residual(alpha, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class AlphaTable:
    """Precomputed A(alpha) at 512 log-spaced alphas on [1e-3, 1e3] with
    cubic Hermite interpolation.

    Interpolates log(2*(alpha - A)) against log(alpha), which is nearly
    piecewise linear (slope 2 for small alpha, slope 1 for large), so the
    derived alpha - A keeps full relative accuracy where A -> alpha would
    cancel catastrophically.  The slope at each knot is the exact one,
    log_gap_slope.  Queries outside the grid fall back to the direct solve.
    """

    alphas: np.ndarray
    log_alphas: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)

    @classmethod
    def build(cls) -> "AlphaTable":
        """Column i of `coefficients` holds piece i in powers of
        log(alpha) - log_alphas[i], highest first."""
        alphas = np.logspace(-3.0, 3.0, 512)
        s = np.array([2.0 * (a - solve_A(a)) for a in alphas])
        d = np.array([log_gap_slope(a, s_a) for a, s_a in zip(alphas, s)])
        knots, y = np.log(alphas), np.log(s)
        h = np.diff(knots)
        m = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        return cls(alphas, knots,
                   np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])))

    def _log_twice_gap(self, q):
        """The interpolant at log-alphas q inside the grid."""
        x, c = self.log_alphas, self.coefficients
        i = np.clip(np.searchsorted(x, q, "right") - 1, 0, len(x) - 2)
        s = q - x[i]
        s2 = s * s
        return ((c[3, i] + c[2, i] * s) + c[1, i] * s2) + c[0, i] * (s2 * s)

    def gap_many(self, alphas) -> np.ndarray:
        """alpha - A(alpha), the quantity the prognostic variance divides
        by, over an array of alphas of any shape, 0-d included."""
        arr = np.asarray(alphas, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("alpha values must be positive")
        out = np.empty_like(arr)
        inside = (arr >= self.alphas[0]) & (arr <= self.alphas[-1])
        if np.any(inside):
            out[inside] = 0.5 * np.exp(self._log_twice_gap(np.log(arr[inside])))
        if not np.all(inside):
            out[~inside] = [a - solve_A(a) for a in arr[~inside]]
        return out


@lru_cache(maxsize=None)
def alpha_table() -> AlphaTable:
    """Shared lazily-built table (immutable, safe to share across threads)."""
    return AlphaTable.build()
