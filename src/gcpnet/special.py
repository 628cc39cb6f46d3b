"""Special functions and Gaussian quadrature shared by the numeric modules.

The central object is the function A(alpha), defined for every alpha > 0 as
the unique root of

    (2*alpha + 1) * E[y^2 / (2*(alpha - A) + y^2)] - 1 = 0,    y ~ N(0, 1),

which enters the prognostic variance sigma / (alpha - A(alpha)).  A(alpha)
increases monotonically from 0 to 1 and always satisfies A(alpha) < alpha.

With s = 2*(alpha - A) the expectation collapses to 1 - R(s), where

    R(s) = sqrt(pi*s/2) * exp(s/2) * erfc(sqrt(s/2)),

so the root solve reduces to a scalar bisection on a residual evaluated via
scipy's erfcx with no quadrature error at all.  A Gauss-Hermite evaluation of
the same residual is kept alongside for cross-checking; the closed form is
what production code uses because a fixed Hermite rule loses the integrand
once s leaves the node range (128 nodes resolve it only for alpha roughly in
[1, 200], while the table below spans [1e-3, 1e3]).

Predictions read alpha - A(alpha) from `AlphaTable`, a monotone cubic
Hermite (PCHIP, Fritsch & Carlson 1980) over 512 solves, within 2e-9
relative at the knots' midpoints.  It uses scipy's derivative rule and
evaluation order, so it matches scipy's PchipInterpolator bitwise without
importing scipy.interpolate, which would pull scipy.optimize, scipy.linalg
and scipy.fft into every command's start-up.  The error types the command
line maps to exit codes live here too, so it need not import `dynamics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erfcx, roots_hermite, roots_legendre


class NumericError(RuntimeError):
    """A quadrature or solver produced a non-finite or uncertifiable result."""


class ConditionError(ValueError):
    """A precondition on the contamination mixture is violated."""


class NonConvergenceError(RuntimeError):
    """A Newton solve failed; the message carries the iterate diagnostics."""


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


@lru_cache(maxsize=32)
def hermite_rule(n: int) -> QuadratureRule:
    """Standardized Gauss-Hermite rule: exact for E[p(y)], y ~ N(0,1)."""
    if n < 1:
        raise ValueError("node count must be positive")
    # scipy's Golub-Welsch stays stable at high order; numpy's hermgauss
    # overflows its recurrence near n = 400
    x, w = roots_hermite(n)
    return QuadratureRule(x * math.sqrt(2.0), w / math.sqrt(math.pi))


def legendre_rule(n: int, lo: float, hi: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped onto [lo, hi]; weights carry the dy measure."""
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    x, w = roots_legendre(n)
    half = 0.5 * (hi - lo)
    return QuadratureRule(lo + half * (x + 1.0), w * half)


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
    if s == 0.0:
        return 0.0
    return math.sqrt(0.5 * math.pi * s) * float(erfcx(math.sqrt(0.5 * s)))


def weighted_square_mean(s: float) -> float:
    """E[s*y^2/(s + y^2)^2] for y ~ N(0,1), via d/ds of the mean above:
    equals (R(s)*(1+s) - s)/2 exactly."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0.0:
        return 0.0
    r = rational_mean_complement(s)
    return 0.5 * (r * (1.0 + s) - s)


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


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end derivative, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, n-1) coefficients of the PCHIP interpolant through (x, y).

    Column i holds piece i in powers of s = t - x[i], highest first.
    Interior derivatives are the weighted harmonic mean of the adjacent
    slopes (zero where they differ in sign or vanish); the ends use the
    one-sided three-point rule.  Needs n >= 3 knots.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    inner = ((np.sign(m[1:]) == np.sign(m[:-1]))
             & (m[1:] != 0.0) & (m[:-1] != 0.0))
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][inner] = 1.0 / whmean[inner]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


@dataclass(frozen=True)
class AlphaTable:
    """Precomputed A(alpha) at 512 log-spaced alphas on [1e-3, 1e3] with
    monotone interpolation.

    Interpolates log(2*(alpha - A)) against log(alpha), which is nearly
    piecewise linear (slope 2 for small alpha, slope 1 for large), so the
    derived alpha - A keeps full relative accuracy where A -> alpha would
    cancel catastrophically.  Queries outside the grid fall back to the
    direct solve.
    """

    alphas: np.ndarray
    a_values: np.ndarray
    log_alphas: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)

    @classmethod
    def build(cls) -> "AlphaTable":
        alphas = np.logspace(-3.0, 3.0, 512)
        a_vals = np.array([solve_A(a) for a in alphas])
        knots = np.log(alphas)
        coef = _pchip_coefficients(knots, np.log(2.0 * (alphas - a_vals)))
        return cls(alphas, a_vals, knots, coef)

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


_TABLE: AlphaTable | None = None


def alpha_table() -> AlphaTable:
    """Shared lazily-built table (immutable, safe to share across threads)."""
    global _TABLE
    if _TABLE is None:
        _TABLE = AlphaTable.build()
    return _TABLE
